"""Session-to-session similarity in [0, 1].

The clustering core only ever consumes similarities through an oracle
callable, so the measure is pluggable: binary cosine over the transaction
vector (default), Jaccard over the visited page sets, or a weighted blend
that also lets dwell times and hit counts participate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from math import sqrt
from typing import Sequence

from .sessions import Session


class CatalogMismatch(Exception):
    """The two sessions index different page catalogs."""


class MeasureKind(str, Enum):
    COSINE = "cosine"
    JACCARD = "jaccard"
    BLEND = "blend"


# module globals, so ``sim`` skips the Enum class attribute lookup per call
_COSINE, _JACCARD, _BLEND = MeasureKind


@dataclass(frozen=True)
class SimilarityMeasure:
    kind: MeasureKind = MeasureKind.COSINE
    blend_weights: tuple[float, float, float] = (0.5, 0.25, 0.25)

    def __post_init__(self) -> None:
        # a plain string becomes its member here, so ``sim`` may test by identity
        object.__setattr__(self, "kind", MeasureKind(self.kind))
        w = self.blend_weights
        if len(w) != 3 or not all(math.isfinite(x) and x >= 0 for x in w):
            raise ValueError("blend_weights must be three finite non-negative numbers")
        if abs(sum(w) - 1.0) > 1e-9:
            raise ValueError(f"blend_weights must sum to 1, got {sum(w)}")


DEFAULT_MEASURE = SimilarityMeasure()


def _jaccard(a: frozenset[int], b: frozenset[int]) -> float:
    shared = len(a & b)
    union = len(a) + len(b) - shared
    return shared / union if union else 0.0


def _ratio(dot: float, norm2_a: float, norm2_b: float) -> float:
    """The cosine of two vectors from their dot product and squared norms."""
    if not norm2_a or not norm2_b or not dot:
        return 0.0
    return dot / math.sqrt(norm2_a * norm2_b)


def _cosine(a: dict[int, int], b: dict[int, int], norm2_a: int, norm2_b: int) -> float:
    # integer accumulation keeps identical vectors at exactly 1.0 and makes
    # the dot product independent of which dict is walked; a float sum is
    # not, which is why callers pass the lower-indexed session first
    if len(b) < len(a):
        a, b = b, a
    return _ratio(sum(v * b[k] for k, v in a.items() if k in b), norm2_a, norm2_b)


def sharing_keys(
    sessions: Sequence[Session], measure: SimilarityMeasure = DEFAULT_MEASURE
) -> list[frozenset[int]]:
    """One key per session such that, for indices ``a != b``,
    ``keys[a].isdisjoint(keys[b])`` implies
    ``sim(sessions[a], sessions[b], measure) == 0.0``.

    The key is the session's visited pages, plus, under blend, the keys of
    time and hits vectors that stray off them.  A session with no visited
    pages is similar only to itself, so its key is one negative value of
    its own (page indices are never negative), shared with nobody but the
    same object at another index.
    """
    blend = measure.kind is _BLEND
    keys = []
    for session in sessions:
        pages = session.visited_pages
        if not pages:
            keys.append(frozenset((-1 - id(session),)))
        elif blend and not session.vectors_within_pages:
            keys.append(pages.union(session.time_vector, session.hits_vector))
        else:
            keys.append(pages)
    return keys


def sim(a: Session, b: Session, measure: SimilarityMeasure = DEFAULT_MEASURE) -> float:
    """Similarity of two sessions built over the same catalog.

    A session with no visited pages is similar only to itself.  The
    measure is always computed: callers that can skip pairs known to be 0
    use :func:`sharing_keys`.  When both sessions have
    :attr:`~antsess.sessions.Session.integer_vectors` (all that
    :func:`sessionize` builds), the dot products are summed in one pass
    over the shared pages; integer sums are exact, so the value is the
    ordered formula's bit for bit and ``sim(a, b) == sim(b, a)``.  Any other
    pair sums each dot product in the shorter vector's key order, ``a``'s on
    a tie, so with float values from a hand-made dump the two orders may
    differ in the last bit.  Callers that hold sessions by index therefore
    pass the session at the lower index first, as
    :class:`SimilarityOracle` and :func:`similarity_matrix` do.
    """
    if a.catalog_size != b.catalog_size:
        raise CatalogMismatch(
            f"catalog sizes differ: {a.catalog_size} vs {b.catalog_size}"
        )
    if a is b:
        return 1.0
    pages_a, pages_b = a.visited_pages, b.visited_pages
    if not pages_a or not pages_b:
        return 0.0
    kind = measure.kind
    if kind is _JACCARD:
        value = _jaccard(pages_a, pages_b)
    elif a.integer_vectors and b.integer_vectors:
        # integer sums are exact in any order, so one pass over the shared
        # pages gives _cosine's and _jaccard's values bit for bit; a nonzero
        # integer dot product has two nonzero norms, so ``dot / sqrt(...) if
        # dot else 0.0`` is _ratio's value
        shared = pages_a & pages_b
        if kind is _COSINE:
            x, y = a.transaction_vector, b.transaction_vector
            dot = 0
            for k in shared:
                dot += x[k] * y[k]
            value = dot / sqrt(a.transaction_norm2 * b.transaction_norm2) if dot else 0.0
        else:
            w_tx, w_time, w_hits = measure.blend_weights
            x, y, p, q = a.time_vector, b.time_vector, a.hits_vector, b.hits_vector
            dot_time = dot_hits = 0
            for k in shared:
                dot_time += x[k] * y[k]
                dot_hits += p[k] * q[k]
            n_shared = len(shared)
            value = (
                w_tx * (n_shared / (len(pages_a) + len(pages_b) - n_shared))
                + w_time * (dot_time / sqrt(a.time_norm2 * b.time_norm2) if dot_time else 0.0)
                + w_hits * (dot_hits / sqrt(a.hits_norm2 * b.hits_norm2) if dot_hits else 0.0)
            )
    elif kind is _COSINE:
        value = _cosine(
            a.transaction_vector, b.transaction_vector, a.transaction_norm2, b.transaction_norm2
        )
    else:
        w_tx, w_time, w_hits = measure.blend_weights
        value = (
            w_tx * _jaccard(pages_a, pages_b)
            + w_time * _cosine(a.time_vector, b.time_vector, a.time_norm2, b.time_norm2)
            + w_hits * _cosine(a.hits_vector, b.hits_vector, a.hits_norm2, b.hits_norm2)
        )
    # min(1.0, max(0.0, value)) without the calls: NaN and -0.0 give 0.0, and
    # an exact 1.0 gives the one constant, as min did, so the oracle's memo
    # holds one float object for all pairs of equal vectors
    return 1.0 if value >= 1.0 else value if value > 0.0 else 0.0


def similarity_matrix(
    sessions: Sequence[Session], measure: SimilarityMeasure = DEFAULT_MEASURE
) -> list[list[float]]:
    """Dense symmetric N x N matrix; read-only once built.

    The independent reference for :class:`SimilarityOracle`: every pair is
    computed, lower index first."""
    n = len(sessions)
    matrix = [[0.0] * n for _ in range(n)]
    for i in range(n):
        matrix[i][i] = 1.0
        for j in range(i + 1, n):
            value = sim(sessions[i], sessions[j], measure)
            matrix[i][j] = value
            matrix[j][i] = value
    return matrix


class SimilarityOracle:
    """The similarity of two sessions of one list, by index, each unordered
    pair computed at most once.

    ``oracle.pair(a, b)`` is 0.0 without a call when ``keys[a]`` and
    ``keys[b]`` (:func:`sharing_keys`) are disjoint.  Otherwise it is
    ``sim(sessions[lo], sessions[hi], measure)`` with ``lo, hi`` the lower
    and the higher index, the call :func:`similarity_matrix` makes; the
    value is kept for the oracle's lifetime, about 100 bytes per pair, so
    that every repeat of a clustering over the same list reuses it.  The
    sessions must not change while the oracle is in use.

    ``sim`` is resolved when the oracle is built, so a wrapped
    ``similarity.sim`` installed before then is the one called.
    """

    __slots__ = ("sessions", "measure", "keys", "pair")

    def __init__(
        self, sessions: Sequence[Session], measure: SimilarityMeasure = DEFAULT_MEASURE
    ):
        self.sessions, self.measure = sessions, measure
        keys = self.keys = sharing_keys(sessions, measure)
        pair_sim, n, memo = sim, len(sessions), {}

        def pair(a: int, b: int) -> float:
            if keys[a].isdisjoint(keys[b]):
                return 0.0
            if a > b:
                a, b = b, a
            key = a * n + b
            value = memo.get(key)
            if value is None:
                value = memo[key] = pair_sim(sessions[a], sessions[b], measure)
            return value

        self.pair = pair
