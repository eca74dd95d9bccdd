"""Session-to-session similarity in [0, 1].

The clustering core only ever consumes similarities through an oracle
callable, so the measure is pluggable: binary cosine over the transaction
vector (default), Jaccard over the visited page sets, or a weighted blend
that also lets dwell times and hit counts participate.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import chain
from math import sqrt
from typing import NamedTuple, Sequence

from .sessions import Session


class CatalogMismatch(Exception):
    """The two sessions index different page catalogs."""


class MeasureKind(str, Enum):
    COSINE = "cosine"
    JACCARD = "jaccard"
    BLEND = "blend"


# module globals, so ``sim`` skips the Enum class attribute lookup per call
_COSINE, _JACCARD, _BLEND = MeasureKind


class _MeasureFields(NamedTuple):
    kind: MeasureKind = MeasureKind.COSINE
    blend_weights: tuple[float, float, float] = (0.5, 0.25, 0.25)


class SimilarityMeasure(_MeasureFields):
    """A measure, checked when it is built (by ``_replace`` too)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> SimilarityMeasure:
        self = super().__new__(cls, *args, **kwargs)
        # a plain string becomes its member here, so ``sim`` may test by identity
        kind = MeasureKind(self.kind)
        w = self.blend_weights
        if len(w) != 3 or not all(math.isfinite(x) and x >= 0 for x in w):
            raise ValueError("blend_weights must be three finite non-negative numbers")
        if abs(sum(w) - 1.0) > 1e-9:
            raise ValueError(f"blend_weights must sum to 1, got {sum(w)}")
        return self if kind is self.kind else super().__new__(cls, kind, w)

    @classmethod
    def _make(cls, iterable) -> SimilarityMeasure:
        return cls(*iterable)  # so that ``_replace`` runs the checks too


DEFAULT_MEASURE = SimilarityMeasure()


def _jaccard(a: frozenset[int], b: frozenset[int]) -> float:
    shared = len(a & b)
    union = len(a) + len(b) - shared
    return shared / union if union else 0.0


def _cosine(a: dict[int, int], b: dict[int, int], norm2_a: int, norm2_b: int) -> float:
    # integer accumulation keeps identical vectors at exactly 1.0 and makes
    # the dot product independent of which dict is walked; a float sum is
    # not, which is why callers pass the lower-indexed session first
    if len(b) < len(a):
        a, b = b, a
    dot = sum(v * b[k] for k, v in a.items() if k in b)
    return dot / sqrt(norm2_a * norm2_b) if dot and norm2_a and norm2_b else 0.0


def session_row(session: Session) -> tuple:
    """The features a similarity reads of one session, as the tuple
    ``(pages, transaction, transaction_norm2, time, time_norm2, hits,
    hits_norm2, integer, within)``:

    * ``pages``, the visited pages: the transaction vector's keys;
    * the transaction, time and hits vectors, each followed by the sum of
      its squared values;
    * ``integer``, whether the three vectors hold only ``int`` values and
      the time and hits vectors are keyed by exactly ``pages``, as
      :func:`~antsess.sessions.sessionize` guarantees: a dot product of two
      such rows is then exact in any summation order;
    * ``within``, whether the time and hits vectors only carry pages of
      ``pages`` (a hand-made dump may not).

    The vectors must not be mutated while a row built from them is in use.
    """
    vectors = tx, time, hits = session.transaction_vector, session.time_vector, session.hits_vector
    pages = frozenset(tx)
    tx2, time2, hits2 = [sum(v * v for v in vector.values()) for vector in vectors]
    integer = (
        time.keys() == pages
        and hits.keys() == pages
        and set(map(type, chain(tx.values(), time.values(), hits.values()))) <= {int}
    )
    within = time.keys() <= pages and hits.keys() <= pages
    return pages, tx, tx2, time, time2, hits, hits2, integer, within


def _sharing_key(session: Session, row: tuple, blend: bool) -> frozenset[int]:
    pages, _, _, time, _, hits, _, _, within = row
    if not pages:
        return frozenset((-1 - id(session),))
    return pages if within or not blend else pages.union(time, hits)


def sharing_keys(
    sessions: Sequence[Session], measure: SimilarityMeasure = DEFAULT_MEASURE
) -> list[frozenset[int]]:
    """One key per session such that, for indices ``a != b``,
    ``keys[a].isdisjoint(keys[b])`` implies
    ``sim(sessions[a], sessions[b], measure) == 0.0``.

    The key is the session's visited pages (its row's ``pages``), plus,
    under blend, the keys of time and hits vectors that stray off them.  A
    session with no visited pages is similar only to itself, so its key is
    one negative value of its own (page indices are never negative), shared
    with nobody but the same object at another index.
    """
    blend = measure.kind is _BLEND
    return [_sharing_key(session, session_row(session), blend) for session in sessions]


def check_catalog(sessions: Sequence[Session]) -> None:
    """Raise :class:`CatalogMismatch` unless all sessions share one catalog."""
    for session in sessions:
        if session.catalog_size != sessions[0].catalog_size:
            raise CatalogMismatch(
                f"catalog sizes differ: {sessions[0].catalog_size} vs {session.catalog_size}"
            )


def _score(x: tuple, y: tuple, measure: SimilarityMeasure) -> float:
    """The similarity of the rows of two distinct sessions of one catalog."""
    pages_a, tx_a, tx2_a, time_a, time2_a, hits_a, hits2_a, integer_a, _ = x
    pages_b, tx_b, tx2_b, time_b, time2_b, hits_b, hits2_b, integer_b, _ = y
    if not pages_a or not pages_b:
        return 0.0
    kind = measure.kind
    if kind is _JACCARD:
        value = _jaccard(pages_a, pages_b)
    elif integer_a and integer_b:
        # integer sums are exact in any order, so one pass over the shared
        # pages gives _cosine's and _jaccard's values bit for bit; a nonzero
        # integer dot product has two nonzero norms, so ``dot / sqrt(...) if
        # dot else 0.0`` is _cosine's value
        shared = pages_a & pages_b
        if kind is _COSINE:
            dot = 0
            for k in shared:
                dot += tx_a[k] * tx_b[k]
            value = dot / sqrt(tx2_a * tx2_b) if dot else 0.0
        else:
            w_tx, w_time, w_hits = measure.blend_weights
            dot_time = dot_hits = 0
            for k in shared:
                dot_time += time_a[k] * time_b[k]
                dot_hits += hits_a[k] * hits_b[k]
            n_shared = len(shared)
            value = (
                w_tx * (n_shared / (len(pages_a) + len(pages_b) - n_shared))
                + w_time * (dot_time / sqrt(time2_a * time2_b) if dot_time else 0.0)
                + w_hits * (dot_hits / sqrt(hits2_a * hits2_b) if dot_hits else 0.0)
            )
    elif kind is _COSINE:
        value = _cosine(tx_a, tx_b, tx2_a, tx2_b)
    else:
        w_tx, w_time, w_hits = measure.blend_weights
        value = (
            w_tx * _jaccard(pages_a, pages_b)
            + w_time * _cosine(time_a, time_b, time2_a, time2_b)
            + w_hits * _cosine(hits_a, hits_b, hits2_a, hits2_b)
        )
    # min(1.0, max(0.0, value)) without the calls: NaN and -0.0 give 0.0, and
    # an exact 1.0 gives the one constant, as min did, so the oracle's memo
    # holds one float object for all pairs of equal vectors
    return 1.0 if value >= 1.0 else value if value > 0.0 else 0.0


def sim(a: Session, b: Session, measure: SimilarityMeasure = DEFAULT_MEASURE) -> float:
    """Similarity of two sessions built over the same catalog.

    A session with no visited pages is similar only to itself.  The
    measure is always computed, from the two sessions' :func:`session_row`:
    callers that can skip pairs known to be 0 use :func:`sharing_keys`.
    When both rows are ``integer`` (all that
    :func:`~antsess.sessions.sessionize` builds), the dot products are
    summed in one pass over the shared pages; integer sums are exact, so
    the value is the ordered formula's bit for bit and
    ``sim(a, b) == sim(b, a)``.  Any other pair sums each dot product in the
    shorter vector's key order, ``a``'s on a tie, so with float values from
    a hand-made dump the two orders may differ in the last bit.  Callers
    that hold sessions by index therefore pass the session at the lower
    index first, as :class:`SimilarityOracle` and
    :func:`similarity_matrix` do.
    """
    check_catalog((a, b))
    if a is b:
        return 1.0
    return _score(session_row(a), session_row(b), measure)


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

    The sessions must share one catalog (:class:`CatalogMismatch` when the
    oracle is built), and each session's :func:`session_row` is built once,
    with the oracle.  ``oracle.pair(a, b)`` is 0.0 without scoring when
    ``keys[a]`` and ``keys[b]`` (:func:`sharing_keys`) are disjoint.
    Otherwise it is ``sim(sessions[lo], sessions[hi], measure)`` with ``lo,
    hi`` the lower and the higher index, the call :func:`similarity_matrix`
    makes, scored from ``rows[lo]`` and ``rows[hi]`` by the code ``sim``
    runs; the value is kept for the oracle's lifetime, about 100 bytes per
    pair, so that every repeat of a clustering over the same list reuses
    it.  The sessions must not change while the oracle is in use.
    """

    __slots__ = ("sessions", "measure", "rows", "keys", "pair")

    def __init__(
        self, sessions: Sequence[Session], measure: SimilarityMeasure = DEFAULT_MEASURE
    ):
        check_catalog(sessions)
        self.sessions, self.measure = sessions, measure
        rows = self.rows = [session_row(session) for session in sessions]
        blend = measure.kind is _BLEND
        keys = self.keys = [_sharing_key(s, row, blend) for s, row in zip(sessions, rows)]
        n, memo = len(sessions), {}

        def pair(a: int, b: int) -> float:
            if keys[a].isdisjoint(keys[b]):
                return 0.0
            if a > b:
                a, b = b, a
            key = a * n + b
            value = memo.get(key)
            if value is None:
                # one object at two indices is similar to itself, as in sim
                value = memo[key] = (
                    1.0 if sessions[a] is sessions[b] else _score(rows[a], rows[b], measure)
                )
            return value

        self.pair = pair
