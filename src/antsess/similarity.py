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
from typing import Sequence

from .sessions import Session


class CatalogMismatch(Exception):
    """The two sessions index different page catalogs."""


class MeasureKind(str, Enum):
    COSINE = "cosine"
    JACCARD = "jaccard"
    BLEND = "blend"


@dataclass(frozen=True)
class SimilarityMeasure:
    kind: MeasureKind = MeasureKind.COSINE
    blend_weights: tuple[float, float, float] = (0.5, 0.25, 0.25)

    def __post_init__(self) -> None:
        w = self.blend_weights
        if len(w) != 3 or not all(math.isfinite(x) and x >= 0 for x in w):
            raise ValueError("blend_weights must be three finite non-negative numbers")
        if abs(sum(w) - 1.0) > 1e-9:
            raise ValueError(f"blend_weights must sum to 1, got {sum(w)}")


DEFAULT_MEASURE = SimilarityMeasure()


def _jaccard(a: frozenset[int], b: frozenset[int]) -> float:
    union = len(a | b)
    return len(a & b) / union if union else 0.0


def _cosine(a: dict[int, int], b: dict[int, int], norm2_a: int, norm2_b: int) -> float:
    # integer accumulation keeps identical vectors at exactly 1.0 and makes
    # the dot product independent of which dict is walked
    if len(b) < len(a):
        a, b = b, a
    dot = sum(v * b[k] for k, v in a.items() if k in b)
    if not norm2_a or not norm2_b or not dot:
        return 0.0
    return dot / math.sqrt(norm2_a * norm2_b)


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
    blend = measure.kind is MeasureKind.BLEND
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
    use :func:`sharing_keys`.
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
    if kind is MeasureKind.COSINE:
        value = _cosine(
            a.transaction_vector, b.transaction_vector, a.transaction_norm2, b.transaction_norm2
        )
    elif kind is MeasureKind.JACCARD:
        value = _jaccard(pages_a, pages_b)
    else:
        w_tx, w_time, w_hits = measure.blend_weights
        value = (
            w_tx * _jaccard(pages_a, pages_b)
            + w_time * _cosine(a.time_vector, b.time_vector, a.time_norm2, b.time_norm2)
            + w_hits * _cosine(a.hits_vector, b.hits_vector, a.hits_norm2, b.hits_norm2)
        )
    return min(1.0, max(0.0, value))


def similarity_matrix(
    sessions: Sequence[Session], measure: SimilarityMeasure = DEFAULT_MEASURE
) -> list[list[float]]:
    """Dense symmetric N x N matrix; read-only once built."""
    n = len(sessions)
    matrix = [[0.0] * n for _ in range(n)]
    for i in range(n):
        matrix[i][i] = 1.0
        for j in range(i + 1, n):
            value = sim(sessions[i], sessions[j], measure)
            matrix[i][j] = value
            matrix[j][i] = value
    return matrix
