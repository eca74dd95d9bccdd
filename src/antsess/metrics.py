"""Evaluation helpers: chance-corrected cluster agreement and line-fit quality."""

from __future__ import annotations

from collections import Counter
from typing import Sequence


def _comb2(n: int) -> int:
    return n * (n - 1) // 2


def adjusted_rand_index(labels_a: Sequence, labels_b: Sequence) -> float:
    """Agreement between two labelings of the same items, corrected for
    chance: 1 for identical partitions, ~0 for independent ones."""
    if len(labels_a) != len(labels_b):
        raise ValueError("labelings must cover the same items")
    n = len(labels_a)
    if n == 0:
        raise ValueError("labelings are empty")
    contingency: Counter = Counter(zip(labels_a, labels_b))
    sum_cells = sum(_comb2(c) for c in contingency.values())
    sum_a = sum(_comb2(c) for c in Counter(labels_a).values())
    sum_b = sum(_comb2(c) for c in Counter(labels_b).values())
    total = _comb2(n)
    if total == 0:
        return 1.0
    expected = sum_a * sum_b / total
    maximum = (sum_a + sum_b) / 2
    if maximum == expected:
        return 1.0
    return (sum_cells - expected) / (maximum - expected)


def r_squared(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Coefficient of determination of the least-squares line; 1.0 for a
    constant ``ys``, which the flat line fits exactly.  Constant ``xs``,
    unpaired or fewer than two points raise :class:`ValueError`."""
    # imported on use: statistics loads decimal and fractions, which no
    # pipeline command needs, and every command imports this module
    from statistics import correlation

    if len(set(ys)) == 1 and len(set(xs)) > 1 and len(xs) == len(ys):
        return 1.0
    return correlation(xs, ys) ** 2
