from __future__ import annotations

import random
from itertools import combinations

import pytest

from antsess.metrics import adjusted_rand_index, r_squared


def ari_by_pair_counting(labels_a, labels_b) -> float:
    """Brute-force oracle: classify every item pair as together/apart in
    each labeling, then apply the chance correction to the raw counts."""
    n = len(labels_a)
    both = a_only = b_only = neither = 0
    for i, j in combinations(range(n), 2):
        same_a = labels_a[i] == labels_a[j]
        same_b = labels_b[i] == labels_b[j]
        if same_a and same_b:
            both += 1
        elif same_a:
            a_only += 1
        elif same_b:
            b_only += 1
        else:
            neither += 1
    total = both + a_only + b_only + neither
    sum_a = both + a_only
    sum_b = both + b_only
    expected = sum_a * sum_b / total
    maximum = (sum_a + sum_b) / 2
    if maximum == expected:
        return 1.0
    return (both - expected) / (maximum - expected)


def test_identical_partitions():
    assert adjusted_rand_index([1, 1, 2, 2, 3], [1, 1, 2, 2, 3]) == 1.0


def test_renamed_labels_still_identical():
    assert adjusted_rand_index([1, 1, 2, 2], ["x", "x", "y", "y"]) == 1.0


def test_independent_partitions_near_zero():
    assert adjusted_rand_index([1, 1, 2, 2], [1, 2, 1, 2]) == pytest.approx(
        ari_by_pair_counting([1, 1, 2, 2], [1, 2, 1, 2]), abs=1e-12
    )


def test_degenerate_partitions():
    assert adjusted_rand_index([1, 1, 1], [1, 1, 1]) == 1.0
    assert adjusted_rand_index([1, 2, 3], [4, 5, 6]) == 1.0


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        adjusted_rand_index([1], [1, 2])


def test_matches_pair_counting_oracle_on_random_labelings():
    rng = random.Random(20240612)
    for _ in range(200):
        n = rng.randint(2, 40)
        k_a, k_b = rng.randint(1, 6), rng.randint(1, 6)
        labels_a = [rng.randrange(k_a) for _ in range(n)]
        labels_b = [rng.randrange(k_b) for _ in range(n)]
        assert adjusted_rand_index(labels_a, labels_b) == pytest.approx(
            ari_by_pair_counting(labels_a, labels_b), abs=1e-12
        )


class TestLinearFit:
    def test_exact_line(self):
        xs = [1, 2, 3, 4]
        ys = [5, 7, 9, 11]
        assert r_squared(xs, ys) == pytest.approx(1.0)
        assert r_squared(xs, [3, 3, 3, 3]) == 1.0

    def test_known_r_squared(self):
        xs = [0, 1, 2, 3]
        ys = [0, 1, 1, 2]
        # by hand: slope=0.6, intercept=0.1, ss_res=0.2, ss_tot=2.0
        assert r_squared(xs, ys) == pytest.approx(1 - 0.2 / 2.0)

    def test_constant_x_rejected(self):
        with pytest.raises(ValueError):
            r_squared([1, 1], [2, 3])
        with pytest.raises(ValueError):
            r_squared([1, 1], [2, 2])

    @pytest.mark.parametrize("xs, ys", [([1], [2]), ([], []), ([1, 2], [1, 2, 3])])
    def test_too_few_or_unpaired_points_rejected(self, xs, ys):
        with pytest.raises(ValueError):
            r_squared(xs, ys)
