"""Artificial-ant clustering of sessions by nest-membership recognition.

Every session is wrapped by one ant.  An ant carries an immutable genome
(the index of its session), a nest label (0 = no nest yet), and a learned
acceptance threshold.  Clustering emerges from a long sequence of random
pairwise meetings:

* two unlabelled ants that accept each other found a new nest,
* an unlabelled ant is adopted by an accepted labelled partner,
* two labelled ants from different nests fight it out: the one from the
  smaller nest defects to the larger.

Acceptance is mutual and strict: the pair's similarity must exceed both
ants' thresholds.  Each threshold is learned once, before the meetings
start, as (mean + max) / 2 of the similarities the ant observed while
sampling the population, and is never updated afterwards.

After the meeting phase, nests too small to be credible clusters are
dissolved and their ants re-attached to the most similar ant that still
holds a nest.

A meeting between two sessions that share no page (see
:func:`similarity.sharing_keys`) has similarity 0, which no template
accepts, so it is tallied as a no-op without calling :func:`meet`.

Note the simulation deliberately surveys nest sizes by recounting the
population, so an accepted meeting between two nests costs O(N) and the
meeting phase O(N^2) overall; see the complexity checks in the test suite.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

from . import similarity
from .sessions import Session
from .similarity import DEFAULT_MEASURE, CatalogMismatch, SimilarityMeasure
from .similarity import similarity_matrix  # noqa: F401  perfbench/trace_child.py wraps this name

SimOracle = Callable[[int, int], float]


class NoMeetings(Exception):
    """Template learning was given nobody to meet."""


class EmptyInput(Exception):
    """Clustering needs at least one session."""


class MeetingOutcome(Enum):
    NEW_NEST = "new_nest"
    ADOPTED = "adopted"
    DEFECTED = "defected"
    NO_OP = "no_op"


# ``run`` tallies outcomes by position in this tuple: ``tuple.index`` matches
# by identity, where a dict or Counter key would call Enum.__hash__ per meeting
_OUTCOMES = tuple(MeetingOutcome)
# module globals, so ``meet`` skips the Enum class attribute lookup per call
_NEW_NEST, _ADOPTED, _DEFECTED, _NO_OP = _OUTCOMES


@dataclass(slots=True)
class Ant:
    id: int
    genome: int  # session index; never modified after construction
    label: int = 0
    template: float = 0.0


class NestRegistry:
    """Label bookkeeping over an ant population.

    Sizes are answered by surveying the population rather than by cached
    counters; the survey cost is what makes the meeting phase quadratic.
    A meeting's survey (:meth:`pair_sizes`) gathers every ant's label into
    a list and counts the two labels it compares, so it scans all N ants;
    the list lives only for that one survey, as ``Ant.label`` is the only
    home of a label.
    """

    def __init__(self, ants: Sequence[Ant]):
        self.ants = list(ants)
        self.next_label = max((a.label for a in self.ants), default=0) + 1

    @property
    def sizes(self) -> dict[int, int]:
        counts = Counter(a.label for a in self.ants)
        counts.pop(0, None)
        return dict(counts)

    def pair_sizes(self, a: int, b: int) -> tuple[int, int]:
        """Sizes of nests ``a`` and ``b``, from one survey of the population."""
        labels = [ant.label for ant in self.ants]
        return labels.count(a), labels.count(b)

    def fresh_label(self) -> int:
        label = self.next_label
        self.next_label += 1
        return label


@dataclass(frozen=True)
class AntClustConfig:
    iter_multiplier: int = 75
    init_meetings: int = 30
    min_nest_fraction: float = 0.05
    rng_seed: int = 1

    def __post_init__(self) -> None:
        if self.iter_multiplier < 1:
            raise ValueError(
                f"iter_multiplier must be a positive integer, got {self.iter_multiplier}"
            )
        if self.init_meetings < 1:
            raise ValueError(
                f"init_meetings must be a positive integer, got {self.init_meetings}"
            )
        if not 0.0 <= self.min_nest_fraction < 1.0:
            raise ValueError(
                f"min_nest_fraction must lie in [0, 1), got {self.min_nest_fraction}"
            )


DEFAULT_CONFIG = AntClustConfig()


def learn_template(ant: Ant, others: Sequence[Ant], sims: SimOracle) -> float:
    """Set the ant's acceptance threshold from its sampled meetings."""
    if not others:
        raise NoMeetings(f"ant {ant.id} met nobody while learning its template")
    observed = [sims(ant.genome, other.genome) for other in others]
    ant.template = (sum(observed) / len(observed) + max(observed)) / 2
    return ant.template


def acceptance(i: Ant, j: Ant, sims: SimOracle) -> bool:
    """Mutual recognition: similarity strictly above both thresholds."""
    value = sims(i.genome, j.genome)
    return value > i.template and value > j.template


def meet(i: Ant, j: Ant, registry: NestRegistry, sims: SimOracle) -> MeetingOutcome:
    """Apply the single behavioural rule this pair triggers."""
    if i is j or i.id == j.id:
        raise ValueError("an ant cannot meet itself")
    li, lj = i.label, j.label
    if li == 0 and lj == 0:
        if acceptance(i, j, sims):
            i.label = j.label = registry.fresh_label()
            return _NEW_NEST
        return _NO_OP
    if li == 0 or lj == 0:
        if acceptance(i, j, sims):
            orphan, housed = (i, j) if li == 0 else (j, i)
            orphan.label = housed.label
            return _ADOPTED
        return _NO_OP
    if li == lj:
        return _NO_OP
    if acceptance(i, j, sims):
        size_i, size_j = registry.pair_sizes(li, lj)
        if size_i < size_j:
            mover, target = i, lj
        elif size_j < size_i:
            mover, target = j, li
        else:
            # equal sizes: the higher label yields to the lower
            mover, target = (i, lj) if li > lj else (j, li)
        mover.label = target
        return _DEFECTED
    return _NO_OP


@dataclass
class ClusterAssignment:
    """Final clustering: ``labels[i]`` is the dense cluster (1..K) of
    session ``i``."""

    labels: list[int]
    phase_seconds: dict[str, float] = field(default_factory=dict)
    meeting_counts: dict[str, int] = field(default_factory=dict)

    @property
    def cluster_count(self) -> int:
        return len(set(self.labels))

    def to_csv(self) -> str:
        rows = ["session_index,cluster_label"]
        rows.extend(f"{i},{label}" for i, label in enumerate(self.labels))
        return "\n".join(rows) + "\n"

    def to_json_dict(self) -> dict:
        return {"labels": list(self.labels), "clusters": self.cluster_count}


def _prune_threshold(fraction: float, n: int) -> int:
    # tiny epsilon so e.g. ceil(0.05 * 200) stays 10 despite float noise
    return max(2, math.ceil(fraction * n - 1e-9))


def run(
    sessions: Sequence[Session],
    measure: SimilarityMeasure = DEFAULT_MEASURE,
    config: AntClustConfig = DEFAULT_CONFIG,
    *,
    sims: Sequence[Sequence[float]] | None = None,
) -> ClusterAssignment:
    """Cluster sessions end to end.

    ``sims`` may supply a precomputed similarity matrix; otherwise each
    pair's similarity is computed with :func:`similarity.sim` when a
    meeting reads it (and charged to the phase that reads it), except that
    a pair with disjoint :func:`similarity.sharing_keys` is 0 without a
    call; a matrix from :func:`similarity_matrix` over the same sessions
    and measure gives the same result.  All sessions must share one
    catalog (:class:`CatalogMismatch` otherwise).  Identical inputs and
    seed produce identical output on any platform: the only randomness is
    a single seeded Mersenne Twister stream.
    """
    n = len(sessions)
    if n == 0:
        raise EmptyInput("no sessions to cluster")
    catalog_size = sessions[0].catalog_size
    for session in sessions:
        if session.catalog_size != catalog_size:
            raise CatalogMismatch(
                f"catalog sizes differ: {catalog_size} vs {session.catalog_size}"
            )
    rng = random.Random(config.rng_seed)

    started = time.perf_counter()
    if sims is None:
        pair_sim = similarity.sim  # resolved per run, so a wrapped ``sim`` is seen
        keys = similarity.sharing_keys(sessions, measure)
        oracle: SimOracle = lambda a, b: (
            0.0 if keys[a].isdisjoint(keys[b]) else pair_sim(sessions[a], sessions[b], measure)
        )
    else:
        # one shared key: the matrix path settles every meeting with ``meet``
        keys = [frozenset((0,))] * n
        oracle = lambda a, b: sims[a][b]
    ants = [Ant(id=i, genome=i) for i in range(n)]
    registry = NestRegistry(ants)
    sample_size = min(n - 1, config.init_meetings)
    for ant in ants:
        if sample_size <= 0:
            ant.template = 0.0  # a lone ant accepts nobody and needs no threshold
            continue
        picks = rng.sample(range(n - 1), sample_size)
        partners = [ants[p + (p >= ant.id)] for p in picks]
        learn_template(ant, partners, oracle)
    init_seconds = time.perf_counter() - started

    started = time.perf_counter()
    tally = [0] * len(_OUTCOMES)
    disjoint = 0
    if n >= 2:
        # a = rng.randrange(n), b = rng.randrange(n - 1), drawn inline the way
        # Random._randbelow_with_getrandbits draws them, so the stream is the same
        getrandbits, tally_index = rng.getrandbits, _OUTCOMES.index
        others = n - 1
        bits_a, bits_b = n.bit_length(), others.bit_length()
        for _ in range(config.iter_multiplier * n):
            a = getrandbits(bits_a)
            while a >= n:
                a = getrandbits(bits_a)
            b = getrandbits(bits_b)
            while b >= others:
                b = getrandbits(bits_b)
            if b >= a:
                b += 1
            # a pair with similarity 0 is accepted by nobody (acceptance is
            # strict and every template is >= 0), so its meeting is a no-op
            if keys[a].isdisjoint(keys[b]):
                disjoint += 1
                continue
            tally[tally_index(meet(ants[a], ants[b], registry, oracle))] += 1
    tally[_OUTCOMES.index(_NO_OP)] += disjoint
    simulate_seconds = time.perf_counter() - started

    started = time.perf_counter()
    threshold = _prune_threshold(config.min_nest_fraction, n)
    doomed = {label for label, count in registry.sizes.items() if count < threshold}
    for ant in ants:
        if ant.label in doomed:
            ant.label = 0
    labelled = [a for a in ants if a.label != 0]
    if not labelled:
        final = [1] * n
    else:
        for ant in ants:
            if ant.label != 0:
                continue
            best_sim, best = -1.0, None
            for candidate in labelled:  # id order; first max wins ties
                value = oracle(ant.genome, candidate.genome)
                if value > best_sim:
                    best_sim, best = value, candidate
            ant.label = best.label
        dense: dict[int, int] = {}
        final = []
        for ant in ants:
            if ant.label not in dense:
                dense[ant.label] = len(dense) + 1
            final.append(dense[ant.label])
    assign_seconds = time.perf_counter() - started

    return ClusterAssignment(
        labels=final,
        phase_seconds={
            "init": init_seconds,
            "simulate": simulate_seconds,
            "assign": assign_seconds,
        },
        meeting_counts={o.value: count for o, count in zip(_OUTCOMES, tally)},
    )
