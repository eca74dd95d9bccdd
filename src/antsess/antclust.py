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

Note the simulation deliberately surveys nest sizes by recounting the
population, so the meeting phase costs O(N) per meeting and O(N^2)
overall; see the complexity checks in the test suite.
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


@dataclass
class Ant:
    id: int
    genome: int  # session index; never modified after construction
    label: int = 0
    template: float = 0.0


class NestRegistry:
    """Label bookkeeping over an ant population.

    Sizes are answered by surveying the population rather than by cached
    counters; the survey cost is what makes the meeting phase quadratic.
    """

    def __init__(self, ants: Sequence[Ant]):
        self.ants = list(ants)
        self.next_label = max((a.label for a in self.ants), default=0) + 1

    @property
    def membership(self) -> dict[int, int]:
        return {a.id: a.label for a in self.ants}

    @property
    def sizes(self) -> dict[int, int]:
        counts = Counter(a.label for a in self.ants)
        counts.pop(0, None)
        return dict(counts)

    def size(self, label: int) -> int:
        return sum(1 for a in self.ants if a.label == label)

    def fresh_label(self) -> int:
        label = self.next_label
        self.next_label += 1
        return label

    def relabel(self, ant: Ant, label: int) -> None:
        ant.label = label


@dataclass(frozen=True)
class AntClustConfig:
    iter_multiplier: int = 75
    init_meetings: int = 30
    min_nest_fraction: float = 0.05
    rng_seed: int = 1

    def __post_init__(self) -> None:
        if self.iter_multiplier < 1:
            raise ValueError("iter_multiplier must be a positive integer")
        if self.init_meetings < 1:
            raise ValueError("init_meetings must be a positive integer")
        if not 0.0 <= self.min_nest_fraction < 1.0:
            raise ValueError("min_nest_fraction must lie in [0, 1)")


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
            label = registry.fresh_label()
            registry.relabel(i, label)
            registry.relabel(j, label)
            return MeetingOutcome.NEW_NEST
        return MeetingOutcome.NO_OP
    if li == 0 or lj == 0:
        if acceptance(i, j, sims):
            orphan, housed = (i, j) if li == 0 else (j, i)
            registry.relabel(orphan, housed.label)
            return MeetingOutcome.ADOPTED
        return MeetingOutcome.NO_OP
    if li == lj:
        return MeetingOutcome.NO_OP
    if acceptance(i, j, sims):
        sizes = registry.sizes
        size_i, size_j = sizes[li], sizes[lj]
        if size_i < size_j:
            mover, target = i, lj
        elif size_j < size_i:
            mover, target = j, li
        else:
            # equal sizes: the higher label yields to the lower
            mover, target = (i, lj) if li > lj else (j, li)
        registry.relabel(mover, target)
        return MeetingOutcome.DEFECTED
    return MeetingOutcome.NO_OP


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
    meeting reads it (and charged to the phase that reads it); a matrix
    from :func:`similarity_matrix` over the same sessions and measure
    gives the same result.  All sessions must share one catalog (:class:`CatalogMismatch`
    otherwise).  Identical inputs and seed produce identical output on
    any platform: the only randomness is a single seeded Mersenne Twister
    stream.
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

    if sims is None:
        pair_sim = similarity.sim  # resolved per run, so a wrapped ``sim`` is seen
        oracle: SimOracle = lambda a, b: pair_sim(sessions[a], sessions[b], measure)
    else:
        oracle = lambda a, b: sims[a][b]

    started = time.perf_counter()
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
    outcomes = Counter()
    if n >= 2:
        for _ in range(config.iter_multiplier * n):
            a = rng.randrange(n)
            b = rng.randrange(n - 1)
            if b >= a:
                b += 1
            outcomes[meet(ants[a], ants[b], registry, oracle)] += 1
    simulate_seconds = time.perf_counter() - started

    started = time.perf_counter()
    threshold = _prune_threshold(config.min_nest_fraction, n)
    doomed = {label for label, count in registry.sizes.items() if count < threshold}
    for ant in ants:
        if ant.label in doomed:
            registry.relabel(ant, 0)
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
            registry.relabel(ant, best.label)
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
        meeting_counts={o.value: outcomes.get(o, 0) for o in MeetingOutcome},
    )
