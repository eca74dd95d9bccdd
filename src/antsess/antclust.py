"""Artificial-ant clustering of sessions by nest-membership recognition.

Every session is one ant, and an ant is its session's index: its nest
label (0 = no nest yet) is the code point at that index of the
:class:`Colony`'s label string, and its learned acceptance threshold sits
at that index of the template list.  Clustering emerges from a long
sequence of random pairwise meetings:

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

Every similarity is read from one oracle, by default a
:class:`similarity.SimilarityOracle` over the sessions.  A meeting between
two sessions whose oracle keys are disjoint (they share no page, see
:func:`similarity.sharing_keys`) has similarity 0, which no template
accepts, so it is tallied as a no-op without calling :func:`meet`.

Note the simulation deliberately surveys nest sizes by recounting the
population, so an accepted meeting between two nests costs O(N) and the
meeting phase O(N^2) overall; see the complexity checks in the test suite.
The recount is two ``str.count`` calls over the label string, and a label
write rebuilds that string, also O(N).  A label is one code point, so a
run takes at most :data:`MAX_SESSIONS` sessions (:class:`TooManySessions`).
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

from .sessions import Session
from .similarity import DEFAULT_MEASURE, CatalogMismatch, SimilarityMeasure, SimilarityOracle
from .similarity import similarity_matrix  # noqa: F401  perfbench/trace_child.py wraps this name

SimOracle = Callable[[int, int], float]


class NoMeetings(Exception):
    """Template learning was given nobody to meet."""


class EmptyInput(Exception):
    """Clustering needs at least one session."""


class TooManySessions(Exception):
    """More sessions than nest labels can tell apart (:data:`MAX_SESSIONS`)."""


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

# a label is one code point of :attr:`Colony.codes`.  Only a new nest takes a
# fresh label, and it labels two unlabelled ants, so N sessions need at most
# N // 2 labels
MAX_LABEL = 0x10FFFF
MAX_SESSIONS = 2 * MAX_LABEL


class Colony:
    """Every ant's nest label and template, both indexed by session.

    ``codes`` is the only home of a label: ``codes[i]`` is ``chr`` of ant
    ``i``'s label, so a label lies in [0, :data:`MAX_LABEL`].  Nest sizes are
    surveyed from it with ``str.count``, never cached: that survey makes the
    meeting phase quadratic.  ``labels`` is a list read from ``codes``;
    labels change only through :meth:`set_label`."""

    def __init__(self, labels: Sequence[int], templates: Sequence[float]):
        try:
            self.codes = "".join(map(chr, labels))
        except (ValueError, OverflowError):
            raise ValueError(f"nest labels must lie in [0, {MAX_LABEL:#x}]") from None
        self.templates = list(templates)
        self.next_label = ord(max(self.codes, default="\0")) + 1

    @property
    def labels(self) -> list[int]:
        return list(map(ord, self.codes))

    @property
    def sizes(self) -> dict[int, int]:
        counts = Counter(self.codes)
        counts.pop("\0", None)
        return {ord(code): count for code, count in counts.items()}

    def pair_sizes(self, a: int, b: int) -> tuple[int, int]:
        """Sizes of nests ``a`` and ``b``, from one survey of the population."""
        codes = self.codes
        return codes.count(chr(a)), codes.count(chr(b))

    def set_label(self, i: int, label: int) -> None:
        """Move ant ``i`` to nest ``label``: one O(N) copy of ``codes``."""
        codes = self.codes
        self.codes = codes[:i] + chr(label) + codes[i + 1:]

    def fresh_label(self) -> int:
        label = self.next_label
        if label > MAX_LABEL:
            raise ValueError(f"nest labels must lie in [0, {MAX_LABEL:#x}]: none is left")
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
        # random.Random seeds with the absolute value, so -3 would replay 3
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be a non-negative integer, got {self.rng_seed}")


DEFAULT_CONFIG = AntClustConfig()


def learn_template(colony: Colony, i: int, partners: Sequence[int], sims: SimOracle) -> float:
    """Set ant ``i``'s acceptance threshold from its sampled meetings."""
    if not partners:
        raise NoMeetings(f"ant {i} met nobody while learning its template")
    observed = [sims(i, p) for p in partners]
    template = colony.templates[i] = (sum(observed) / len(observed) + max(observed)) / 2
    return template


def acceptance(colony: Colony, i: int, j: int, sims: SimOracle) -> bool:
    """Mutual recognition: similarity strictly above both thresholds."""
    value, templates = sims(i, j), colony.templates
    return value > templates[i] and value > templates[j]


def meet(colony: Colony, i: int, j: int, sims: SimOracle) -> MeetingOutcome:
    """Apply the single behavioural rule this pair of ants triggers."""
    if i == j:
        raise ValueError("an ant cannot meet itself")
    codes = colony.codes
    li, lj = ord(codes[i]), ord(codes[j])
    if li == 0 and lj == 0:
        if acceptance(colony, i, j, sims):
            label = colony.fresh_label()
            colony.set_label(i, label)
            colony.set_label(j, label)
            return _NEW_NEST
        return _NO_OP
    if li == 0 or lj == 0:
        if acceptance(colony, i, j, sims):
            if li:
                colony.set_label(j, li)
            else:
                colony.set_label(i, lj)
            return _ADOPTED
        return _NO_OP
    if li == lj:
        return _NO_OP
    if acceptance(colony, i, j, sims):
        size_i, size_j = colony.pair_sizes(li, lj)
        # the smaller nest loses its ant; at equal sizes the higher label yields
        if size_i < size_j or (size_i == size_j and li > lj):
            colony.set_label(i, lj)
        else:
            colony.set_label(j, li)
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


def _sample(getrandbits: Callable[[int], int], n: int, k: int) -> list[int]:
    """``random.Random.sample(range(n), k)`` with the same values and the
    same draws from ``getrandbits``: it repeats the steps of that method and
    of ``Random._randbelow_with_getrandbits``, which Python 3.10 to 3.13 share."""
    setsize = 21  # sample's switch from a shrinking pool to a set of picks
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    if n <= setsize:
        pool, picks = list(range(n)), []
        for m in range(n, n - k, -1):
            bits = m.bit_length()
            j = getrandbits(bits)
            while j >= m:
                j = getrandbits(bits)
            picks.append(pool[j])
            pool[j] = pool[m - 1]
        return picks
    bits, drawn = n.bit_length(), {}  # keeps draw order; a repeat adds nothing
    while len(drawn) < k:
        # each draw adds at most one pick, so no pass overshoots k
        for _ in range(k - len(drawn)):
            j = getrandbits(bits)
            if j < n:
                drawn[j] = None
    return list(drawn)


def run(
    sessions: Sequence[Session],
    measure: SimilarityMeasure = DEFAULT_MEASURE,
    config: AntClustConfig = DEFAULT_CONFIG,
    *,
    oracle: SimilarityOracle | None = None,
) -> ClusterAssignment:
    """Cluster sessions end to end.

    Similarities are read from ``oracle``, any object with ``sessions``,
    ``measure``, ``keys`` and ``pair`` built over these very sessions and
    ``measure`` (a :class:`SimilarityOracle` is built when it is ``None``).
    ``pair(a, b)`` gives the similarity of sessions ``a`` and ``b``; a
    meeting of two sessions whose ``keys`` are disjoint is a no-op without
    reading it.  A :class:`SimilarityOracle` computes a pair when a phase
    first reads it (charged to that phase), at most once however many runs
    share the oracle.  All sessions must share one
    catalog (:class:`CatalogMismatch` otherwise), and there must be at most
    :data:`MAX_SESSIONS` of them (:class:`TooManySessions`, raised before
    any work).  Identical inputs and seed produce identical output on any
    platform: the only randomness is a single seeded Mersenne Twister
    stream.
    """
    n = len(sessions)
    if n == 0:
        raise EmptyInput("no sessions to cluster")
    if n > MAX_SESSIONS:
        raise TooManySessions(
            f"{n} sessions exceed the {MAX_SESSIONS} that nest labels can tell apart"
        )
    catalog_size = sessions[0].catalog_size
    for session in sessions:
        if session.catalog_size != catalog_size:
            raise CatalogMismatch(
                f"catalog sizes differ: {catalog_size} vs {session.catalog_size}"
            )
    if oracle is not None and (oracle.sessions is not sessions or oracle.measure != measure):
        raise ValueError("oracle must be built over these sessions and measure")
    rng = random.Random(config.rng_seed)

    started = time.perf_counter()
    if oracle is None:
        oracle = SimilarityOracle(sessions, measure)
    keys, pair = oracle.keys, oracle.pair
    colony = Colony([0] * n, [0.0] * n)
    getrandbits = rng.getrandbits
    if n >= 2:  # a lone ant accepts nobody and keeps a template of 0
        sample_size = min(n - 1, config.init_meetings)
        for i in range(n):
            picks = _sample(getrandbits, n - 1, sample_size)
            learn_template(colony, i, [p + (p >= i) for p in picks], pair)
    init_seconds = time.perf_counter() - started

    started = time.perf_counter()
    tally = [0] * len(_OUTCOMES)
    disjoint = 0
    if n >= 2:
        # a = rng.randrange(n), b = rng.randrange(n - 1), drawn inline the way
        # Random._randbelow_with_getrandbits draws them, so the stream is the same
        tally_index = _OUTCOMES.index
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
            tally[tally_index(meet(colony, a, b, pair))] += 1
    tally[_OUTCOMES.index(_NO_OP)] += disjoint
    simulate_seconds = time.perf_counter() - started

    started = time.perf_counter()
    threshold = _prune_threshold(config.min_nest_fraction, n)
    doomed = {label for label, count in colony.sizes.items() if count < threshold}
    labels = [0 if label in doomed else label for label in colony.labels]
    labelled = [i for i, label in enumerate(labels) if label]
    if not labelled:
        final = [1] * n
    else:
        for i, label in enumerate(labels):
            if label:
                continue
            best_sim, best = -1.0, 0
            for candidate in labelled:  # index order; first max wins ties
                value = pair(i, candidate)
                if value > best_sim:
                    best_sim, best = value, candidate
            labels[i] = labels[best]
        dense: dict[int, int] = {}
        final = [dense.setdefault(label, len(dense) + 1) for label in labels]
    assign_seconds = time.perf_counter() - started

    return ClusterAssignment(
        labels=final,
        phase_seconds={"init": init_seconds, "simulate": simulate_seconds,
                       "assign": assign_seconds},
        meeting_counts={o.value: count for o, count in zip(_OUTCOMES, tally)},
    )
