"""Synthetic access-log generator with planted ground truth.

The model is six numbers (:class:`TrafficModel`): ``profiles`` behavioural
profiles, each owning its own block of ``pages_per_profile`` consecutive
pages on a ``site_pages``-page site, a random seed, the share of asset
requests and the session timeout.  Every profile has a fixed population of
users.  The construction guarantees two properties the evaluation leans on:

* inter-session gaps strictly exceed the session timeout while
  intra-session gaps stay strictly below it, so sessionizing the output
  with that timeout recovers exactly the planted session boundaries;
* profiles are disjoint by construction, so sessions from different
  profiles share no pages at all and planted cluster structure is
  unambiguous.

The number of sessions planned for a given transaction volume follows a
piecewise-linear calibration curve anchored at typical university-scale
web-server workloads (about 129 sessions per 5,000 requests, growing to
about 917 per 50,000).  Between anchors the curve interpolates linearly
and outside them it extrapolates with the nearest segment's slope.
"""

from __future__ import annotations

import json
import random
from typing import Iterator, NamedTuple

from .logs import LAST_EPOCH, render_clf_timestamp

# (transactions, planned sessions) calibration anchors
SESSION_PLAN_ANCHORS: tuple[tuple[int, int], ...] = (
    (5000, 129),
    (10000, 231),
    (20000, 396),
    (30000, 582),
    (40000, 761),
    (50000, 917),
)

BASE_EPOCH = 1704067200  # 2024-01-01 00:00:00 UTC

ASSET_PATHS = (
    "/static/site.css",
    "/static/app.js",
    "/img/logo.png",
    "/img/banner.jpg",
    "/img/spacer.gif",
    "/favicon.ico",
)

USERS_PER_PROFILE = 20
# profile p's users are hosts 10.{p % 256}.{p // 256}.1 and up
MAX_PROFILES = 256 * 256
LENGTH_SIGMA = 0.5  # lognormal spread of session lengths
DWELL_RANGE = (2, 120)  # seconds between two page views of one session


class InfeasibleModel(Exception):
    """The requested profile layout cannot be built."""


def _anchor_segment(value: int, axis: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The pair of calibration anchors whose ``axis`` coordinate (0 for
    transactions, 1 for sessions) encloses ``value``; outside the anchors,
    the first or the last pair."""
    anchors = SESSION_PLAN_ANCHORS
    if value <= anchors[0][axis]:
        return anchors[0], anchors[1]
    if value >= anchors[-1][axis]:
        return anchors[-2], anchors[-1]
    return next(
        (a, b) for a, b in zip(anchors, anchors[1:]) if a[axis] <= value <= b[axis]
    )


def planned_sessions(target_transactions: int) -> int:
    """Sessions the calibration curve plans for a transaction volume."""
    if target_transactions < 1:
        raise ValueError("target_transactions must be positive")
    lo, hi = _anchor_segment(target_transactions, 0)
    slope = (hi[1] - lo[1]) / (hi[0] - lo[0])
    return max(1, round(lo[1] + slope * (target_transactions - lo[0])))


def transactions_for_sessions(session_count: int) -> int:
    """Smallest transaction volume whose plan is exactly ``session_count``."""
    if session_count < 1:
        raise ValueError("session_count must be positive")
    lo, hi = _anchor_segment(session_count, 1)
    slope = (hi[1] - lo[1]) / (hi[0] - lo[0])
    guess = round(lo[0] + (session_count - lo[1]) / slope)
    span = int(1 / slope) + 2
    for candidate in range(max(1, guess - span), guess + span + 1):
        if planned_sessions(candidate) == session_count:
            return candidate
    raise ValueError(f"no transaction volume plans exactly {session_count} sessions")


class _TrafficFields(NamedTuple):
    profiles: int = 10
    pages_per_profile: int = 5
    site_pages: int = 50
    seed: int = 1
    asset_ratio: float = 0.0
    session_timeout: int = 1800


class TrafficModel(_TrafficFields):
    """Profile ``p`` owns pages ``p * pages_per_profile`` up to, not
    including, ``(p + 1) * pages_per_profile``.  Every check is arithmetic
    on the six numbers, so a model is accepted or rejected when it is built
    (by ``_replace`` too), before anything proportional to its size is
    built; a count or seed that is not an ``int`` (a ``bool`` is not) raises
    :class:`ValueError` naming its field."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> TrafficModel:
        self = super().__new__(cls, *args, **kwargs)
        for name in ("profiles", "pages_per_profile", "site_pages", "seed", "session_timeout"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.profiles < 1:
            raise ValueError("a traffic model needs at least one profile")
        if self.seed < 0:  # random.Random seeds with abs(), so -3 would replay 3
            raise ValueError("seed must be a non-negative integer")
        if not 0.0 <= self.asset_ratio < 1.0:
            raise ValueError("asset_ratio must lie in [0, 1)")
        if self.pages_per_profile < 1:
            raise InfeasibleModel("a profile with no pages cannot emit sessions")
        if self.profiles * self.pages_per_profile > self.site_pages:
            raise InfeasibleModel(
                "profile pages exceed the site page count: "
                f"{self.profiles} profiles x {self.pages_per_profile} pages "
                f"on a {self.site_pages}-page site"
            )
        if self.profiles > MAX_PROFILES:
            raise ValueError(
                f"at most {MAX_PROFILES} profiles have distinct host addresses, "
                f"got {self.profiles}"
            )
        if DWELL_RANGE[1] >= self.session_timeout:
            raise ValueError("intra-session gaps must stay below the timeout")
        return self

    @classmethod
    def _make(cls, iterable) -> TrafficModel:
        return cls(*iterable)  # so that ``_replace`` runs the checks too

    @property
    def inter_session_gap(self) -> tuple[int, int]:
        """Bounds of the gap between two sessions of one user: above the
        timeout, and 1,801-10,800 s for any timeout up to 30 minutes."""
        floor = max(self.session_timeout, 1800)
        return floor + 1, floor + 9000


def page_path(page: int) -> str:
    return f"/site/page{page:02d}.html"


class GroundTruth(NamedTuple):
    """What the generator planted, keyed by output line number."""

    session_count: int
    record_sessions: list[int]
    record_kinds: list[str]  # "page" | "asset"
    session_profiles: list[int]
    session_keys: list[tuple[str, int]]  # (client ip, session start epoch)
    page_paths: list[str]

    @property
    def transactions(self) -> int:
        return len(self.record_sessions)

    def to_json(self) -> str:
        return json.dumps(self._asdict(), sort_keys=True, separators=(",", ":")) + "\n"


def _spread_lengths(rng: random.Random, n_sessions: int, total: int) -> list[int]:
    """Per-session visit counts with a lognormal spread, summing to total."""
    weights = [rng.lognormvariate(0.0, LENGTH_SIGMA) for _ in range(n_sessions)]
    scale = total / sum(weights)
    lengths = [max(1, round(w * scale)) for w in weights]
    drift = total - sum(lengths)
    i = 0
    while drift != 0:
        idx = i % len(lengths)
        if drift > 0:
            lengths[idx] += 1
            drift -= 1
        elif lengths[idx] > 1:
            lengths[idx] -= 1
            drift += 1
        i += 1
    return lengths


def generate(
    model: TrafficModel, target_transactions: int
) -> tuple[Iterator[str], GroundTruth]:
    """Plan ``target_transactions`` CLF lines and their ground truth.

    The rows are built as columns and ordered here; the lines, each ending
    in ``"\\n"``, are rendered only as the returned iterator is consumed.
    Output is globally time-sorted and byte-identical for identical
    (model, target) inputs.  A model whose last request would fall after
    :data:`LAST_EPOCH` raises ``ValueError`` before any line exists.
    """
    if target_transactions < 1:
        raise ValueError("target_transactions must be positive")
    rng = random.Random(model.seed)
    # randrange(n) and randint(a, b) end in a + _randbelow(width), and
    # _randbelow(n) is r = getrandbits(n.bit_length()), redrawn while r >= n:
    # the draws once per user or session go through it, the draws once per
    # line are inlined with their bit counts worked out once
    below, getrandbits = rng._randbelow, rng.getrandbits

    asset_total = round(target_transactions * model.asset_ratio)
    page_total = target_transactions - asset_total
    if page_total < 1:
        raise ValueError("asset_ratio leaves no page transactions")
    n_sessions = min(planned_sessions(target_transactions), page_total)

    session_profiles = [s % model.profiles for s in range(n_sessions)]
    session_users = [below(USERS_PER_PROFILE) for _ in range(n_sessions)]
    lengths = _spread_lengths(rng, n_sessions, page_total)
    gap_low, gap_high = model.inter_session_gap
    gap_width = gap_high - gap_low + 1
    dwell_low, dwell_width = DWELL_RANGE[0], DWELL_RANGE[1] - DWELL_RANGE[0] + 1
    dwell_bits = dwell_width.bit_length()
    per_profile = model.pages_per_profile
    page_bits = per_profile.bit_length()
    # a line's byte count is drawn from [256, 9999] and kept as its text
    page_sizes = [str(v) for v in range(256, 10000)]
    page_size_count = len(page_sizes)
    page_size_bits = page_size_count.bit_length()

    by_user: dict[tuple[int, int], list[int]] = {}
    for s in range(n_sessions):
        by_user.setdefault((session_profiles[s], session_users[s]), []).append(s)

    # one entry per row, page rows in emission order, then asset rows
    epochs: list[int] = []
    ips: list[str] = []
    paths: list[str] = []
    sizes: list[str] = []
    sessions: list[int] = []
    add_epoch, add_path, add_size = epochs.append, paths.append, sizes.append
    session_keys: list[tuple[str, int]] = [("", 0)] * n_sessions  # all set in the loop
    last_profile = None
    for (profile_idx, user_idx) in sorted(by_user):
        if profile_idx != last_profile:
            first_page, last_profile = profile_idx * per_profile, profile_idx
            profile_paths = [page_path(first_page + j) for j in range(per_profile)]
        ip = f"10.{profile_idx % 256}.{profile_idx // 256}.{user_idx + 1}"
        clock = BASE_EPOCH + below(30 * 86400)
        for s in by_user[(profile_idx, user_idx)]:
            session_keys[s] = (ip, clock)
            ips += [ip] * lengths[s]
            sessions += [s] * lengths[s]
            for later in reversed(range(lengths[s])):  # visits still to come
                page = getrandbits(page_bits)
                while page >= per_profile:
                    page = getrandbits(page_bits)
                size = getrandbits(page_size_bits)
                while size >= page_size_count:
                    size = getrandbits(page_size_bits)
                add_epoch(clock)
                add_path(profile_paths[page])
                add_size(page_sizes[size])
                if later:
                    dwell = getrandbits(dwell_bits)
                    while dwell >= dwell_width:
                        dwell = getrandbits(dwell_bits)
                    clock += dwell_low + dwell
            clock += gap_low + below(gap_width)
    visited = sorted(set(paths))  # of the page rows, before the assets join

    # an asset repeats the time, host and session of a page row drawn from
    # all of them, with a path and a byte count in [128, 4096] of its own
    asset_sizes = [str(v) for v in range(128, 4097)]
    asset_path_count, asset_size_count = len(ASSET_PATHS), len(asset_sizes)
    parent_bits, path_bits = page_total.bit_length(), asset_path_count.bit_length()
    asset_size_bits = asset_size_count.bit_length()
    for _ in range(asset_total):
        parent = getrandbits(parent_bits)
        while parent >= page_total:
            parent = getrandbits(parent_bits)
        path = getrandbits(path_bits)
        while path >= asset_path_count:
            path = getrandbits(path_bits)
        size = getrandbits(asset_size_bits)
        while size >= asset_size_count:
            size = getrandbits(asset_size_bits)
        add_epoch(epochs[parent])
        ips.append(ips[parent])
        add_path(ASSET_PATHS[path])
        add_size(asset_sizes[size])
        sessions.append(sessions[parent])

    # stable, so rows of one second keep their emission order
    order = sorted(range(target_transactions), key=epochs.__getitem__)
    if epochs[order[-1]] > LAST_EPOCH:
        raise ValueError(
            f"a timeout of {model.session_timeout} s over {target_transactions} "
            "transactions puts the last request past 31 Dec 9999"
        )
    truth = GroundTruth(
        session_count=n_sessions,
        record_sessions=[sessions[i] for i in order],
        record_kinds=["page" if i < page_total else "asset" for i in order],
        session_profiles=session_profiles,
        session_keys=session_keys,
        page_paths=visited,
    )
    return _render(order, epochs, ips, paths, sizes), truth


def _render(
    order: list[int], epochs: list[int], ips: list[str], paths: list[str], sizes: list[str]
) -> Iterator[str]:
    """The CLF line of each row in ``order``; a stamp is rendered once per
    minute, and its seconds come from a table."""
    dates: dict[int, str] = {}
    seconds = [f":{s:02d} +0000" for s in range(60)]
    last_minute = None
    for i in order:
        minute, second = divmod(epochs[i], 60)
        if minute != last_minute:
            # "dd/Mon/yyyy:hh:mm" of the minute's stamp, cut before ":ss +0000"
            head, last_minute = render_clf_timestamp(minute * 60, dates)[:-9], minute
        yield f'{ips[i]} - - [{head}{seconds[second]}] "GET {paths[i]} HTTP/1.1" 200 {sizes[i]}\n'
