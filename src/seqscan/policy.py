"""Probe selection: the top-M ids of an index ranking, with exponentially
sparse round-robin exploration. Closed loop reranks a probed id after
each observation; open loop ranks once by the pre-data priorities and
never explores, so the same selection walks its fixed order.

Process ids are 1-based throughout this module; the round-robin
arithmetic r = ((prev + u) mod K) + 1 is taken verbatim from the
selection rule it implements.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Sequence


@dataclass
class ExplorationSchedule:
    """Instants ceil(zeta^l), duplicates removed, materialized lazily as
    one ascending list. zeta = inf is the documented sentinel for "never
    explore"."""

    zeta: float
    _next_exponent: int = 1
    _instants: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.zeta > 1.0:
            raise ValueError(f"zeta must exceed 1, got {self.zeta}")


def exploration_schedule(zeta: float) -> ExplorationSchedule:
    return ExplorationSchedule(zeta=zeta)


def next_exploration_instant(sched: ExplorationSchedule, n: int) -> int | float:
    """The first exploration instant at or after n, materializing the
    instants up to it; inf for zeta = inf."""
    if n < 1:
        raise ValueError(f"time index must be >= 1, got {n}")
    if math.isinf(sched.zeta):
        return math.inf
    instants = sched._instants
    while not instants or instants[-1] < n:
        v = math.ceil(sched.zeta**sched._next_exponent)
        sched._next_exponent += 1
        # ceil(zeta^l) never decreases, so a repeat can only equal the last
        if not instants or v > instants[-1]:
            instants.append(v)
    return instants[bisect_left(instants, n)]


@dataclass
class PolicyState:
    """Active (undeclared) ids ranked by index, the last round-robin
    pick, and the probe budget. Only a probed id gets a new index, so the
    ranking is a sorted list that each update changes by one key, found
    by bisection, instead of a scan of every active id. The keys
    (index, -id) are unique and ascend, so the best ids, ties to the
    lowest id, sit at the end, where moving a key shifts few others. The
    cursor starts at K so the first exploration instant selects process
    1, and the first M-probe rotation selects 1..M."""

    k: int
    rr_cursor: int
    m: int
    _key: dict[int, tuple[float, int]]  # id -> its key in the ranking
    _ranking: list[tuple[float, int]]

    @classmethod
    def fresh(cls, indices: Sequence[float], m: int = 1) -> "PolicyState":
        """All K = len(indices) ids active, ranked by their indices."""
        k = len(indices)
        if k < 1 or m < 1:
            raise ValueError(f"need K >= 1 and M >= 1, got K={k}, M={m}")
        for pid, value in enumerate(indices, start=1):
            _check_finite(pid, value)
        key = {pid: (value, -pid) for pid, value in enumerate(indices, start=1)}
        return cls(k=k, rr_cursor=k, m=m, _key=key, _ranking=sorted(key.values()))

    @property
    def active(self):
        """The active ids, as a set-like view."""
        return self._key.keys()

    def top(self, m: int) -> tuple[int, ...]:
        """The m active ids of largest index, ties to the lowest id."""
        return tuple([-neg_pid for _, neg_pid in self._ranking[-1 : -m - 1 : -1]])

    def floor_except(self, pid: int) -> float:
        """The index below which pid's key (index, -pid) falls under the
        largest key of another active id: that key's index, or the next
        float up when pid, the larger id, loses the tie; -inf if none."""
        for value, neg_pid in self._ranking[-1:-3:-1]:
            if neg_pid != -pid:
                return math.nextafter(value, math.inf) if -pid < neg_pid else value
        return -math.inf

    def rerank(self, pid: int, value: float) -> None:
        """Give an active id a new index and move its key."""
        _check_finite(pid, value)
        old = self._key.get(pid)
        if old is None:
            raise ValueError(f"process {pid} is not active")
        ranking = self._ranking
        del ranking[bisect_left(ranking, old)]
        key = (value, -pid)
        self._key[pid] = key
        insort(ranking, key)

    def declare(self, pid: int) -> None:
        """Drop an id from the active set and the ranking, if present."""
        key = self._key.pop(pid, None)
        if key is not None:
            del self._ranking[bisect_left(self._ranking, key)]


def _check_finite(pid: int, value: float) -> None:
    # a NaN key would silently break the sorted order under bisect
    if not math.isfinite(value):
        raise ValueError(f"index of process {pid} must be finite, got {value}")


def round_robin_pick(state: PolicyState, prev: int | None = None, skip=()) -> int | None:
    """The first active id not in skip among ((prev + u) mod K) + 1,
    u = 0..K-1, with prev the cursor by default; None if there is none.
    The cursor does not move."""
    k, active = state.k, state._key  # the active ids
    prev = state.rr_cursor if prev is None else prev
    for u in range(k):
        cand = ((prev + u) % k) + 1
        if cand in active and cand not in skip:
            return cand
    return None


def round_robin_next_multi(state: PolicyState, k: int, m: int) -> tuple[int, ...]:
    """Sequential round-robin picks over the state's k ids, skipping ids
    already chosen this instant; short when fewer than m are active."""
    chosen: list[int] = []
    for _ in range(m):
        pick = round_robin_pick(state, chosen[-1] if chosen else None, chosen)
        if pick is None:
            break
        chosen.append(pick)
    if chosen:
        state.rr_cursor = chosen[-1]
    return tuple(chosen)


def select_cl(state: PolicyState, n: int, sched: ExplorationSchedule) -> tuple[int, ...]:
    """Selection for one instant: the top-index processes of the ranking,
    or a round-robin rotation on exploration instants. Ties of the index
    go to the lowest id. Empty active set returns the empty tuple
    (episode complete), never a fault; both picks come out short when
    fewer than M ids are active."""
    if next_exploration_instant(sched, n) == n:
        return round_robin_next_multi(state, state.k, state.m)
    return state.top(state.m)
