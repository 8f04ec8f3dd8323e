"""Probe selection: the closed-loop index policy with exponentially
sparse round-robin exploration, and the open-loop priority ordering.

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
    """Instants ceil(zeta^l), duplicates removed, materialized lazily.
    zeta = inf is the documented sentinel for "never explore"."""

    zeta: float
    _next_exponent: int = 1
    _instants: list[int] = field(default_factory=list)
    _members: set[int] = field(default_factory=set)

    def __post_init__(self) -> None:
        if not self.zeta > 1.0:
            raise ValueError(f"zeta must exceed 1, got {self.zeta}")


def exploration_schedule(zeta: float) -> ExplorationSchedule:
    return ExplorationSchedule(zeta=zeta)


def is_exploration_instant(sched: ExplorationSchedule, n: int) -> bool:
    """Membership of n in the exploration subsequence, O(1) amortized."""
    if n < 1:
        raise ValueError(f"time index must be >= 1, got {n}")
    if math.isinf(sched.zeta):
        return False
    while not sched._instants or sched._instants[-1] < n:
        v = math.ceil(sched.zeta**sched._next_exponent)
        sched._next_exponent += 1
        if v not in sched._members:
            sched._members.add(v)
            sched._instants.append(v)
    return n in sched._members


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
        return tuple(-neg_pid for _, neg_pid in self._ranking[-1 : -m - 1 : -1])

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


def _wrapped_successor(prev: int, k: int, eligible, skip=()) -> int | None:
    for u in range(k):
        cand = ((prev + u) % k) + 1
        if cand in eligible and cand not in skip:
            return cand
    return None


def round_robin_next(state: PolicyState, k: int) -> int:
    """Smallest shift from the previous pick's successor that lands on
    an active process; commits the cursor."""
    if not state.active:
        raise ValueError("round-robin needs a nonempty active set")
    pick = _wrapped_successor(state.rr_cursor, k, state.active)
    state.rr_cursor = pick
    return pick


def round_robin_next_multi(state: PolicyState, k: int, m: int) -> tuple[int, ...]:
    """Sequential wrapped successors, skipping declared ids and ids
    already chosen this instant; short when fewer than m are active."""
    chosen: list[int] = []
    prev = state.rr_cursor
    for _ in range(m):
        pick = _wrapped_successor(prev, k, state.active, chosen)
        if pick is None:
            break
        chosen.append(pick)
        prev = pick
    if chosen:
        state.rr_cursor = chosen[-1]
    return tuple(chosen)


def select_cl(state: PolicyState, n: int, sched: ExplorationSchedule) -> tuple[int, ...]:
    """Closed-loop selection for one instant: the top-index processes of
    the ranking, or a round-robin rotation on exploration instants. Ties
    of the index go to the lowest id. Empty active set returns the empty
    tuple (episode complete), never a fault."""
    if not state.active:
        return ()
    m = min(state.m, len(state.active))
    if is_exploration_instant(sched, n):
        return round_robin_next_multi(state, state.k, m)
    return state.top(m)


def ol_order(
    priors: Sequence[float], costs: Sequence[float], expected_sizes: Sequence[float]
) -> tuple[int, ...]:
    """Open-loop probe order: decreasing prior * cost / expected size,
    ties to the lowest id. Execution elsewhere walks this order, probing
    each process to completion."""
    if not len(priors) == len(costs) == len(expected_sizes):
        raise ValueError("priors, costs and expected sizes must align")
    if any(not e > 0 for e in expected_sizes):
        raise ValueError("expected sizes must be positive")
    ratios = [p * c / e for p, c, e in zip(priors, costs, expected_sizes)]
    return tuple(sorted(range(1, len(ratios) + 1), key=lambda pid: (-ratios[pid - 1], pid)))
