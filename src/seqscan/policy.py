"""Closed loop's probe selection: the top-M ids of an index ranking
(``PolicyState.top``), except at the exponentially sparse exploration
instants ceil(zeta^l) (``exploration_instants``), which take the next M
ids of a round-robin ``rotation``; a probed id is reranked after each
observation. Open loop keeps no ranking: it walks an order frozen before
any data (``engine._open_loop_lanes``).

Process ids are 1-based throughout this module; the round-robin
arithmetic r = ((cursor + u) mod K) + 1 is taken verbatim from the
selection rule it implements.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Iterator, Sequence


def exploration_instants(zeta: float) -> Iterator[int]:
    """The instants ceil(zeta^l), l = 1, 2, ..., ascending with repeats
    dropped; none for zeta = inf, the sentinel for "never explore"."""
    if not zeta > 1.0:
        raise ValueError(f"zeta must exceed 1, got {zeta}")
    return iter(()) if math.isinf(zeta) else _ceil_powers(zeta)


def _ceil_powers(zeta: float) -> Iterator[int]:
    log_zeta = math.log(zeta)
    exponent, last = 1, 1
    while True:
        try:
            v = math.ceil(zeta**exponent)
        except OverflowError:  # past any time cap: no more instants
            return
        if v > last:
            yield v
            last = v
            exponent += 1
        else:
            # a repeat: zeta^l stays below last until l = log(last) / log(zeta),
            # so jump to just short of that past the repeats a zeta near 1
            # makes. Short by a relative 1e-12, zeta^l stays far more than a
            # rounding error below last, so stepping on from there finds the
            # same first l with ceil(zeta^l) > last as stepping from l = 1
            exponent = max(exponent + 1, int(math.log(last) / log_zeta * (1.0 - 1e-12)) - 1)


@dataclass
class PolicyState:
    """Closed loop's active (undeclared) ids ranked by index, and the last
    round-robin pick; open loop builds none. Only a probed id gets a new
    index, so the ranking is a sorted list that each update changes by one
    key, found by bisection, instead of a scan of every active id. The
    keys (index, -id) are unique and ascend, so the best ids, ties to the
    lowest id, sit at the end, where moving a key shifts few others. The
    cursor starts at K so the first exploration instant selects process 1,
    and the first M-probe rotation selects 1..M.

    A caller that probes several ids per instant may hold their keys
    outside the ranking (``hold``), update them there, and ``settle``
    them into the top M, which touches the ranking only for an id that
    enters or leaves the selection. While keys are held, the ranking
    holds only the other active ids, so ``top``, ``floor_except`` and
    ``rerank`` serve only after the held keys are put back
    (``release``)."""

    k: int
    rr_cursor: int
    _key: dict[int, tuple[float, int]]  # id -> its key; a held id's is updated when it leaves the hold
    _ranking: list[tuple[float, int]]  # the keys of the active ids not held

    @classmethod
    def fresh(cls, indices: Sequence[float]) -> "PolicyState":
        """All K = len(indices) ids active, ranked by their indices."""
        k = len(indices)
        if k < 1:
            raise ValueError(f"need K >= 1, got K={k}")
        for pid, value in enumerate(indices, start=1):
            _check_finite(pid, value)
        key = {pid: (value, -pid) for pid, value in enumerate(indices, start=1)}
        return cls(k=k, rr_cursor=k, _key=key, _ranking=sorted(key.values()))

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
        """Drop an id from the active set and, unless it is held, its key
        from the ranking; an inactive id is ignored."""
        key = self._key.pop(pid, None)
        if key is not None:
            ranking = self._ranking
            i = bisect_left(ranking, key)
            if i < len(ranking) and ranking[i] == key:
                del ranking[i]

    def hold(self, pids: Sequence[int]) -> list[tuple[float, int]]:
        """Lift active ids' keys out of the ranking; returns them in pids'
        order."""
        ranking, held = self._ranking, [self._key[pid] for pid in pids]
        for key in held:
            del ranking[bisect_left(ranking, key)]
        return held

    def release(self, held: list[tuple[float, int]]) -> None:
        """Put held keys, as their holder updated them, back into the
        ranking."""
        for key in held:
            self._key[-key[1]] = key
            insort(self._ranking, key)

    def settle(self, held: list[tuple[float, int]], m: int) -> list[int]:
        """Turn held, the keys of at most m active ids, into those of the
        top min(m, active) ids, as ``top`` would rank the whole set: free
        slots take the best ranked keys, then while the least held key is
        below the best ranked one, the two swap. An entering key is the
        best ranked one, so it never leaves again, nor does a key that left
        come back. Returns the ids that entered."""
        ranking, entered = self._ranking, []
        while len(held) < m and ranking:
            key = ranking.pop()
            held.append(key)
            entered.append(-key[1])
        if ranking:
            # an entering key tops what is left of the ranking, so the
            # least held key is always the next of the keys sorted here
            held.sort()
            for n, low in enumerate(held):
                if not low < ranking[-1]:
                    break
                key = ranking.pop()
                held[n] = key
                entered.append(-key[1])
                self._key[-low[1]] = low
                insort(ranking, low)
        return entered


def _check_finite(pid: int, value: float) -> None:
    # a NaN key would silently break the sorted order under bisect
    if not math.isfinite(value):
        raise ValueError(f"index of process {pid} must be finite, got {value}")


def rotation(state: PolicyState, m: int) -> tuple[int, ...]:
    """The first m active ids among ((cursor + u) mod K) + 1, u = 0..K-1;
    short when fewer than m are active. The cursor does not move."""
    k, active, cursor = state.k, state._key, state.rr_cursor  # the active ids
    picks = []
    for u in range(k):
        pid = (cursor + u) % k + 1
        if pid in active:
            picks.append(pid)
            if len(picks) == m:
                break
    return tuple(picks)
