"""Closed loop's probe selection: the M ids of largest index, which the
selected ids' keys settle into (``PolicyState.settle``), except at the
exponentially sparse exploration instants ceil(zeta^l)
(``exploration_instants``), which take the next M ids of a round-robin
``rotation`` (``PolicyState.rotate``); a selected id's key is updated
where it is held. Open loop keeps no ranking: it walks an order frozen
before any data (``engine._open_loop_lanes``).

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
    """Closed loop's active (undeclared) ids, their keys (index, -id), and
    the last round-robin pick; open loop builds none. The caller holds the
    selected ids' keys in a list of its own (``held``) and updates them
    there; the ranking is a sorted list of the other active ids' keys. The
    keys are unique and ascend, so the best ids, ties to the lowest id, sit
    at the end, and ``settle`` and ``rotate`` touch the ranking only for an
    id that enters or leaves the selection, by bisection, instead of
    ranking every active id. A declared id is a held one, so its key is in
    no ranking. The cursor starts at K so the first exploration instant
    selects process 1, and the first M-probe rotation selects 1..M."""

    k: int
    rr_cursor: int
    _key: dict[int, tuple[float, int]]  # id -> its key; a held id's is updated when it leaves the hold
    _ranking: list[tuple[float, int]]  # the keys of the active ids not held

    @classmethod
    def fresh(cls, indices: Sequence[float]) -> "PolicyState":
        """All K = len(indices) ids active, ranked by their indices, none
        held. The indices are finite: every spec's table bounds them."""
        k = len(indices)
        if k < 1:
            raise ValueError(f"need K >= 1, got K={k}")
        key = {pid: (value, -pid) for pid, value in enumerate(indices, start=1)}
        return cls(k=k, rr_cursor=k, _key=key, _ranking=sorted(key.values()))

    @property
    def active(self):
        """The active ids, as a set-like view."""
        return self._key.keys()

    def floor(self, pid: int) -> float:
        """The index below which held pid's key (index, -pid) falls under
        the best ranked key: that key's index, or the next float up when
        pid, the larger id, loses the tie; -inf for an empty ranking."""
        if not self._ranking:
            return -math.inf
        value, neg_pid = self._ranking[-1]
        return math.nextafter(value, math.inf) if -pid < neg_pid else value

    def declare(self, pid: int) -> None:
        """Drop a held id from the active set."""
        del self._key[pid]

    def settle(self, held: list[tuple[float, int]], m: int) -> list[int]:
        """Turn held, the keys of at most m active ids, into those of the
        min(m, active) ids of largest key: free slots take the best ranked
        keys, then while the least held key is below the best ranked one,
        the two swap. An entering key is the best ranked one, so it never
        leaves again, nor does a key that left come back. Returns the ids
        that entered."""
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

    def rotate(self, held: list[tuple[float, int]], m: int) -> list[int]:
        """Turn held into the keys of the ``rotation``'s m picks, in its
        order, and move the cursor to the last pick, with some id active: a
        held key that is not picked goes back into the ranking, as its
        holder updated it, and a pick that was not held leaves it. Returns
        the ids that entered, as ``settle`` does."""
        picks = rotation(self, m)
        self.rr_cursor = picks[-1]
        ranking, keys = self._ranking, self._key
        if m == 1:  # the hot case, a lone probe: its key, if any, swaps with the pick's
            (pid,) = picks
            if held:
                (key,) = held
                if key[1] == -pid:
                    return []
                keys[-key[1]] = key
                insort(ranking, key)
            held[:] = [keys[pid]]
            del ranking[bisect_left(ranking, held[0])]
            return [pid]
        entered, picked = [], []
        for key in held:
            keys[-key[1]] = key
            if -key[1] not in picks:
                insort(ranking, key)
        for pid in picks:
            key = keys[pid]
            if key not in held:
                entered.append(pid)
                del ranking[bisect_left(ranking, key)]
            picked.append(key)
        held[:] = picked
        return entered


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
