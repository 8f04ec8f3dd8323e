"""Episode execution: truth sampling, probing under a policy, cost
accrual, switching delays, and the analysis-side lower bound.

Time is discrete. Each probe block consumes the entering switching
delays plus one sampling unit; every sampling unit offers M probe
slots, so over an episode the probe counts, delay units and idle slots
add up to exactly M times the final clock. An episode is its paths
(``EpisodePaths``): its seed fixes one path per process, which owns the
process's observations, drawn from its own substream in chunks, and its
test: its statistic after each observation, its verdict and its samples
to declaration, whatever the policy. A policy only chooses which paths
to read and when; every policy run on the paths reads them from its own
step positions, so paired comparisons see the same data, a path is
folded once, and replays stay bit-identical. The two policy kinds run
in loops of their own. Open loop's selection changes only at a
declaration, so an open-loop run at every M runs as M lanes, each
probed id scanned to its declaration in one call. Closed loop takes its
instants that probe several ids one pass each, reading one step per
probed id in the selection's order; a probed id's key is held outside
the ranking of the other active ids, so only a swap or a fill, an id
entering or leaving the selection, touches the ranking. Each such read
looks up the index its path stores per step (a grid path's numbers); a
model pair indexes every folded step short of the declaration once a
read reaches past them, so a second policy reading the same steps
computes none. Only a probed process's index moves, so closed loop's
lone probe (at M = 1, or the last active id) keeps its selection until
an event (a declaration, an exploration instant that picks another id,
the probed index falling below the best other one) and runs there in
one call, a scan of the stored steps, with the same result as one
decision per observation. A traced run takes the same loops, which log
their blocks, and its trace is rebuilt from the log and the paths after
the episode (``_trace``).
An episode's K + 1 generators are seeded as numpy's SeedSequence would
seed them, from one hash of the words their seeds share.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property
from heapq import heappop, heappush
from itertools import accumulate
from operator import add
from typing import Sequence

import numpy as np

from seqscan.belief import _sigmoid, expected_detection_time, index, posterior, prior_log_odds
from seqscan.composite import (
    CompositeBoundaries,
    ParameterGrid,
    StatisticKind,
    _log_ratio,
    composite_boundaries,
    size_terms,
)
from seqscan.models import Gaussian, ObservationModel, _category, finite_kl, log_density, sample_many
from seqscan.policy import PolicyState, _check_finite, exploration_instants, rotation
from seqscan.sprt import SprtBoundaries, Verdict, expected_sample_sizes, update_llr, wald_boundaries

TIME_CAP = 10_000_000
_CONTINUE = Verdict.CONTINUE  # bound once: reading a member off the Enum class is slow in the hot loops


class SimulationError(RuntimeError):
    """Episode exceeded the hard time cap; almost always a degenerate
    config (regions that cannot be told apart) rather than bad luck."""


class PolicyKind(Enum):
    CL = "CL"
    OL = "OL"


@dataclass(frozen=True)
class PolicyConfig:
    kind: PolicyKind = PolicyKind.CL
    m: int = 1
    zeta: float = 1.7  # inf disables exploration

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"probe budget must be >= 1, got {self.m}")
        if not self.zeta > 1.0:
            raise ValueError(f"zeta must exceed 1, got {self.zeta}")


@dataclass(frozen=True)
class ProcessSpec:
    """One monitored process: prior, cost rate, error budgets, switch
    delay, and either a fully known model pair or a parameter grid."""

    prior: float
    cost_rate: float
    alpha: float
    beta: float
    model_h0: ObservationModel | None = None
    model_h1: ObservationModel | None = None
    grid: ParameterGrid | None = None
    h0_weights: tuple[float, ...] | None = None  # truth draw over Theta0 points
    h1_weights: tuple[float, ...] | None = None  # truth draw over Theta1 points
    switch_delay: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.prior <= 1.0:
            raise ValueError(f"prior must be a probability, got {self.prior}")
        if not (math.isfinite(self.cost_rate) and self.cost_rate >= 0):
            raise ValueError(f"cost rate must be finite and nonnegative, got {self.cost_rate}")
        if not (0 < self.alpha < 1 and 0 < self.beta < 1 and self.alpha + self.beta < 1):
            raise ValueError(f"need alpha, beta in (0,1) with alpha+beta < 1, got ({self.alpha}, {self.beta})")
        if not 0 <= self.switch_delay < TIME_CAP:  # entering would overrun the time cap
            raise ValueError(f"switch delay must be in [0, TIME_CAP = {TIME_CAP}), got {self.switch_delay}")
        simple = self.model_h0 is not None and self.model_h1 is not None
        if simple == (self.grid is not None):
            raise ValueError("give either both named models or a parameter grid, not both")
        for w, region in ((self.h0_weights, "h0"), (self.h1_weights, "h1")):
            if w is not None:
                if self.grid is None:
                    raise ValueError("truth weights only make sense with a grid")
                points = len(self.grid.theta0 if region == "h0" else self.grid.theta1)
                if len(w) != points:
                    raise ValueError(f"{region}_weights needs one weight per point ({points}), got {len(w)}")
                if not (all(math.isfinite(x) and x >= 0 for x in w) and abs(sum(w) - 1.0) <= 1e-9):
                    raise ValueError(f"{region}_weights must be finite, nonnegative and sum to 1, got {w}")

    @property
    def is_composite(self) -> bool:
        return self.grid is not None

    def truth_points(self, abnormal: bool) -> tuple[tuple[int, float], ...]:
        """A grid spec's (point index, weight) pairs for drawing the truth
        in Theta1 (abnormal) or Theta0; without weights, uniform."""
        idxs = self.grid.theta1 if abnormal else self.grid.theta0
        weights = (self.h1_weights if abnormal else self.h0_weights) or tuple(
            1.0 / len(idxs) for _ in idxs
        )
        return tuple(zip(idxs, weights))

    @cached_property
    def table(self) -> _PairTable | _GridTable:
        """The spec's fixed numbers, built on first use and kept for the
        spec's lifetime, so every episode of a batch shares them."""
        if self.is_composite:
            bounds = composite_boundaries(self.alpha, self.beta)
            terms = size_terms(self.grid, bounds)
            e_n_h0, e_n_h1 = (
                sum(w * terms[i][0] / terms[i][1] for i, w in self.truth_points(abnormal))
                for abnormal in (False, True)
            )
            return _GridTable(prior_log_odds(self.prior), bounds, tuple(b / d for b, d in terms), e_n_h0, e_n_h1)
        h0, h1 = self.model_h0, self.model_h1
        kl10 = finite_kl(h1, h0)
        log_odds = prior_log_odds(self.prior)
        e_n_h0, e_n_h1 = expected_sample_sizes(self.alpha, self.beta, finite_kl(h0, h1), kl10)
        return _PairTable(
            log_odds,
            wald_boundaries(self.alpha, self.beta),
            e_n_h0,
            e_n_h1,
            kl10,
            None if isinstance(h0, Gaussian) else {},
            (self.prior, log_odds, self.cost_rate, e_n_h0, e_n_h1),
        )


@dataclass(frozen=True)
class _PairTable:
    """What a model-pair spec fixes for every episode."""

    log_odds: float | None  # prior_log_odds(prior)
    bounds: SprtBoundaries
    e_n_h0: float  # Wald's expected sample sizes
    e_n_h1: float
    kl10: float  # finite_kl(model_h1, model_h0)
    increments: dict | None  # LLR increment by observation, filled on first sight; None for Gaussians
    terms: tuple  # _pair_index's arguments but the LLR: prior, log_odds, cost rate, e_n_h0, e_n_h1


@dataclass(frozen=True)
class _GridTable:
    """What a grid spec fixes for every episode."""

    log_odds: float | None  # prior_log_odds(prior)
    bounds: CompositeBoundaries
    sizes: tuple[float, ...]  # expected sample size b / d while each point is the estimate
    e_n_h0: float  # each region's truth mixture of those sizes, summed as w * b / d
    e_n_h1: float


@dataclass(frozen=True)
class TraceStep:
    """One decision instant, recorded when tracing is on."""

    instant: int                      # absolute time the decision was taken
    delay: int                        # delay units consumed entering
    selected: tuple[int, ...]
    observations: tuple[float, ...]   # aligned with selected
    beliefs: tuple[float, ...]        # full posterior vector after updates
    indices: tuple[float, ...]        # full index vector after updates
    stats: tuple[float, ...]          # sum-LLR (simple) / declare-abnormal GLR (composite)


@dataclass
class EpisodeResult:
    truth: tuple[bool, ...]           # True = abnormal
    declared: tuple[bool, ...]        # True = declared abnormal
    stop_times: tuple[int, ...]       # absolute wall time of each declaration
    samples: tuple[int, ...]
    final_time: int
    total_delay: int
    idle_slots: int
    cost: float
    false_alarms: tuple[bool, ...]
    miss_detects: tuple[bool, ...]
    truth_models: tuple[ObservationModel, ...]
    trace: list[TraceStep] | None = None


_ZERO = array("d", [0.0])
_FIRST_CHUNK = 16
_MAX_CHUNK = 512


def _pair_index(
    prior: float, log_odds: float | None, llr: float, cost: float, e_n_h0: float, e_n_h1: float
) -> float:
    """index(posterior(...), cost, expected_detection_time(...)) in the
    same float operations and order, without the argument checks: the
    spec's validation and Wald's sizes, both positive, already pass them."""
    p = prior if log_odds is None else _sigmoid(log_odds + llr)
    return p * cost / (p * e_n_h1 + (1.0 - p) * e_n_h0)


def _pair_threshold(
    prior: float, log_odds: float | None, cost: float, e_n_h0: float, e_n_h1: float, floor: float
) -> float:
    """Inverse of ``_pair_index``: an LLR at and above which the computed
    index stays at or above floor; +inf where none is certified, -inf for
    no floor. The true index rises with p and p with the LLR, so the LLR
    of floor raised by twice a rounding margin is closed-form; padded, it
    must reach floor raised by the margin in one exact evaluation. The
    margin grows with the size ratio: fl(1 - p) carries p's absolute
    error into (1 - p) * e_n_h0."""
    if floor == -math.inf:
        return floor
    if log_odds is None or not (cost > 0 and floor > 0):
        return math.inf
    margin = 64 * 2.0**-52 * (2.0 + e_n_h0 / e_n_h1 + e_n_h1 / e_n_h0)
    aim = floor * (1.0 + 2.0 * margin)
    denom = cost - aim * (e_n_h1 - e_n_h0)
    p = aim * e_n_h0 / denom if denom > 0 else 0.0
    if not 0.0 < p < 1.0:
        return math.inf
    llr = math.log(p / (1.0 - p)) - log_odds
    llr += 1e-7 * (1.0 + abs(llr))
    if _pair_index(prior, log_odds, llr, cost, e_n_h0, e_n_h1) >= floor * (1.0 + margin):
        return llr
    return math.inf


class _Path:
    """One process in an episode: its observations, drawn from its own
    generator in chunks (``buf``) that start small and double up to a cap,
    in the order single draws would give, and a number per step
    (``series``, step 0 before any observation), folded from them only as
    far as some reader asks, and never past the declaration (``end``, with
    its ``verdict``) or a reader's time cap, and the stored index after
    each step (``indices``; a grid's is its ``series``). When tracing, the
    observations are kept too. Each kind's ``fold(ys)`` appends the steps
    of ys in order, stopping at the declaration, and returns how many it
    took. Each kind sets every slot in its own ``__init__``: an episode
    builds K paths, and a ``super()`` chain would cost each of them."""

    __slots__ = ("spec", "table", "model", "rng", "buf", "pos", "chunk", "series", "indices", "observations", "end", "verdict")

    def extend(self, last: int, cap: int) -> None:
        """Fold observations until the path holds step min(last, cap) or
        ends; a reader's stretch never reaches past its time cap. A spent
        buffer is replaced by the next chunk."""
        series, last = self.series, min(last, cap)
        while self.end is None and len(series) <= last:
            if self.pos == len(self.buf):
                self.buf = sample_many(self.model, self.rng, self.chunk)
                self.pos = 0
                self.chunk = min(2 * self.chunk, _MAX_CHUNK)
            self.pos += self.fold(self.buf[self.pos : self.pos + cap + 1 - len(series)])


class _PairPath(_Path):
    """A model-pair path: the LLR sum after each observation. The sum is
    the SPRT statistic and, added to the prior log-odds, the posterior.
    Only the pass loop stores the index of each folded step short of the
    declaration (``indices``, () until ``fill_indices``); others compute it."""

    __slots__ = ("terms",)

    def __init__(self, spec: ProcessSpec, model: ObservationModel, rng: np.random.Generator, trace: bool):
        self.spec = spec
        self.table = table = spec.table
        self.terms = table.terms
        self.model = model
        self.rng = rng
        self.buf: list | tuple = ()
        self.pos = 0
        self.chunk = _FIRST_CHUNK
        self.series = _ZERO[:]
        self.indices = ()
        self.observations: list | None = [] if trace else None
        self.end: int | None = None
        self.verdict = _CONTINUE

    def increment(self, y: float) -> float:
        """The LLR increment of one observation, as both log-densities
        give it; a non-finite one raises as the sum's update does."""
        inc = log_density(self.spec.model_h1, y) - log_density(self.spec.model_h0, y)
        update_llr(0.0, inc)
        if self.table.increments is not None:
            self.table.increments[y] = inc
        return inc

    def fold(self, ys: list) -> int:
        """The sums come from one C-level ``accumulate``, whose default
        addition is ``operator.add``: the same float additions in the same
        order as adding each increment in turn. An observation whose
        increment raises ends the chunk before it, so the error reaches
        the first reader that steps onto it."""
        table = self.table
        lookup = table.increments.get if table.increments is not None else {}.get
        try:
            sums = list(accumulate(map(lookup, ys), initial=self.series[-1]))
        except TypeError:  # observations seen for the first time
            incs = list(map(lookup, ys))
            for j, inc in enumerate(incs):
                if inc is None:
                    try:
                        incs[j] = self.increment(ys[j])
                    except ValueError:
                        if not j:
                            raise
                        del incs[j:]
                        break
            sums = list(accumulate(incs, initial=self.series[-1]))
        del sums[0]
        lower, upper = table.bounds.lower_a, table.bounds.upper_b
        if not (lower < min(sums) and max(sums) < upper):
            for j, llr in enumerate(sums):
                if llr >= upper or llr <= lower:
                    break
            del sums[j + 1 :]
            self.end = len(self.series) + j
            self.verdict = Verdict.DECLARE_ABNORMAL if llr >= upper else Verdict.DECLARE_NORMAL
        self.series.fromlist(sums)
        if self.observations is not None:
            self.observations += ys[: len(sums)]
        return len(sums)

    def fill_indices(self) -> None:
        """Index the folded steps short of the declaration not yet indexed, in
        ``_pair_index``'s and ``_sigmoid``'s float operations and order, inline."""
        prior, log_odds, cost, e_n_h0, e_n_h1 = self.terms
        self.indices = indices = self.indices or array("d")
        for llr in self.series[len(indices) : self.end]:
            if log_odds is None:
                p = prior
            elif (x := log_odds + llr) >= 0:
                p = 1.0 / (1.0 + math.exp(-x))
            else:
                e = math.exp(x)
                p = e / (1.0 + e)
            indices.append(p * cost / (p * e_n_h1 + (1.0 - p) * e_n_h0))

    def priority(self, pos: int) -> float:
        if pos < len(self.indices):  # stored by the pass loop; never stored here
            return self.indices[pos]
        prior, log_odds, cost, e_n_h0, e_n_h1 = self.terms
        return _pair_index(prior, log_odds, self.series[pos], cost, e_n_h0, e_n_h1)

    def belief(self, pos: int) -> float:
        return posterior(self.spec.prior, self.table.log_odds, self.series[pos])

    def stat(self, pos: int) -> float:
        return self.series[pos]

    def advance(self, pos: int, n_max: int, floor: float, cap: int):
        """From step pos, take steps until the declaration, n_max steps or
        the index falling below floor (``PolicyState.floor_except``);
        return the steps taken, the verdict and the index after the last
        step (0.0 once declared). Past the first step, the index is
        computed only below the floor's LLR threshold and at the last
        step, so a stretch with no floor costs O(1) on a folded path."""
        last = pos + n_max
        if self.end is None and len(self.series) <= last:
            self.extend(last, cap)
        llrs, end = self.series, self.end
        stop = end if end is not None and end < last else last  # the scan's end
        prior, log_odds, cost, e_n_h0, e_n_h1 = self.terms
        if floor > -math.inf and pos + 1 < stop:
            value = _pair_index(prior, log_odds, llrs[pos + 1], cost, e_n_h0, e_n_h1)
            if value < floor:
                return 1, _CONTINUE, value
            t_safe = _pair_threshold(prior, log_odds, cost, e_n_h0, e_n_h1, floor)
            for j in range(pos + 2, stop):
                llr = llrs[j]
                if llr < t_safe:
                    value = _pair_index(prior, log_odds, llr, cost, e_n_h0, e_n_h1)
                    if value < floor:
                        return j - pos, _CONTINUE, value
        if end is not None and end <= last:
            return end - pos, self.verdict, 0.0
        return n_max, _CONTINUE, _pair_index(prior, log_odds, llrs[last], cost, e_n_h0, e_n_h1)


class _GridPath(_Path):
    """A grid path: the index value after each observation (0.0 at the
    declaration), with the running sums after the last one: the
    log-likelihood per grid point (``cum_ll``), the estimate (``mle``,
    their argmax, ties to the lowest index; point 0 before any data),
    their maxima over Theta0 and Theta1, the adaptive numerator (the sum
    of each observation's log-density under the estimate before it) and
    the estimated belief. When tracing, the belief and the GLR statistic
    for declaring abnormal after each step are kept too."""

    __slots__ = ("statistic", "cum_ll", "mle", "max0", "max1", "alr_numerator", "estimated_belief", "beliefs", "stats")

    def __init__(
        self, spec: ProcessSpec, model: ObservationModel, rng: np.random.Generator, statistic: StatisticKind, trace: bool
    ):
        self.spec = spec
        self.table = table = spec.table
        self.model = model
        self.rng = rng
        self.buf: list | tuple = ()
        self.pos = 0
        self.chunk = _FIRST_CHUNK
        self.series = self.indices = array("d", [index(spec.prior, spec.cost_rate, table.sizes[0])])
        self.observations: list | None = [] if trace else None
        self.end: int | None = None
        self.verdict = _CONTINUE
        self.statistic = statistic
        self.cum_ll = [0.0] * len(spec.grid)
        self.mle = 0
        self.max0 = self.max1 = self.alr_numerator = 0.0
        self.estimated_belief = spec.prior
        self.beliefs = array("d", [spec.prior]) if trace else None
        self.stats = array("d", [0.0]) if trace else None  # the GLR of the empty sums

    def fold(self, ys: list) -> int:
        """Per observation: fold its row of log-densities into the sums
        (the adaptive numerator takes the estimate held before it), find
        the estimate and the regional maxima, update the belief, check
        the boundaries, then the index. Plain floats and ``math`` only, on
        locals written back to the slots once per chunk."""
        grid, table, spec = self.spec.grid, self.table, self.spec
        theta0, theta1, row = grid.theta0, grid.theta1, grid.row
        lookup = grid.increments.get if grid.increments is not None else {}.get
        sizes, log_odds, cost = table.sizes, table.log_odds, spec.cost_rate
        b0, b1, glr = table.bounds.b0, table.bounds.b1, self.statistic is StatisticKind.GLR
        cum, mle, alr, belief = self.cum_ll, self.mle, self.alr_numerator, self.estimated_belief
        max0, max1 = self.max0, self.max1
        values, beliefs, stats = self.series, self.beliefs, self.stats
        taken = 0
        for y in ys:
            inc = lookup(y) or row(y)  # a row is a nonempty list
            alr += inc[mle]
            cum = list(map(add, cum, inc))
            top = max(cum)
            mle = cum.index(top)
            at = cum.__getitem__
            max0, max1 = max(map(at, theta0)), max(map(at, theta1))
            if log_odds is not None and not (math.isinf(max1) and math.isinf(max0)):
                belief = _sigmoid(log_odds + max1 - max0)
            taken += 1
            if beliefs is not None:
                beliefs.append(belief)
                stats.append(_log_ratio(top, max0))
            excess1 = _log_ratio(top if glr else alr, max0) - b1
            excess0 = _log_ratio(top if glr else alr, max1) - b0
            if excess1 >= 0 and excess1 >= excess0:
                self.verdict = Verdict.DECLARE_ABNORMAL
            elif excess0 >= 0:
                self.verdict = Verdict.DECLARE_NORMAL
            else:
                values.append(belief * cost / sizes[mle])
                continue
            values.append(0.0)
            self.end = len(values) - 1
            break
        self.cum_ll, self.mle, self.max0, self.max1 = cum, mle, max0, max1
        self.alr_numerator, self.estimated_belief = alr, belief
        if self.observations is not None:
            self.observations += ys[:taken]
        return taken

    def priority(self, pos: int) -> float:
        return self.series[pos]

    def belief(self, pos: int) -> float:
        return self.beliefs[pos]

    def stat(self, pos: int) -> float:
        return self.stats[pos]

    def advance(self, pos: int, n_max: int, floor: float, cap: int):
        """As ``_PairPath.advance``, on the stored index values."""
        last = pos + n_max
        if self.end is None and len(self.series) <= last:
            self.extend(last, cap)
        values, end = self.series, self.end
        if floor > -math.inf:
            for j, value in enumerate(values[pos + 1 : end if end is not None and end < last else last], pos + 1):
                if value < floor:
                    return j - pos, _CONTINUE, value
        if end is not None and end <= last:
            return end - pos, self.verdict, 0.0
        return n_max, _CONTINUE, values[last]


class EpisodePaths:
    """One episode: the processes, the truth, the truth models and one
    path per process, built from the episode's seed. A process's
    observations, its statistic after each one, its verdict and its
    samples to declaration do not depend on the policy, so every policy
    run on the seed reads the same paths, and each path is folded once,
    as far as the furthest reader. The paths serve one statistic; a
    ``trace`` set also keeps what a trace is rebuilt from (``_trace``),
    and every run on it is traced."""

    def __init__(
        self,
        specs: Sequence[ProcessSpec],
        seed: np.random.SeedSequence,
        statistic: StatisticKind = StatisticKind.GLR,
        forced_truth: Sequence[bool] | None = None,
        trace: bool = False,
    ):
        k = len(specs)
        if k < 1:
            raise ValueError("need at least one process")
        meta_rng, *rngs = _child_generators(seed, k + 1)
        if forced_truth is not None:
            truth = tuple(bool(b) for b in forced_truth)
            if len(truth) != k:
                raise ValueError("forced truth length must match process count")
        else:
            # one draw for all, the same doubles as one scalar draw per process
            truth = tuple([u < spec.prior for u, spec in zip(meta_rng.random(k).tolist(), specs)])
        self.specs = tuple(specs)
        self.trace = trace
        self.truth = truth
        self.truth_models = tuple(_draw_truth_model(spec, truth[i], meta_rng) for i, spec in enumerate(specs))
        self.paths = [
            _GridPath(spec, model, rng, statistic, trace) if spec.is_composite else _PairPath(spec, model, rng, trace)
            for spec, model, rng in zip(specs, self.truth_models, rngs)
        ]


# numpy's SeedSequence hash constants, which its RNG policy (NEP 19) fixes
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


@cache
def _state_words_type() -> type:
    """A numpy ``ISeedSequence`` that hands a bit generator its state
    words as they are; built at the first seeding, with numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words: int, dtype=None) -> np.ndarray:
            return self.words

    return StateWords


def _child_generators(seed: np.random.SeedSequence, n: int) -> list[np.random.Generator]:
    """The generators of seed's children 0..n-1 by spawn-key extension:
    default_rng(SeedSequence(seed.entropy, spawn_key=seed.spawn_key +
    (i,))), without .spawn(), which mutates the parent and would break
    seed-object reuse. For integer entropy and spawn key the children's
    state words come from one shared hash (``_child_states``); other
    seeds go through SeedSequence."""
    # imported here, not with the module: loading numpy.random is a
    # noticeable share of a command's start-up that no run needs before
    # its first episode
    from numpy.random import PCG64, Generator, SeedSequence, default_rng

    entropy, key = seed.entropy, tuple(seed.spawn_key)
    if seed.pool_size == 4 and all(isinstance(part, int) for part in (entropy, *key)):
        state_words = _state_words_type()
        return [Generator(PCG64(state_words(words))) for words in _child_states(entropy, key, n)]
    return [default_rng(SeedSequence(entropy=entropy, spawn_key=key + (i,))) for i in range(n)]


def _uint32_words(n: int) -> list[int]:
    """A nonnegative int as SeedSequence reads it: 32-bit words, least
    significant first; [0] for 0."""
    return [n >> shift & _MASK32 for shift in range(0, max(n.bit_length(), 1), 32)]


def _hash_constants(start: int, mult: int, count: int):
    """The hash constant before and after each of count steps, as columns."""
    before, after = [], []
    for _ in range(count):
        before.append(start)
        start = start * mult & _MASK32
        after.append(start)
    return np.array(before, np.uint32)[:, None], np.array(after, np.uint32)[:, None]


def _child_states(entropy: int, key: tuple[int, ...], n: int) -> np.ndarray:
    """Row i holds the four uint64 words SeedSequence(entropy,
    spawn_key=key + (i,)).generate_state(4, np.uint64) gives, in its
    arithmetic: the entropy, padded to the pool's 4 words as a spawn key
    makes it, and the key are mixed into the pool once, in 32-bit Python
    ints; the child index, the last word and the only one that differs,
    is mixed in over 0..n-1 at once, and the 8-word output hash with it."""
    run = _uint32_words(entropy)
    words = run + [0] * (4 - len(run)) + [w for part in key for w in _uint32_words(part)]
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (_MIX_L * x - _MIX_R * y) & _MASK32
        return r ^ r >> 16

    pool = [hashmix(w) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        pool = [mix(p, hashmix(w)) for p in pool]
    before, after = _hash_constants(hash_const, _MULT_A, 4)
    v = np.arange(n, dtype=np.uint32) ^ before  # row d: the index hashed for pool word d
    v *= after
    v ^= v >> 16
    v = np.array([_MIX_L * p & _MASK32 for p in pool], np.uint32)[:, None] - np.uint32(_MIX_R) * v
    v ^= v >> 16
    before, after = _hash_constants(_INIT_B, _MULT_B, 8)
    out = np.concatenate((v, v)) ^ before  # the output cycles the pool twice
    out *= after
    out ^= out >> 16
    # word pairs read little-endian, as SeedSequence joins them
    return np.ascontiguousarray(out.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


def initial_priority(spec: ProcessSpec) -> float:
    """Pre-data priority: prior times cost rate over the prior-weighted
    expected sample size. Open loop ranks by it for the whole episode."""
    t = spec.table
    return index(spec.prior, spec.cost_rate, expected_detection_time(spec.prior, t.e_n_h0, t.e_n_h1))


def _draw_truth_model(spec: ProcessSpec, abnormal: bool, meta_rng: np.random.Generator):
    if not spec.is_composite:
        return spec.model_h1 if abnormal else spec.model_h0
    points = spec.truth_points(abnormal)
    # one uniform per composite process regardless of truth or arity,
    # so the stream position does not depend on the realization
    j = _category(tuple(w for _, w in points), meta_rng.random())
    return spec.grid.models[points[j][0]]


def _over_cap(time_cap: int, undecided: int) -> SimulationError:
    return SimulationError(f"episode exceeded {time_cap} time units with {undecided} processes undecided")


def _open_loop_lanes(
    walks: list, delays: list[int], pstate: PolicyState, m: int, samples: list[int], stop_times: list[int],
    time_cap: int, log: list | None
) -> tuple[int, int, int]:
    """An open-loop run at any M to its last declaration, as one read per
    pass gives it. Open loop probes the first M active ids of its frozen
    order, so its selection changes only at a declaration: a lane holds
    one probed id from the pass it enters, charged its delay, to its
    declaration, scanned in one call that is bounded by the time left
    under the cap, so it folds no further than one read per pass would. A
    heap of the passes that end the lanes gives the next event, and the
    passes up to it are one block of the log; lanes that end at one pass
    do so in selection order. Each event reads that step again, so a step
    whose observation raises raises there. Returns the clock, the delay
    units and the idle slots."""
    order = pstate.top(len(pstate.active))
    active = pstate.active
    # per lane: the pass of its last step, its rank in order, and its step
    # position less the pass (it takes one step per pass)
    lanes: list[tuple[int, int, int]] = []
    entered = p = total_delay = idle_slots = 0  # the clock after pass p is p + total_delay
    while active:
        # the next pass: free slots take the next ids of the order
        first, entered = entered, min(entered + m - len(lanes), len(order))
        delta = sum([delays[pid - 1] for pid in order[first:entered]])
        total_delay += delta
        p += 1
        if p + total_delay > time_cap:
            raise _over_cap(time_cap, len(active))
        for rank in range(first, entered):
            i = order[rank] - 1
            try:
                steps, verdict, _ = walks[i].advance(samples[i], time_cap + 1 - p - total_delay, -math.inf, time_cap)
            except ValueError:  # the read of the step after the folded ones raises
                steps, verdict = len(walks[i].series) - samples[i], None
            if verdict is _CONTINUE:
                steps += 1  # the pass after its last step under the cap overruns it
            heappush(lanes, (p + steps - 1, rank, samples[i] + 1 - p))
        end = lanes[0][0]
        if log is not None:
            sel = tuple([order[rank] for rank in sorted([lane[1] for lane in lanes])])
            log.append((p + total_delay - delta, delta, sel, end + 1 - p))
        idle_slots += (m - len(lanes)) * (end + 1 - p)
        p = end
        if p + total_delay > time_cap:
            raise _over_cap(time_cap, len(active))
        while lanes and lanes[0][0] == end:
            _, rank, offset = heappop(lanes)
            i = order[rank] - 1
            samples[i] = offset + end
            walks[i].advance(samples[i] - 1, 1, -math.inf, time_cap)
            stop_times[i] = p + total_delay
            pstate.declare(i + 1)
    return p + total_delay, total_delay, idle_slots


def _trace(walks: list, log: list) -> list[TraceStep]:
    """A run's ``TraceStep``s, rebuilt from its paths and its log of blocks
    (decision instant, delay charged, ids in selection order, instants):
    each instant steps every id, the first charges the delay, and each
    later one s is at instant + delay + s."""
    trace, samples = [], [0] * len(walks)
    for instant, delay, sel, count in log:
        for s in range(count):
            for pid in sel:
                samples[pid - 1] += 1
            trace.append(
                TraceStep(
                    instant=instant + delay + s if s else instant,
                    delay=0 if s else delay,
                    selected=sel,
                    observations=tuple([walks[pid - 1].observations[samples[pid - 1] - 1] for pid in sel]),
                    beliefs=tuple([path.belief(n) for path, n in zip(walks, samples)]),
                    indices=tuple([0.0 if path.end == n else path.priority(n) for path, n in zip(walks, samples)]),
                    stats=tuple([path.stat(n) for path, n in zip(walks, samples)]),
                )
            )
    return trace


def run_episode(paths: EpisodePaths, policy: PolicyConfig, time_cap: int = TIME_CAP) -> EpisodeResult:
    """Simulate one episode to the last declaration under policy, reading
    the episode's paths, which other policies may have read already; a
    traced set gives a traced run."""
    specs, walks = paths.specs, paths.paths
    k, m = len(specs), policy.m
    if m > k:
        raise ValueError(f"probe budget {m} exceeds process count {k}")

    # open loop ranks by the pre-data priorities and never reranks or
    # explores, so it probes the first M undeclared ids of that order,
    # each to its declaration: it runs as lanes (``_open_loop_lanes``) and
    # leaves no id active for the two loops below, which are closed loop's
    cl = policy.kind is PolicyKind.CL
    pstate = PolicyState.fresh([path.priority(0) for path in walks] if cl else [initial_priority(s) for s in specs])
    active = pstate.active  # a live view of the undeclared ids
    instants = exploration_instants(policy.zeta)
    # the first exploration instant not yet passed, and the one after it
    nxt, nxt2 = next(instants, math.inf), next(instants, math.inf)

    isfinite = math.isfinite
    stop_times = [0] * k
    samples = [0] * k  # each process's step position on its path
    delays = [spec.switch_delay for spec in specs]
    t = 0
    total_delay = 0
    idle_slots = 0
    probed = 0  # the id probed last, if still active; 0 for none
    log: list | None = [] if paths.trace else None  # a traced run's blocks, for ``_trace``
    if not cl:
        t, total_delay, idle_slots = _open_loop_lanes(walks, delays, pstate, m, samples, stop_times, time_cap, log)

    # The pass loop: one decision per instant, for the instants that probe
    # more than one id. The probed ids' keys are held out of the ranking
    # (``PolicyState.hold``): each pass settles them into the top M, sorted
    # into ``top(M)``'s order, or puts them back for a rotation, charges the
    # entering delays and one sampling unit, then reads one step of every
    # probed process in the selection's order, so the first read to raise
    # is the step-by-step run's, looks up its stored index and updates its
    # key where it is held.
    held: list[tuple[float, int]] = []
    while m > 1 and len(active) > 1:
        now = t + 1
        while nxt < now:
            nxt, nxt2 = nxt2, next(instants, math.inf)
        if nxt == now:
            probing = [neg for _, neg in held]
            pstate.release(held)
            sel = rotation(pstate, m)
            pstate.rr_cursor = sel[-1]
            held = pstate.hold(sel)
            entered = [pid for pid in sel if -pid not in probing]
        else:
            entered = pstate.settle(held, m)
            held.sort(reverse=True)  # top(M)'s order
        delta = sum([delays[pid - 1] for pid in entered]) if entered else 0  # simultaneous entries add
        t += delta + 1
        total_delay += delta
        idle_slots += m - len(held)
        if t > time_cap:
            raise _over_cap(time_cap, len(active))
        if log is not None:
            log.append((now, delta, tuple([-neg for _, neg in held]), 1))
        read = []  # the keys of the probed ids still active after the reads
        for key in held:
            i = -key[1] - 1
            path = walks[i]
            last = samples[i] + 1
            if path.end is None and len(path.series) <= last:
                path.extend(last, time_cap)
            if path.end == last:
                stop_times[i] = t
                pstate.declare(i + 1)
            else:
                if len(path.indices) <= last:
                    path.fill_indices()
                value = path.indices[last]
                if not isfinite(value):
                    _check_finite(i + 1, value)
                read.append((value, key[1]))
            samples[i] = last
        held = read
    if held:  # at most one id is left active
        probed = -held[0][1]
        pstate.release(held)

    # The lone loop: once closed loop probes one id per instant (from the
    # start at M = 1, at M > 1 once one id is left active), it takes the
    # probed id's observations in stretches, one sampling unit each, until
    # its selection could change: at its declaration, at the time cap, at an
    # exploration instant whose round-robin pick is another id or when its
    # index falls below the best index of the other active ids, all of which
    # are frozen meanwhile. An exploration instant that picks the probed id
    # falls inside the stretch; one that picks another id starts that id's
    # stretch.
    while active:
        # at the cap every selection overruns it: raise before reading the
        # instants up to it, one per time unit for a zeta near 1
        if t >= time_cap:
            raise _over_cap(time_cap, len(active))
        while nxt <= t:
            nxt, nxt2 = nxt2, next(instants, math.inf)
        explored = nxt == t + 1
        if explored:
            (pid,) = rotation(pstate, 1)
            pstate.rr_cursor = pid
        else:
            (pid,) = pstate.top(1)
        delta = delays[pid - 1] if pid != probed else 0
        t += delta + 1
        total_delay += delta
        probed = pid
        if t > time_cap:
            raise _over_cap(time_cap, len(active))

        while nxt <= t:  # now the first exploration instant after the stretch's first step
            nxt, nxt2 = nxt2, next(instants, math.inf)
        if len(active) == 1:
            end = math.inf  # every exploration instant picks the one active id
        elif not explored and rotation(pstate, 1) == (pid,):
            # nxt picks pid too, and nxt2 another id; after a pick by
            # rotation, which moved the cursor to pid, nxt cannot
            end = nxt2
        else:
            end = nxt
        i = pid - 1
        n_max = (end if end <= time_cap else time_cap + 1) - t  # the builtin min costs more
        floor = pstate.floor_except(pid)
        steps, verdict, value = walks[i].advance(samples[i], n_max, floor, time_cap)
        if log is not None:
            log.append((t - delta, delta, (pid,), steps))
        if t + steps > nxt:  # the stretch took the step at nxt, whose pick was pid
            pstate.rr_cursor = pid
        t += steps - 1
        idle_slots += (m - 1) * steps
        samples[i] += steps
        if verdict is not _CONTINUE:
            stop_times[i] = t
            pstate.declare(pid)
        else:
            pstate.rerank(pid, value)

    truth = paths.truth
    declared = tuple(path.verdict is Verdict.DECLARE_ABNORMAL for path in walks)
    fa = tuple(declared[i] and not truth[i] for i in range(k))
    md = tuple(not declared[i] and truth[i] for i in range(k))
    cost = sum(
        specs[i].cost_rate * stop_times[i] for i in range(k) if truth[i] and declared[i]
    )
    return EpisodeResult(
        truth=truth,
        declared=declared,
        stop_times=tuple(stop_times),
        samples=tuple(samples),
        final_time=t,
        total_delay=total_delay,
        idle_slots=idle_slots,
        cost=cost,
        false_alarms=fa,
        miss_detects=md,
        truth_models=paths.truth_models,
        trace=None if log is None else _trace(walks, log),
    )


def lower_bound_oracle(
    specs: Sequence[ProcessSpec],
    truth: Sequence[bool],
    truth_models: Sequence[ObservationModel] | None = None,
    m: int = 1,
) -> float:
    """Asymptotic floor on expected cost for a known truth realization:
    abnormal processes sorted by decreasing cost over Wald detection
    time, then the cumulative double sum. With M probes the ordered list
    is striped across the M slots, which is only derived for equal
    costs."""
    if m < 1:
        raise ValueError(f"probe budget must be >= 1, got {m}")
    abnormal = [i for i, flag in enumerate(truth) if flag]
    if not abnormal:
        return 0.0

    def detection_time(i: int) -> float:
        """Wald detection time of abnormal process i; a model pair's
        truth is its model_h1, so its table holds both numbers."""
        spec = specs[i]
        if not spec.is_composite:
            return spec.table.bounds.upper_b / spec.table.kl10
        realized = truth_models[i] if truth_models is not None else None
        if realized is None:
            raise ValueError("grid spec needs the realized truth model for the bound")
        try:
            # equal grid points have equal rows, so the first match serves
            point = spec.grid.models.index(realized)
        except ValueError:
            raise ValueError(f"process {i + 1}: truth {realized!r} is not a grid point") from None
        d = spec.grid.nearest_kl[point][0]
        if d == 0:
            raise ValueError(f"process {i + 1} has zero divergence; bound undefined")
        return wald_boundaries(spec.alpha, spec.beta).upper_b / d

    wald_time = {i: detection_time(i) for i in abnormal}
    ordered = sorted(abnormal, key=lambda i: (-specs[i].cost_rate / wald_time[i], i))

    if m > 1 and len({specs[i].cost_rate for i in ordered}) > 1:
        raise ValueError("multi-probe bound is only derived for equal costs")
    total = 0.0
    for lane in range(m):
        acc = 0.0
        for i in ordered[lane::m]:
            acc += wald_time[i]
            total += specs[i].cost_rate * acc
    return total
