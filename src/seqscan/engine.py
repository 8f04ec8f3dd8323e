"""Episode execution: truth sampling, probing under a policy, cost
accrual, switching delays, and the analysis-side lower bound.

Time is discrete. Each probe block consumes the entering switching
delays plus one sampling unit; every sampling unit offers M probe
slots, so over an episode the probe counts, delay units and idle slots
add up to exactly M times the final clock. Observations come from one
substream per process, which makes paired policy comparisons see the
same data and keeps replays bit-identical; each substream is drawn in
chunks. Only a probed process's index moves, so a lone probe keeps its
selection until an event (a declaration, an exploration instant, the
probed index falling below the best other one) and runs there in one
call, with the same result as one decision per observation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Sequence

import numpy as np

from seqscan.belief import _sigmoid, expected_detection_time, index, posterior, prior_log_odds
from seqscan.composite import (
    ParameterGrid,
    StatisticKind,
    check_stop_composite,
    composite_boundaries,
    estimated_belief_update,
    estimated_expected_sample_size,
    glr_statistic,
    ingest,
    init_state,
)
from seqscan.models import Gaussian, ObservationModel, finite_kl, log_density, sample_many
from seqscan.policy import PolicyState, exploration_schedule, next_exploration_instant, select_cl
from seqscan.sprt import SprtBoundaries, Verdict, expected_sample_sizes, update_llr, wald_boundaries

TIME_CAP = 10_000_000


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
    statistic: StatisticKind = StatisticKind.GLR

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
        if self.switch_delay < 0:
            raise ValueError(f"switch delay must be nonnegative, got {self.switch_delay}")
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
                if any(x < 0 for x in w) or abs(sum(w) - 1.0) > 1e-9:
                    raise ValueError(f"{region}_weights must be a probability vector")

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
    def table(self) -> _PairTable:
        """A model-pair spec's fixed numbers, built on first use and kept
        for the spec's lifetime, so every episode of a batch shares them."""
        h0, h1 = self.model_h0, self.model_h1
        kl10 = finite_kl(h1, h0)
        return _PairTable(
            prior_log_odds(self.prior),
            wald_boundaries(self.alpha, self.beta),
            *expected_sample_sizes(self.alpha, self.beta, finite_kl(h0, h1), kl10),
            kl10,
            None if isinstance(h0, Gaussian) else {},
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


_FIRST_CHUNK = 16
_MAX_CHUNK = 512


class _Stream:
    """One process's observations, drawn from its own generator in chunks
    that start small and double up to a cap. The generator is never
    shared, so buffered draws reach the process in the order single
    draws would."""

    __slots__ = ("model", "rng", "buf", "pos", "chunk")

    def __init__(self, model: ObservationModel, rng: np.random.Generator):
        self.model = model
        self.rng = rng
        self.buf: list = []
        self.pos = 0
        self.chunk = _FIRST_CHUNK

    def refill(self) -> list:
        """Replace the spent buffer with the next chunk and return it."""
        self.buf = sample_many(self.model, self.rng, self.chunk)
        self.pos = 0
        self.chunk = min(2 * self.chunk, _MAX_CHUNK)
        return self.buf

    def next(self) -> float:
        if self.pos == len(self.buf):
            self.refill()
        self.pos += 1
        return self.buf[self.pos - 1]

    @property
    def last(self) -> float:
        """The observation taken most recently."""
        return self.buf[self.pos - 1]


def _pair_index(
    prior: float, log_odds: float | None, llr: float, cost: float, e_n_h0: float, e_n_h1: float
) -> float:
    """index(posterior(...), cost, expected_detection_time(...)) in the
    same float operations and order, without the argument checks: the
    spec's validation and Wald's sizes, both positive, already pass them."""
    p = prior if log_odds is None else _sigmoid(log_odds + llr)
    return p * cost / (p * e_n_h1 + (1.0 - p) * e_n_h0)


class _PairRuntime:
    """Per-episode state of a model-pair process: one float LLR sum is
    both the SPRT statistic and, added to the prior log-odds, the
    posterior. Everything else is the spec's table."""

    def __init__(self, pid: int, spec: ProcessSpec):
        self.pid = pid
        self.spec = spec
        self.table = spec.table
        self.llr = 0.0

    def posterior(self) -> float:
        return posterior(self.spec.prior, self.table.log_odds, self.llr)

    def priority(self) -> float:
        spec, table = self.spec, self.table
        return _pair_index(spec.prior, table.log_odds, self.llr, spec.cost_rate, table.e_n_h0, table.e_n_h1)

    def increment(self, y: float) -> float:
        """The LLR increment of one observation, as both log-densities
        give it; a non-finite one raises as the sum's update does."""
        inc = log_density(self.spec.model_h1, y) - log_density(self.spec.model_h0, y)
        update_llr(0.0, inc)
        if self.table.increments is not None:
            self.table.increments[y] = inc
        return inc

    def advance(self, stream: _Stream, n_max: int, floor: tuple[float, int] | None):
        """Take observations until a boundary is hit, n_max are taken or
        the key (index, -pid) falls below floor; return the steps taken,
        the verdict and the index after the last step (0.0 once
        declared)."""
        llr, table = self.llr, self.table
        lower, upper = table.bounds.lower_a, table.bounds.upper_b
        prior, log_odds, cost = self.spec.prior, table.log_odds, self.spec.cost_rate
        e_n_h0, e_n_h1 = table.e_n_h0, table.e_n_h1
        lookup = table.increments.get if table.increments is not None else {}.get
        floor_value, floor_neg_pid = floor if floor is not None else (-math.inf, 0)
        # a key of equal index is below the floor when its id is larger
        tie_below = -self.pid < floor_neg_pid
        buf, pos = stream.buf, stream.pos
        steps = 0
        while True:
            if pos == len(buf):
                buf = stream.refill()
                pos = 0
            y = buf[pos]
            pos += 1
            inc = lookup(y)
            if inc is None:
                inc = self.increment(y)
            llr += inc
            steps += 1
            if llr >= upper:
                verdict, value = Verdict.DECLARE_ABNORMAL, 0.0
                break
            if llr <= lower:
                verdict, value = Verdict.DECLARE_NORMAL, 0.0
                break
            value = _pair_index(prior, log_odds, llr, cost, e_n_h0, e_n_h1)
            if steps == n_max or value < floor_value or (tie_below and value == floor_value):
                verdict = Verdict.CONTINUE
                break
        stream.pos = pos
        self.llr = llr
        return steps, verdict, value

    def stat_snapshot(self) -> float:
        return self.llr


class _GridRuntime:
    """Per-episode state of a grid process: per-point cumulative
    log-likelihoods, the GLR or ALR test and the estimated belief."""

    def __init__(self, pid: int, spec: ProcessSpec, statistic: StatisticKind):
        self.pid = pid
        self.spec = spec
        self.statistic = statistic
        self.cstate = init_state(spec.grid, spec.prior)
        self.cbounds = composite_boundaries(spec.alpha, spec.beta)

    def posterior(self) -> float:
        return self.cstate.estimated_belief

    def priority(self) -> float:
        expected = estimated_expected_sample_size(self.cstate, self.spec.grid, self.cbounds)
        return index(self.cstate.estimated_belief, self.spec.cost_rate, expected)

    def advance(self, stream: _Stream, n_max: int, floor: tuple[float, int] | None):
        """As ``_PairRuntime.advance``: fold each observation in, refresh
        the belief and test for a verdict."""
        state, grid, bounds = self.cstate, self.spec.grid, self.cbounds
        steps = 0
        while True:
            ingest(state, grid, stream.next())
            estimated_belief_update(state)
            verdict = check_stop_composite(state, bounds, self.statistic)
            steps += 1
            if verdict.decided:
                return steps, verdict, 0.0
            value = self.priority()
            if steps == n_max or (floor is not None and (value, -self.pid) < floor):
                return steps, verdict, value

    def stat_snapshot(self) -> float:
        return glr_statistic(self.cstate, 1)


def apply_switching_delay(
    previous: set[int] | frozenset[int] | tuple[int, ...],
    new: Sequence[int],
    specs: Sequence[ProcessSpec],
) -> int:
    """Delay units consumed by every process entering the probed set
    this instant; simultaneous entries add."""
    return sum(specs[pid - 1].switch_delay for pid in new if pid not in previous)


def a_priori_expected_size(spec: ProcessSpec) -> float:
    """Prior-weighted expected sample size, before any data. For grids
    the conditional sizes average boundary-over-divergence across the
    configured truth mixture of each region."""
    if not spec.is_composite:
        return expected_detection_time(spec.prior, spec.table.e_n_h0, spec.table.e_n_h1)
    grid = spec.grid
    b = composite_boundaries(spec.alpha, spec.beta)
    e1 = sum(w * b.b1 / max(grid.nearest_kl[i][0], 1e-12) for i, w in spec.truth_points(True))
    e0 = sum(w * b.b0 / max(grid.nearest_kl[i][1], 1e-12) for i, w in spec.truth_points(False))
    return spec.prior * e1 + (1.0 - spec.prior) * e0


def initial_priority(spec: ProcessSpec) -> float:
    """Pre-data priority: prior times cost rate over the prior-weighted
    expected sample size. Open loop ranks by it for the whole episode."""
    return index(spec.prior, spec.cost_rate, a_priori_expected_size(spec))


def _draw_truth_model(spec: ProcessSpec, abnormal: bool, meta_rng: np.random.Generator):
    if not spec.is_composite:
        return spec.model_h1 if abnormal else spec.model_h0
    points = spec.truth_points(abnormal)
    # one uniform per composite process regardless of truth or arity,
    # so the stream position does not depend on the realization
    u = meta_rng.random()
    acc = 0.0
    for i, w in points:
        acc += w
        if u < acc:
            return spec.grid.models[i]
    return spec.grid.models[points[-1][0]]


def run_episode(
    specs: Sequence[ProcessSpec],
    policy: PolicyConfig,
    rng: np.random.SeedSequence,
    forced_truth: Sequence[bool] | None = None,
    record_trace: bool = False,
    time_cap: int = TIME_CAP,
) -> EpisodeResult:
    """Simulate one episode to the last declaration."""
    k = len(specs)
    if k < 1:
        raise ValueError("need at least one process")
    if policy.m > k:
        raise ValueError(f"probe budget {policy.m} exceeds process count {k}")

    # derive children by spawn-key extension rather than .spawn(),
    # which mutates the parent and would break seed-object reuse
    children = [
        np.random.SeedSequence(entropy=rng.entropy, spawn_key=tuple(rng.spawn_key) + (i,))
        for i in range(k + 1)
    ]
    meta_rng = np.random.default_rng(children[0])
    obs_rngs = [np.random.default_rng(c) for c in children[1:]]

    if forced_truth is not None:
        truth = tuple(bool(b) for b in forced_truth)
        if len(truth) != k:
            raise ValueError("forced truth length must match process count")
    else:
        truth = tuple(bool(meta_rng.random() < spec.prior) for spec in specs)
    truth_models = tuple(
        _draw_truth_model(spec, truth[i], meta_rng) for i, spec in enumerate(specs)
    )

    runtimes = [
        _GridRuntime(pid, spec, policy.statistic) if spec.is_composite else _PairRuntime(pid, spec)
        for pid, spec in enumerate(specs, start=1)
    ]
    streams = [_Stream(model, r) for model, r in zip(truth_models, obs_rngs)]
    indices = [rt.priority() for rt in runtimes]  # 0.0 once declared

    # open loop ranks by the pre-data priorities and never reranks or
    # explores, so it probes the first M undeclared ids of that order,
    # each to its declaration
    cl = policy.kind is PolicyKind.CL
    pstate = PolicyState.fresh(indices if cl else [initial_priority(s) for s in specs], policy.m)
    sched = exploration_schedule(policy.zeta if cl else math.inf)

    declared = [False] * k
    stop_times = [0] * k
    samples = [0] * k
    t = 0
    total_delay = 0
    idle_slots = 0
    prev_sel: set[int] = set()
    trace: list[TraceStep] | None = [] if record_trace else None

    # Each pass is one decision: select, charge the entering delays and
    # one sampling unit, then advance every selected process. A lone
    # untraced probe runs on, one sampling unit per observation, until
    # its selection could change: at its declaration, at the next
    # exploration instant or the time cap, or (closed loop) when its key
    # falls below the best key of the other active ids, whose indices
    # are frozen meanwhile.
    while pstate.active:
        instant = t + 1
        sel = select_cl(pstate, instant, sched)

        delta = apply_switching_delay(prev_sel, sel, specs)
        t += delta + 1
        total_delay += delta
        idle_slots += policy.m - len(sel)
        if t > time_cap:
            raise SimulationError(
                f"episode exceeded {time_cap} time units with {len(pstate.active)} processes undecided"
            )

        n_max, floor = 1, None
        if len(sel) == 1 and trace is None:
            n_max = min(time_cap - t + 1, next_exploration_instant(sched, t + 1) - t)
            if cl:
                floor = pstate.best_key_except(sel[0])
        for pid in sel:
            i = pid - 1
            steps, verdict, value = runtimes[i].advance(streams[i], n_max, floor)
            t += steps - 1
            idle_slots += (policy.m - 1) * (steps - 1)
            samples[i] += steps
            if verdict.decided:
                declared[i] = verdict is Verdict.DECLARE_ABNORMAL
                stop_times[i] = t
                pstate.declare(pid)
                indices[i] = 0.0
            else:
                indices[i] = value
                if cl:
                    pstate.rerank(pid, value)

        prev_sel = set(sel)
        if trace is not None:
            trace.append(
                TraceStep(
                    instant=instant,
                    delay=delta,
                    selected=tuple(sel),
                    observations=tuple(streams[pid - 1].last for pid in sel),
                    beliefs=tuple(rt.posterior() for rt in runtimes),
                    indices=tuple(indices),
                    stats=tuple(rt.stat_snapshot() for rt in runtimes),
                )
            )

    fa = tuple(declared[i] and not truth[i] for i in range(k))
    md = tuple(not declared[i] and truth[i] for i in range(k))
    cost = sum(
        specs[i].cost_rate * stop_times[i] for i in range(k) if truth[i] and declared[i]
    )
    return EpisodeResult(
        truth=truth,
        declared=tuple(declared),
        stop_times=tuple(stop_times),
        samples=tuple(samples),
        final_time=t,
        total_delay=total_delay,
        idle_slots=idle_slots,
        cost=cost,
        false_alarms=fa,
        miss_detects=md,
        truth_models=truth_models,
        trace=trace,
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
