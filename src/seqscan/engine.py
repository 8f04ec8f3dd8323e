"""Episode execution: truth sampling, probing under a policy, cost
accrual, switching delays, and the analysis-side lower bound.

Time is discrete. Each probe block consumes the entering switching
delays plus one sampling unit; every sampling unit offers M probe
slots, so over an episode the probe counts, delay units and idle slots
add up to exactly M times the final clock. Observations come from one
substream per process, which makes paired policy comparisons see the
same data and keeps replays bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from seqscan.belief import expected_detection_time, index, posterior, prior_log_odds
from seqscan.composite import (
    CompositeBoundaries,
    CompositeState,
    ParameterGrid,
    Region,
    StatisticKind,
    check_stop_composite,
    composite_boundaries,
    estimated_belief_update,
    estimated_expected_sample_size,
    glr_statistic,
    ingest,
    init_state,
)
from seqscan.models import ObservationModel, Poisson, finite_kl, log_density, sample
from seqscan.policy import (
    ExplorationSchedule,
    PolicyState,
    exploration_schedule,
    ol_order,
    select_cl,
)
from seqscan.sprt import (
    Verdict,
    check_stop,
    expected_sample_sizes,
    update_llr,
    wald_boundaries,
)

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
                if any(x < 0 for x in w) or abs(sum(w) - 1.0) > 1e-9:
                    raise ValueError(f"{region}_weights must be a probability vector")

    @property
    def is_composite(self) -> bool:
        return self.grid is not None


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


def wald_expected_sizes(spec: ProcessSpec) -> tuple[float, float]:
    """Wald's expected sample sizes (under H0, under H1) of a model-pair
    process, from its error budgets and the two clamped divergences."""
    return expected_sample_sizes(
        spec.alpha,
        spec.beta,
        finite_kl(spec.model_h0, spec.model_h1),
        finite_kl(spec.model_h1, spec.model_h0),
    )


class _PairRuntime:
    """Per-episode state of a model-pair process: one float LLR sum is
    both the SPRT statistic and, added to the prior log-odds, the
    posterior. Everything else is fixed per spec and built once."""

    def __init__(self, spec: ProcessSpec):
        self.spec = spec
        self.llr = 0.0
        self.log_odds = prior_log_odds(spec.prior)
        self.bounds = wald_boundaries(spec.alpha, spec.beta)
        self.e_n_h0, self.e_n_h1 = wald_expected_sizes(spec)
        h0, h1 = spec.model_h0, spec.model_h1
        # (log rate, rate) of both models, for log_density's Poisson arithmetic
        self.poisson_terms = None
        if isinstance(h0, Poisson) and isinstance(h1, Poisson):
            self.poisson_terms = (math.log(h0.rate), h0.rate, math.log(h1.rate), h1.rate)

    def posterior(self) -> float:
        return posterior(self.spec.prior, self.log_odds, self.llr)

    def priority(self) -> float:
        p = self.posterior()
        return index(p, self.spec.cost_rate, expected_detection_time(p, self.e_n_h0, self.e_n_h1))

    def absorb(self, y: float) -> Verdict:
        """Fold one observation in and return the verdict. Poisson pairs
        evaluate both log-pmfs in log_density's operation order, so the
        increment is bit-identical to it."""
        terms = self.poisson_terms
        if terms is not None:
            k = int(y)
            if k != y or k < 0:
                raise ValueError(f"Poisson support is the nonnegative integers, got {y}")
            g = math.lgamma(k + 1)
            log_r0, r0, log_r1, r1 = terms
            inc = (k * log_r1 - r1 - g) - (k * log_r0 - r0 - g)
        else:
            inc = log_density(self.spec.model_h1, y) - log_density(self.spec.model_h0, y)
        self.llr = update_llr(self.llr, inc)
        return check_stop(self.llr, self.bounds)

    def stat_snapshot(self) -> float:
        return self.llr


class _GridRuntime:
    """Per-episode state of a grid process: per-point cumulative
    log-likelihoods, the GLR or ALR test and the estimated belief."""

    def __init__(self, spec: ProcessSpec, statistic: StatisticKind):
        self.spec = spec
        self.statistic = statistic
        self.cstate = init_state(spec.grid, spec.prior)
        self.cbounds = composite_boundaries(spec.alpha, spec.beta)

    def posterior(self) -> float:
        return self.cstate.estimated_belief

    def priority(self) -> float:
        expected = estimated_expected_sample_size(self.cstate, self.spec.grid, self.cbounds)
        return index(self.cstate.estimated_belief, self.spec.cost_rate, expected)

    def absorb(self, y: float) -> Verdict:
        """Fold one observation in, refresh belief, return the verdict."""
        ingest(self.cstate, self.spec.grid, y)
        estimated_belief_update(self.cstate, self.spec.grid)
        return check_stop_composite(self.cstate, self.spec.grid, self.cbounds, self.statistic)

    def stat_snapshot(self) -> float:
        if self.cstate.n_obs == 0:
            return 0.0
        return glr_statistic(self.cstate, self.spec.grid, 1)


def apply_switching_delay(
    previous: set[int] | frozenset[int] | tuple[int, ...],
    new: Sequence[int],
    specs: Sequence[ProcessSpec],
) -> int:
    """Delay units consumed by every process entering the probed set
    this instant; simultaneous entries add."""
    prev = set(previous)
    return sum(specs[pid - 1].switch_delay for pid in new if pid not in prev)


def a_priori_expected_size(spec: ProcessSpec) -> float:
    """Prior-weighted expected sample size, before any data. For grids
    the conditional sizes average boundary-over-divergence across the
    configured truth mixture of each region."""
    if not spec.is_composite:
        return expected_detection_time(spec.prior, *wald_expected_sizes(spec))
    grid = spec.grid
    b = composite_boundaries(spec.alpha, spec.beta)
    i0, i1 = grid.indices(Region.THETA0), grid.indices(Region.THETA1)
    w0 = spec.h0_weights or tuple(1.0 / len(i0) for _ in i0)
    w1 = spec.h1_weights or tuple(1.0 / len(i1) for _ in i1)
    e1 = sum(w * b.b1 / max(grid.nearest_kl[i][0], 1e-12) for w, i in zip(w1, i1))
    e0 = sum(w * b.b0 / max(grid.nearest_kl[i][1], 1e-12) for w, i in zip(w0, i0))
    return spec.prior * e1 + (1.0 - spec.prior) * e0


def _draw_truth_model(spec: ProcessSpec, abnormal: bool, meta_rng: np.random.Generator):
    if not spec.is_composite:
        return spec.model_h1 if abnormal else spec.model_h0
    grid = spec.grid
    idxs = grid.indices(Region.THETA1 if abnormal else Region.THETA0)
    weights = (spec.h1_weights if abnormal else spec.h0_weights) or tuple(
        1.0 / len(idxs) for _ in idxs
    )
    # one uniform per composite process regardless of truth or arity,
    # so the stream position does not depend on the realization
    u = meta_rng.random()
    acc = 0.0
    for i, w in zip(idxs, weights):
        acc += w
        if u < acc:
            return grid.models[i]
    return grid.models[idxs[-1]]


class _OlSlots:
    """Open-loop execution: a fixed probe order, each slot walking it,
    switching only on declaration."""

    def __init__(self, order: tuple[int, ...], m: int):
        self.order = list(order)
        self.next = 0
        self.occupants: list[int | None] = []
        for _ in range(m):
            self.occupants.append(self._take())

    def _take(self) -> int | None:
        if self.next < len(self.order):
            pid = self.order[self.next]
            self.next += 1
            return pid
        return None

    def selection(self) -> tuple[int, ...]:
        return tuple(sorted(pid for pid in self.occupants if pid is not None))

    def complete(self, pid: int) -> None:
        for slot, occupant in enumerate(self.occupants):
            if occupant == pid:
                self.occupants[slot] = self._take()
                return


def run_episode(
    specs: Sequence[ProcessSpec],
    policy: PolicyConfig,
    rng: np.random.SeedSequence | np.random.Generator,
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

    if isinstance(rng, np.random.SeedSequence):
        # derive children by spawn-key extension rather than .spawn(),
        # which mutates the parent and would break seed-object reuse
        children = [
            np.random.SeedSequence(entropy=rng.entropy, spawn_key=tuple(rng.spawn_key) + (i,))
            for i in range(k + 1)
        ]
        meta_rng = np.random.default_rng(children[0])
        obs_rngs = [np.random.default_rng(c) for c in children[1:]]
    else:
        seeds = rng.integers(0, 2**63 - 1, size=k + 1)
        meta_rng = np.random.default_rng(int(seeds[0]))
        obs_rngs = [np.random.default_rng(int(s)) for s in seeds[1:]]

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
        _GridRuntime(spec, policy.statistic) if spec.is_composite else _PairRuntime(spec)
        for spec in specs
    ]
    indices = [rt.priority() for rt in runtimes]  # 0.0 once declared

    pstate = PolicyState.fresh(indices, policy.m)
    sched = exploration_schedule(policy.zeta)
    slots = None
    if policy.kind is PolicyKind.OL:
        order = ol_order(
            [s.prior for s in specs],
            [s.cost_rate for s in specs],
            [a_priori_expected_size(s) for s in specs],
        )
        slots = _OlSlots(order, policy.m)

    declared = [False] * k
    stop_times = [0] * k
    samples = [0] * k
    t = 0
    total_delay = 0
    idle_slots = 0
    prev_sel: set[int] = set()
    trace: list[TraceStep] | None = [] if record_trace else None

    while pstate.active:
        instant = t + 1
        if slots is not None:
            sel = slots.selection()
        else:
            sel = select_cl(pstate, instant, sched)

        delta = apply_switching_delay(prev_sel, sel, specs)
        t += delta + 1
        total_delay += delta
        idle_slots += policy.m - len(sel)
        if t > time_cap:
            raise SimulationError(
                f"episode exceeded {time_cap} time units with {len(pstate.active)} processes undecided"
            )

        observations = []
        for pid in sel:
            rt = runtimes[pid - 1]
            y = sample(truth_models[pid - 1], obs_rngs[pid - 1])
            observations.append(y)
            samples[pid - 1] += 1
            verdict = rt.absorb(y)
            if verdict.decided:
                declared[pid - 1] = verdict is Verdict.DECLARE_ABNORMAL
                stop_times[pid - 1] = t
                pstate.declare(pid)
                if slots is not None:
                    slots.complete(pid)
                indices[pid - 1] = 0.0
            else:
                indices[pid - 1] = value = rt.priority()
                pstate.rerank(pid, value)

        prev_sel = set(sel)
        if trace is not None:
            trace.append(
                TraceStep(
                    instant=instant,
                    delay=delta,
                    selected=tuple(sel),
                    observations=tuple(observations),
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
    abnormal = [i for i, flag in enumerate(truth) if flag]
    if not abnormal:
        return 0.0

    def divergence(i: int) -> float:
        spec = specs[i]
        if spec.is_composite:
            realized = truth_models[i] if truth_models is not None else None
            if realized is None:
                raise ValueError("grid spec needs the realized truth model for the bound")
            try:
                # equal grid points have equal rows, so the first match serves
                point = spec.grid.models.index(realized)
            except ValueError:
                raise ValueError(f"process {i + 1}: truth {realized!r} is not a grid point") from None
            d = spec.grid.nearest_kl[point][0]
        elif truth_models is not None:
            d = finite_kl(truth_models[i], spec.model_h0)
        else:
            d = finite_kl(spec.model_h1, spec.model_h0)
        if d == 0:
            raise ValueError(f"process {i + 1} has zero divergence; bound undefined")
        return d

    wald_time = {
        i: wald_boundaries(specs[i].alpha, specs[i].beta).upper_b / divergence(i)
        for i in abnormal
    }
    ordered = sorted(abnormal, key=lambda i: (-specs[i].cost_rate / wald_time[i], i))

    if m <= 1:
        total = 0.0
        acc = 0.0
        for i in ordered:
            acc += wald_time[i]
            total += specs[i].cost_rate * acc
        return total

    costs = {specs[i].cost_rate for i in ordered}
    if len(costs) > 1:
        raise ValueError("multi-probe bound is only derived for equal costs")
    k1 = len(ordered)
    total = 0.0
    for lane in range(1, m + 1):
        acc = 0.0
        for i in range(1, math.ceil(k1 / m) + 1):
            pos = lane + (i - 1) * m
            if pos > k1:
                break
            acc += wald_time[ordered[pos - 1]]
            total += specs[ordered[pos - 1]].cost_rate * acc
    return total
