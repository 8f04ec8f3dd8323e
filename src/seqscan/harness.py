"""Config-driven Monte Carlo experiments.

A config names a process set (explicit specs or a generator), a sweep
variable, the policies to compare, and an episode budget. Running it
produces one batch summary per (sweep point, policy), deterministic in
the master seed, ready to serialize as plot-ready CSV.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from seqscan.composite import ParameterGrid, Region, StatisticKind
from seqscan.engine import (
    PolicyConfig,
    PolicyKind,
    ProcessSpec,
    initial_priority,
    lower_bound_oracle,
    run_episode,
)
from seqscan.models import Categorical, Gaussian, ObservationModel, Poisson


class ConfigError(ValueError):
    """Bad experiment config; message says which field or process."""


POLICY_NAMES = ("CL", "OL", "CL-no-explore")
SWEEP_VARIABLES = ("K", "d2", "c_e", "alpha")
STATISTIC_NAMES = ("SPRT", "GLR", "ALR")
GENERATOR_KINDS = ("equally_spaced_mixture", "two_tier", "identical")
FIGURE_NAMES = ("fig1", "fig2", "fig3", "fig4", "fig5")

CSV_COLUMNS = (
    "sweep_value",
    "policy",
    "episodes",
    "mean_cost",
    "stderr_cost",
    "fa_rate",
    "md_rate",
    "mean_samples",
    "lower_bound",
    "cost_over_bound",
    "rho",
)
EPISODE_COLUMNS = (
    "sweep_value",
    "policy",
    "episode",
    "cost",
    "samples",
    "fa",
    "md",
    "abnormal",
    "abnormal_time",
    "bound",
)


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    episodes: int
    master_seed: int
    policies: tuple[str, ...]
    sweep_variable: str
    sweep_values: tuple[float, ...]
    m: int = 1
    zeta: float = 1.7
    statistic: str = "SPRT"
    generator: dict | None = None
    processes: tuple[ProcessSpec, ...] | None = None
    truth: tuple[bool, ...] | None = None
    alpha_match: dict | None = None


@dataclass
class BatchSummary:
    """Aggregates for one (sweep point, policy) batch."""

    sweep_value: float
    policy: str
    episodes: int
    mean_cost: float = math.nan
    stderr_cost: float = math.nan
    fa_rate: float = math.nan
    md_rate: float = math.nan
    mean_samples: float = math.nan
    lower_bound: float = math.nan
    cost_over_bound: float = math.nan
    rho: float | None = None
    rho_se: float | None = None
    extra: dict = field(default_factory=dict)
    error: str | None = None
    episode_records: tuple[dict, ...] | None = None


# --- model / process (de)serialization ---------------------------------


def model_to_json(model: ObservationModel) -> dict:
    if isinstance(model, Poisson):
        return {"family": "poisson", "rate": model.rate}
    if isinstance(model, Gaussian):
        return {"family": "gaussian", "mean": model.mean, "stddev": model.stddev}
    if isinstance(model, Categorical):
        return {"family": "categorical", "probs": list(model.probs)}
    raise ConfigError(f"unknown model type {type(model).__name__}")


def model_from_json(obj) -> ObservationModel:
    if not isinstance(obj, dict) or "family" not in obj:
        raise ConfigError(f"model must be an object with a 'family' key, got {obj!r}")
    family = obj["family"]
    try:
        if family == "poisson":
            return Poisson(rate=float(obj["rate"]))
        if family == "gaussian":
            return Gaussian(mean=float(obj["mean"]), stddev=float(obj["stddev"]))
        if family == "categorical":
            return Categorical(probs=tuple(float(p) for p in obj["probs"]))
    except KeyError as exc:
        raise ConfigError(f"model {family!r} is missing field {exc}") from exc
    raise ConfigError(f"unknown model family {family!r}")


def process_to_json(spec: ProcessSpec) -> dict:
    out: dict = {
        "prior": spec.prior,
        "cost_rate": spec.cost_rate,
        "alpha": spec.alpha,
        "beta": spec.beta,
        "switch_delay": spec.switch_delay,
    }
    if spec.is_composite:
        out["grid"] = {
            "models": [model_to_json(m) for m in spec.grid.models],
            "regions": [r.value for r in spec.grid.regions],
        }
        if spec.h0_weights is not None:
            out["h0_weights"] = list(spec.h0_weights)
        if spec.h1_weights is not None:
            out["h1_weights"] = list(spec.h1_weights)
    else:
        out["model_h0"] = model_to_json(spec.model_h0)
        out["model_h1"] = model_to_json(spec.model_h1)
    return out


_PROCESS_KEYS = {
    "prior", "cost_rate", "alpha", "beta", "switch_delay",
    "model_h0", "model_h1", "grid", "h0_weights", "h1_weights",
}


def process_from_json(obj: dict, pid: int) -> ProcessSpec:
    """Build one spec; errors carry the 1-based process id."""
    if not isinstance(obj, dict):
        raise ConfigError(f"process {pid}: expected an object, got {obj!r}")
    unknown = set(obj) - _PROCESS_KEYS
    if unknown:
        raise ConfigError(f"process {pid}: unknown keys {sorted(unknown)}")
    try:
        grid = None
        if "grid" in obj:
            gobj = obj["grid"]
            regions = tuple(Region(r) for r in gobj["regions"])
            grid = ParameterGrid(
                models=tuple(model_from_json(m) for m in gobj["models"]),
                regions=regions,
            )
        return ProcessSpec(
            prior=float(obj["prior"]),
            cost_rate=float(obj["cost_rate"]),
            alpha=float(obj["alpha"]),
            beta=float(obj["beta"]),
            model_h0=model_from_json(obj["model_h0"]) if "model_h0" in obj else None,
            model_h1=model_from_json(obj["model_h1"]) if "model_h1" in obj else None,
            grid=grid,
            h0_weights=tuple(obj["h0_weights"]) if "h0_weights" in obj else None,
            h1_weights=tuple(obj["h1_weights"]) if "h1_weights" in obj else None,
            switch_delay=_integer(obj.get("switch_delay", 0), "switch_delay"),
        )
    except KeyError as exc:
        raise ConfigError(f"process {pid}: missing field {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"process {pid}: {exc}") from exc


# --- config (de)serialization and validation ---------------------------

_CONFIG_KEYS = {
    "name", "episodes", "master_seed", "m", "zeta", "statistic",
    "policies", "sweep", "generator", "processes", "truth", "alpha_match",
}

_GENERATOR_KEYS = {
    "equally_spaced_mixture": {
        "kind", "K", "low", "high", "ratios", "weights", "prior", "alpha", "beta",
    },
    "two_tier": {
        "kind", "K", "low", "high", "ratio", "prior", "alpha", "beta",
        "equal_cost", "d1", "d2",
    },
    "identical": {"kind", "K", "rate0", "rate1", "cost", "prior", "alpha", "beta"},
}


def parse_config(text: str) -> ExperimentConfig:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    sweep = raw.get("sweep")
    if not isinstance(sweep, dict) or set(sweep) != {"variable", "values"}:
        raise ConfigError("sweep must be an object with keys 'variable' and 'values'")
    processes = None
    if raw.get("processes") is not None:
        processes = tuple(
            process_from_json(p, i + 1) for i, p in enumerate(raw["processes"])
        )
    truth = raw.get("truth")
    if truth is not None and not (
        isinstance(truth, list) and all(isinstance(b, bool) for b in truth)
    ):
        raise ConfigError(f"truth must be a list of true or false, got {truth!r}")
    try:
        cfg = ExperimentConfig(
            name=raw["name"],
            episodes=_integer(raw["episodes"], "episodes"),
            master_seed=_integer(raw["master_seed"], "master_seed"),
            policies=tuple(raw["policies"]),
            sweep_variable=sweep["variable"],
            sweep_values=tuple(float(v) for v in sweep["values"]),
            m=_integer(raw.get("m", 1), "m"),
            zeta=float(raw.get("zeta", 1.7)),
            statistic=raw.get("statistic", "SPRT"),
            generator=raw.get("generator"),
            processes=processes,
            truth=tuple(truth) if truth is not None else None,
            alpha_match=raw.get("alpha_match"),
        )
    except KeyError as exc:
        raise ConfigError(f"missing config field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    validate_config(cfg)
    return cfg


def serialize_config(cfg: ExperimentConfig) -> str:
    out: dict = {
        "name": cfg.name,
        "episodes": cfg.episodes,
        "master_seed": cfg.master_seed,
        "m": cfg.m,
        "zeta": cfg.zeta,
        "statistic": cfg.statistic,
        "policies": list(cfg.policies),
        "sweep": {"variable": cfg.sweep_variable, "values": list(cfg.sweep_values)},
    }
    if cfg.generator is not None:
        out["generator"] = cfg.generator
    if cfg.processes is not None:
        out["processes"] = [process_to_json(p) for p in cfg.processes]
    if cfg.truth is not None:
        out["truth"] = list(cfg.truth)
    if cfg.alpha_match is not None:
        out["alpha_match"] = cfg.alpha_match
    return json.dumps(out, indent=2, sort_keys=True)


def validate_config(cfg: ExperimentConfig) -> tuple[tuple[ProcessSpec, ...], ...]:
    """Check the config's fields, then build the process set of every
    sweep point as a run would and check each process in it; return the
    sets in sweep order."""
    if not isinstance(cfg.name, str) or not cfg.name:
        raise ConfigError("name must be a nonempty string")
    if cfg.episodes < 0:
        raise ConfigError(f"episodes must be >= 0, got {cfg.episodes}")
    if cfg.master_seed < 0:
        raise ConfigError(f"master_seed must be >= 0, got {cfg.master_seed}")
    if cfg.m < 1:
        raise ConfigError(f"m must be >= 1, got {cfg.m}")
    if not (math.isfinite(cfg.zeta) and cfg.zeta > 1.0):
        raise ConfigError(f"zeta must be finite and > 1, got {cfg.zeta}")
    if cfg.statistic not in STATISTIC_NAMES:
        raise ConfigError(f"statistic must be one of {STATISTIC_NAMES}, got {cfg.statistic!r}")
    if not cfg.policies:
        raise ConfigError("policies must be nonempty")
    if len(set(cfg.policies)) != len(cfg.policies):
        raise ConfigError("policies must not repeat")
    for p in cfg.policies:
        if p not in POLICY_NAMES:
            raise ConfigError(f"unknown policy {p!r}; choose from {POLICY_NAMES}")
    if cfg.sweep_variable not in SWEEP_VARIABLES:
        raise ConfigError(
            f"sweep variable must be one of {SWEEP_VARIABLES}, got {cfg.sweep_variable!r}"
        )
    if not cfg.sweep_values:
        raise ConfigError("sweep values must be nonempty")

    if (cfg.generator is None) == (cfg.processes is None):
        raise ConfigError("give exactly one of 'generator' or 'processes'")
    if cfg.generator is not None:
        _validate_generator(cfg.generator, needs_k=cfg.sweep_variable != "K")

    var = cfg.sweep_variable
    if var == "K":
        if cfg.generator is None:
            raise ConfigError("a K sweep needs a generator to rebuild the process set")
        for v in cfg.sweep_values:
            if v != int(v) or v < 1:
                raise ConfigError(f"K sweep values must be positive integers, got {v}")
    elif var == "d2":
        if cfg.generator is None or cfg.generator.get("kind") != "two_tier":
            raise ConfigError("a d2 sweep needs the two_tier generator")
        for v in cfg.sweep_values:
            if v != int(v) or v < 0:
                raise ConfigError(f"d2 sweep values must be nonnegative integers, got {v}")
    elif var == "c_e":
        # alpha = beta = 1/c_e must leave alpha + beta < 1
        for v in cfg.sweep_values:
            if not v > 2:
                raise ConfigError(f"c_e sweep values must exceed 2, got {v}")
    elif var == "alpha":
        for v in cfg.sweep_values:
            if not 0 < v < 0.5:
                raise ConfigError(f"alpha sweep values must lie in (0, 0.5), got {v}")

    if cfg.alpha_match is not None:
        if var != "alpha":
            raise ConfigError("alpha_match only applies to an alpha sweep")
        if set(cfg.alpha_match) != {"index_ratio"}:
            raise ConfigError("alpha_match must have exactly the key 'index_ratio'")
        if not cfg.alpha_match["index_ratio"] > 0:
            raise ConfigError("alpha_match index_ratio must be positive")
        if cfg.processes is None or len(cfg.processes) != 2:
            raise ConfigError("alpha_match needs exactly 2 explicit processes")
        if any(p.is_composite for p in cfg.processes):
            raise ConfigError("alpha_match only supports fully specified model pairs")

    if cfg.truth is not None:
        if cfg.processes is None:
            raise ConfigError("a forced truth vector needs explicit processes")
        if len(cfg.truth) != len(cfg.processes):
            raise ConfigError(
                f"truth length {len(cfg.truth)} != process count {len(cfg.processes)}"
            )

    point_sets = tuple(materialize_processes(cfg, v) for v in cfg.sweep_values)
    if cfg.statistic == "SPRT" and any(s.is_composite for specs in point_sets for s in specs):
        raise ConfigError("parameter-grid processes need the GLR or ALR statistic")
    checked: set[int] = set()  # a spec shared by many processes is checked once
    for v, specs in zip(cfg.sweep_values, point_sets):
        for pid, spec in enumerate(specs, start=1):
            if id(spec) in checked:
                continue
            checked.add(id(spec))
            where = f"sweep point {v}: process {pid}"
            if spec.is_composite:
                _validate_grid_decidable(spec, where)
                continue
            try:
                spec.table  # Wald's sizes need a positive divergence either way
            except ValueError as exc:
                raise ConfigError(f"{where}: its two models cannot be told apart ({exc})") from exc
    return point_sets


def _validate_grid_decidable(spec: ProcessSpec, where: str) -> None:
    """A truth point that can be drawn (positive weight) and sits at zero
    divergence from the opposite region gives its test no drift, so
    episodes would only end at the time cap."""
    grid = spec.grid
    for abnormal, side, region, opposite in (
        (False, 1, Region.THETA0, Region.THETA1),
        (True, 0, Region.THETA1, Region.THETA0),
    ):
        for i, w in spec.truth_points(abnormal):
            if w > 0 and grid.nearest_kl[i][side] == 0:
                raise ConfigError(
                    f"{where}: grid point {i} ({grid.models[i]}) in {region.value} "
                    f"has zero divergence to {opposite.value}; its test can never decide"
                )


def _validate_generator(gen: dict, needs_k: bool) -> None:
    """The generator's kind, keys and field types; what its processes
    need is checked on the processes it builds."""
    if not isinstance(gen, dict) or "kind" not in gen:
        raise ConfigError("generator must be an object with a 'kind' key")
    kind = gen["kind"]
    if kind not in GENERATOR_KINDS:
        raise ConfigError(f"unknown generator kind {kind!r}; choose from {GENERATOR_KINDS}")
    unknown = set(gen) - _GENERATOR_KEYS[kind]
    if unknown:
        raise ConfigError(f"generator {kind}: unknown keys {sorted(unknown)}")
    k = _generator_fields(gen)["K"]
    if needs_k and (k is None or k < 1):
        raise ConfigError(f"generator {kind}: K must be given and positive")


# --- process-set generators --------------------------------------------

# each generator field's default and type; a tuple default marks a list
_GENERATOR_FIELDS = {
    "K": (None, int), "low": (10.0, float), "high": (20.0, float),
    "ratios": ((1.5, 1.2), float), "weights": ((0.5, 0.5), float), "ratio": (1.5, float),
    "prior": (0.5, float), "alpha": (1e-3, float), "beta": (1e-6, float),
    "d1": (0, int), "d2": (0, int), "rate0": (10.0, float), "rate1": (15.0, float),
    "cost": (1.0, float), "equal_cost": (False, bool),
}


def _is_number(x, cast) -> bool:
    """x is a JSON number, and an integral one when cast is int."""
    if not isinstance(x, numbers.Real) or isinstance(x, bool):
        return False
    return cast is float or isinstance(x, numbers.Integral) or float(x).is_integer()


def _integer(value, name: str) -> int:
    """An integral JSON number as an int, or a ConfigError naming the field."""
    if not _is_number(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _generator_fields(gen: dict) -> dict:
    """The fields of a generator's kind, defaults filled in, each read as
    its type. A number field must hold a number (an integral one for an
    int field), a list field a list of numbers and a flag a boolean, or
    the ConfigError names the field; only K may be absent."""
    kind, out = gen["kind"], {}
    for name in _GENERATOR_KEYS[kind] & _GENERATOR_FIELDS.keys():
        default, cast = _GENERATOR_FIELDS[name]
        value = gen.get(name, default)
        many = isinstance(default, tuple)
        items = value if many else [value]
        if cast is bool:
            ok, what = isinstance(value, bool), "true or false"
        else:
            ok = isinstance(items, (list, tuple)) and all(_is_number(x, cast) for x in items)
            what = "a list of numbers" if many else "an integer" if cast is int else "a number"
        if not ok and not (value is None and default is None):
            raise ConfigError(f"generator {kind}: {name} must be {what}, got {value!r}")
        out[name] = value if value is None else tuple(map(cast, items)) if many else cast(value)
    return out


def _gen_equally_spaced_mixture(f: dict, k: int) -> tuple[ProcessSpec, ...]:
    low, ratios = f["low"], f["ratios"]
    rates = np.linspace(low, f["high"], k) if k > 1 else np.array([low])
    specs = []
    for r0 in rates:
        models = (Poisson(float(r0)),) + tuple(Poisson(float(r0 * r)) for r in ratios)
        regions = (Region.THETA0,) + (Region.THETA1,) * len(ratios)
        specs.append(
            ProcessSpec(
                prior=f["prior"],
                cost_rate=float(r0),
                alpha=f["alpha"],
                beta=f["beta"],
                grid=ParameterGrid(models=models, regions=regions),
                h1_weights=f["weights"],
            )
        )
    return tuple(specs)


def _gen_two_tier(f: dict, k: int) -> tuple[ProcessSpec, ...]:
    if k % 2:
        raise ConfigError(f"K must be even, got {k}")
    specs = []
    for i in range(k):
        r0 = f["low"] if i < k // 2 else f["high"]
        specs.append(
            ProcessSpec(
                prior=f["prior"],
                cost_rate=1.0 if f["equal_cost"] else r0,
                alpha=f["alpha"],
                beta=f["beta"],
                model_h0=Poisson(r0),
                model_h1=Poisson(f["ratio"] * r0),
                switch_delay=f["d1"] if i < k // 2 else f["d2"],
            )
        )
    return tuple(specs)


def _gen_identical(f: dict, k: int) -> tuple[ProcessSpec, ...]:
    spec = ProcessSpec(
        prior=f["prior"],
        cost_rate=f["cost"],
        alpha=f["alpha"],
        beta=f["beta"],
        model_h0=Poisson(f["rate0"]),
        model_h1=Poisson(f["rate1"]),
    )
    return (spec,) * k


_GENERATORS = {
    "equally_spaced_mixture": _gen_equally_spaced_mixture,
    "two_tier": _gen_two_tier,
    "identical": _gen_identical,
}


def match_error_budget(
    template: ProcessSpec, target_priority: float, lo: float = 1e-15, hi: float = 0.499
) -> float:
    """Symmetric error budget e with initial_priority(template at
    alpha=beta=e) equal to target_priority, by bisection in log e. The
    priority grows with e, so the root is unique."""
    if not target_priority > 0:
        raise ConfigError(f"target priority must be positive, got {target_priority}")

    def priority(e: float) -> float:
        return initial_priority(replace(template, alpha=e, beta=e))

    if priority(hi) < target_priority or priority(lo) > target_priority:
        raise ConfigError(
            f"no symmetric error budget in [{lo}, {hi}] reaches priority {target_priority}"
        )
    llo, lhi = math.log(lo), math.log(hi)
    mid = 0.5 * (llo + lhi)
    # once the midpoint rounds onto an endpoint, every further step repeats it
    while llo < mid < lhi:
        if priority(math.exp(mid)) < target_priority:
            llo = mid
        else:
            lhi = mid
        mid = 0.5 * (llo + lhi)
    return math.exp(mid)


def materialize_processes(cfg: ExperimentConfig, sweep_value: float) -> tuple[ProcessSpec, ...]:
    """Process set for one sweep point, overrides applied. A set that
    cannot be built, or that has fewer than m processes, is a
    ConfigError naming the sweep point."""
    var = cfg.sweep_variable
    where = f"sweep point {sweep_value}"
    try:
        if cfg.generator is not None:
            where += f": generator {cfg.generator['kind']}"
            gen = dict(cfg.generator, d2=int(sweep_value)) if var == "d2" else cfg.generator
            fields = _generator_fields(gen)
            k = int(sweep_value) if var == "K" else fields["K"]
            specs = _GENERATORS[gen["kind"]](fields, k)
        else:
            specs = cfg.processes
        if var == "c_e":
            e = 1.0 / float(sweep_value)
            specs = tuple(replace(s, alpha=e, beta=e) for s in specs)
        elif var == "alpha":
            v = float(sweep_value)
            if cfg.alpha_match is not None:
                first = replace(specs[0], alpha=v, beta=v)
                target = initial_priority(first) / float(cfg.alpha_match["index_ratio"])
                e2 = match_error_budget(specs[1], target)
                specs = (first, replace(specs[1], alpha=e2, beta=e2)) + specs[2:]
            else:
                specs = tuple(replace(s, alpha=v, beta=v) for s in specs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc

    if cfg.m > len(specs):
        raise ConfigError(
            f"sweep point {sweep_value}: m={cfg.m} exceeds the process count K={len(specs)}"
        )
    return specs


# --- sweep execution ----------------------------------------------------

_STATISTIC_KINDS = {"SPRT": StatisticKind.GLR, "GLR": StatisticKind.GLR, "ALR": StatisticKind.ALR}


def _policy_config(cfg: ExperimentConfig, name: str) -> PolicyConfig:
    stat = _STATISTIC_KINDS[cfg.statistic]
    if name == "OL":
        return PolicyConfig(kind=PolicyKind.OL, m=cfg.m, statistic=stat)
    if name == "CL-no-explore":
        return PolicyConfig(kind=PolicyKind.CL, m=cfg.m, zeta=math.inf, statistic=stat)
    return PolicyConfig(kind=PolicyKind.CL, m=cfg.m, zeta=cfg.zeta, statistic=stat)


def _scaled_k(cfg: ExperimentConfig, k: float, scale: int) -> int:
    """K over the scale, floored at max(2, m), rounded up to even for
    two_tier."""
    w = max(2, cfg.m, round(k / scale))
    if cfg.generator is not None and cfg.generator.get("kind") == "two_tier" and w % 2:
        w += 1
    return w


def scaled_sweep_values(cfg: ExperimentConfig, scale: int) -> tuple[float, ...]:
    """Desk-scale shrink: K values divide by the scale factor (see
    _scaled_k, deduplicated); other variables pass through."""
    if scale <= 1 or cfg.sweep_variable != "K":
        return cfg.sweep_values
    out: list[float] = []
    seen: set[int] = set()
    for v in cfg.sweep_values:
        w = _scaled_k(cfg, v, scale)
        if w not in seen:
            seen.add(w)
            out.append(float(w))
    return tuple(out)


def apply_scale(cfg: ExperimentConfig, scale: int) -> ExperimentConfig:
    if scale < 1:
        raise ConfigError(f"scale must be >= 1, got {scale}")
    if scale == 1:
        return cfg
    gen = cfg.generator
    if gen is not None and cfg.sweep_variable != "K" and gen.get("K") is not None:
        gen = dict(gen, K=_scaled_k(cfg, int(gen["K"]), scale))
    return replace(
        cfg,
        episodes=max(1, cfg.episodes // scale) if cfg.episodes else 0,
        sweep_values=scaled_sweep_values(cfg, scale),
        generator=gen,
    )


def _ratio_stderr(num: np.ndarray, den: np.ndarray) -> float | None:
    """Delta-method standard error for mean(num)/mean(den) with paired
    (common-random-number) samples."""
    n = len(num)
    if n < 2:
        return None
    mx, my = float(num.mean()), float(den.mean())
    if my == 0:
        return None
    cov = np.cov(num, den, ddof=1)
    var = (
        cov[0, 0] / my**2
        - 2.0 * mx * cov[0, 1] / my**3
        + mx**2 * cov[1, 1] / my**4
    ) / n
    return math.sqrt(max(float(var), 0.0))


def _run_batch(
    cfg: ExperimentConfig,
    sweep_idx: int,
    sweep_value: float,
    policy_name: str,
    specs: tuple[ProcessSpec, ...],
    episodes: int,
) -> BatchSummary:
    policy = _policy_config(cfg, policy_name)
    bounds = np.empty(episodes)
    bounds_ok = True
    records: list[dict] = []

    for ep in range(episodes):
        seed = np.random.SeedSequence(cfg.master_seed, spawn_key=(sweep_idx, ep))
        res = run_episode(specs, policy, seed, forced_truth=cfg.truth)
        if bounds_ok:
            try:
                bounds[ep] = lower_bound_oracle(specs, res.truth, res.truth_models, m=cfg.m)
            except ValueError:
                bounds_ok = False
        records.append(
            {
                "episode": ep,
                "cost": res.cost,
                "samples": int(sum(res.samples)),
                "fa": int(sum(res.false_alarms)),
                "md": int(sum(res.miss_detects)),
                "abnormal": int(sum(res.truth)),
                "abnormal_time": int(
                    sum(t for t, ab in zip(res.stop_times, res.truth) if ab)
                ),
                "bound": float(bounds[ep]) if bounds_ok else math.nan,
            }
        )

    costs = np.array([r["cost"] for r in records], dtype=float)
    mean_cost = float(costs.mean())
    stderr = float(costs.std(ddof=1) / math.sqrt(episodes)) if episodes > 1 else math.nan
    fa_total = sum(r["fa"] for r in records)
    md_total = sum(r["md"] for r in records)
    abnormal_total = sum(r["abnormal"] for r in records)
    normal_total = len(specs) * episodes - abnormal_total
    mean_bound = float(bounds.mean()) if bounds_ok else math.nan

    def rate(count: int, denom: int) -> float:
        return count / denom if denom else math.nan

    summary = BatchSummary(
        sweep_value=sweep_value,
        policy=policy_name,
        episodes=episodes,
        mean_cost=mean_cost,
        stderr_cost=stderr,
        fa_rate=rate(fa_total, normal_total),
        md_rate=rate(md_total, abnormal_total),
        mean_samples=sum(r["samples"] for r in records) / episodes,
        lower_bound=mean_bound,
        cost_over_bound=mean_cost / mean_bound if mean_bound and mean_bound > 0 else math.nan,
    )

    if cfg.sweep_variable == "c_e":
        c_e = float(sweep_value)
        # a rate with no episode behind it (NaN) adds nothing; the other counts
        err = 0.0
        for error_rate in (summary.fa_rate, summary.md_rate):
            if not math.isnan(error_rate):
                err += error_rate
        for r in records:
            r["risk"] = r["abnormal_time"] / c_e + r["abnormal"] * err
        risks = np.array([r["risk"] for r in records])
        mean_risk = float(risks.mean())
        summary.extra = {
            "mean_risk": mean_risk,
            "stderr_risk": float(risks.std(ddof=1) / math.sqrt(episodes))
            if episodes > 1
            else math.nan,
            "log_ce": math.log(c_e),
            "log_R": math.log(mean_risk) if mean_risk > 0 else math.nan,
        }

    summary.episode_records = tuple(records)
    return summary


def run_experiment(
    cfg: ExperimentConfig,
    scale: int = 1,
    episodes_override: int | None = None,
    seed_override: int | None = None,
    per_episode: bool = False,
) -> list[BatchSummary]:
    """Execute the sweep: one batch per (sweep point, policy).

    Deterministic in the master seed; episodes share RNG substreams
    across policies at a sweep point, so comparisons are paired. Every
    sweep point's process set is built and checked before any batch
    runs; a batch that fails while running is reported in its summary's
    error field while the rest of the sweep proceeds.
    """
    validate_config(cfg)
    if episodes_override is not None:
        cfg = replace(cfg, episodes=int(episodes_override))
    if seed_override is not None:
        cfg = replace(cfg, master_seed=int(seed_override))
    cfg = apply_scale(cfg, scale)
    point_sets = validate_config(cfg)
    if cfg.episodes == 0:
        return []

    baseline = next((p for p in ("OL", "CL-no-explore") if p in cfg.policies), None)

    out: list[BatchSummary] = []
    for sweep_idx, (value, specs) in enumerate(zip(cfg.sweep_values, point_sets)):
        point: list[BatchSummary] = []
        for name in cfg.policies:
            try:
                point.append(_run_batch(cfg, sweep_idx, value, name, specs, cfg.episodes))
            except Exception as exc:  # noqa: BLE001  (isolation boundary)
                point.append(
                    BatchSummary(sweep_value=value, policy=name, episodes=0, error=str(exc))
                )
        base = next((s for s in point if s.policy == baseline and s.error is None), None)
        if base is not None and base.mean_cost and not math.isnan(base.mean_cost):
            base_costs = np.array([r["cost"] for r in base.episode_records])
            for s in point:
                if s is base or s.error is not None:
                    continue
                s.rho = s.mean_cost / base.mean_cost
                own = np.array([r["cost"] for r in s.episode_records])
                s.rho_se = _ratio_stderr(own, base_costs)
        if not per_episode:
            for s in point:
                s.episode_records = None
        out.extend(point)
    return out


# --- CSV emission -------------------------------------------------------


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    xf = float(x)
    if math.isnan(xf):
        return ""
    return f"{xf:.10g}"


def _write_lines(columns: tuple[str, ...], rows, path_or_file) -> None:
    """A header and one line of formatted cells per row, newline
    terminated, to an open stream or to a path."""
    lines = [",".join(columns)] + [",".join(map(_fmt, row)) for row in rows]
    text = "\n".join(lines) + "\n"
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
        return
    try:
        with open(path_or_file, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path_or_file}: {exc}") from exc


def emit_csv(summaries: list[BatchSummary], path_or_file) -> None:
    """Header plus one row per batch, 10 significant digits, stable row
    order. Rows for failed batches keep their numeric cells empty."""
    extra = ("log_ce", "log_R") if any("log_ce" in s.extra for s in summaries) else ()
    rows = (
        [getattr(s, c) for c in CSV_COLUMNS] + [s.extra.get(c, math.nan) for c in extra]
        for s in summaries
    )
    _write_lines(CSV_COLUMNS + extra, rows, path_or_file)


def emit_per_episode_csv(summaries: list[BatchSummary], path_or_file) -> None:
    """One row per episode for every batch that retained its records."""
    risk = any(
        s.episode_records and any("risk" in r for r in s.episode_records) for s in summaries
    )
    columns = EPISODE_COLUMNS + (("risk",) if risk else ())
    # every column after sweep_value and policy is a record field
    rows = (
        [s.sweep_value, s.policy] + [r.get(c, math.nan) for c in columns[2:]]
        for s in summaries
        for r in s.episode_records or ()
    )
    _write_lines(columns, rows, path_or_file)


# --- bundled studies ----------------------------------------------------


def figure_config(name: str) -> ExperimentConfig:
    """Bundled experiment recipes, runnable at full or desk scale."""
    if name == "fig1":
        # equally spaced normal rates, two-level deviation mixture,
        # grid tests, cost proportional to normal traffic
        return ExperimentConfig(
            name="fig1",
            episodes=10_000,
            master_seed=0,
            policies=("CL", "OL"),
            sweep_variable="K",
            sweep_values=(4.0, 8.0, 12.0, 16.0),
            statistic="GLR",
            generator={"kind": "equally_spaced_mixture"},
        )
    if name == "fig2":
        # five probes at a time, two rate tiers, equal costs
        return ExperimentConfig(
            name="fig2",
            episodes=10_000,
            master_seed=0,
            policies=("CL", "OL"),
            sweep_variable="K",
            sweep_values=(10.0, 20.0),
            m=5,
            generator={"kind": "two_tier", "equal_cost": True},
        )
    if name == "fig3":
        # switching-delay sensitivity: slow tier delay swept upward
        return ExperimentConfig(
            name="fig3",
            episodes=10_000,
            master_seed=0,
            policies=("CL", "OL"),
            sweep_variable="d2",
            sweep_values=tuple(float(d) for d in range(9)),
            generator={"kind": "two_tier", "K": 8, "d1": 1},
        )
    if name == "fig4":
        # normalized risk versus the declaration-error cost
        return ExperimentConfig(
            name="fig4",
            episodes=10_000,
            master_seed=0,
            policies=("CL",),
            sweep_variable="c_e",
            sweep_values=tuple(10.0 ** (1.0 + 0.5 * i) for i in range(7)),
            generator={"kind": "identical", "K": 10},
        )
    if name == "fig5":
        # two barely separated processes; frequent exploration versus
        # none, second error budget matched to halve the initial priority
        p1 = ProcessSpec(
            prior=0.9, cost_rate=1.0, alpha=1e-2, beta=1e-2,
            model_h0=Poisson(10.0), model_h1=Poisson(10.1),
        )
        p2 = ProcessSpec(
            prior=0.1, cost_rate=1.0, alpha=1e-2, beta=1e-2,
            model_h0=Poisson(10.0), model_h1=Poisson(10.3),
        )
        return ExperimentConfig(
            name="fig5",
            episodes=10_000,
            master_seed=0,
            policies=("CL", "CL-no-explore"),
            sweep_variable="alpha",
            sweep_values=(1e-1, 3e-2, 1e-2, 3e-3),
            zeta=1.005,
            processes=(p1, p2),
            alpha_match={"index_ratio": 2.0},
        )
    raise ConfigError(f"unknown figure {name!r}; choose from {FIGURE_NAMES}")
