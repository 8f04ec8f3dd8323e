"""Config-driven Monte Carlo experiments.

A config names a process set (explicit specs or a generator), a sweep
variable, the policies to compare, and an episode budget. Running it
produces one batch summary per (sweep point, policy), deterministic in
the master seed, ready to serialize as plot-ready CSV. At a sweep point
each episode's paths (``engine.EpisodePaths``) are built once and read
by every policy, so policies are compared on the same observations.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from seqscan.belief import expected_detection_time, index
from seqscan.composite import ParameterGrid, Region, StatisticKind
from seqscan.engine import (
    TIME_CAP,
    EpisodePaths,
    EpisodeResult,
    PolicyConfig,
    PolicyKind,
    ProcessSpec,
    initial_priority,
    lower_bound_oracle,
    run_episode,
)
from seqscan.models import Categorical, Gaussian, ObservationModel, Poisson, finite_kl
from seqscan.sprt import expected_sample_sizes


class ConfigError(ValueError):
    """Bad experiment config; message says which field or process."""


POLICY_NAMES = ("CL", "OL", "CL-no-explore")
SWEEP_VARIABLES = ("K", "d2", "c_e", "alpha")
STATISTIC_NAMES = ("SPRT", "GLR", "ALR")
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
    generator: dict | None = None  # every field of its kind, read with its type
    processes: tuple[ProcessSpec, ...] | None = None
    truth: tuple[bool, ...] | None = None
    alpha_match: dict | None = None

    def __post_init__(self) -> None:
        # the two nested objects are read here, once, so no later code reads them raw
        if self.generator is not None:
            object.__setattr__(self, "generator", _read_generator(self.generator))
        if self.alpha_match is not None:
            matched = _read_fields(self.alpha_match, _ALPHA_MATCH_FIELDS, "alpha_match")
            object.__setattr__(self, "alpha_match", matched)


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


# --- typed config reads ------------------------------------------------

_REQUIRED = object()

# how an error names each type: one value, and a list of them
_TYPE_NAMES = {
    float: ("a number", "numbers"),
    int: ("an integer", "integers"),
    bool: ("true or false", "true or false"),
    str: ("a string", "strings"),
    dict: ("an object", "objects"),
}


def _is(x, kind) -> bool:
    """x has the JSON type kind. A number is a JSON number, not a string
    or a boolean, and an integral one for int."""
    if kind is not float and kind is not int:
        return isinstance(x, kind)
    if not isinstance(x, numbers.Real) or isinstance(x, bool):
        return False
    return kind is float or isinstance(x, numbers.Integral) or float(x).is_integer()


def _read(obj: dict, name: str, kind, default=_REQUIRED, owner: str = ""):
    """obj[name] as kind: float, int, bool, str or dict, or a one-item list
    such as [float] for a list of that type. An absent field gives the
    default, and so does null when the default is None. A missing required
    field or a value of the wrong type is a ConfigError naming the field
    and its owner."""
    where = f"{owner}: " if owner else ""
    value = obj.get(name, default)
    if value is _REQUIRED:
        raise ConfigError(f"{where}missing field {name!r}")
    if value is None and default is None:
        return None
    many = isinstance(kind, list)
    item = kind[0] if many else kind
    items = value if many else (value,)
    if not (isinstance(items, (list, tuple)) and all(_is(x, item) for x in items)):
        one, several = _TYPE_NAMES[item]
        what = f"a list of {several}" if many else one
        raise ConfigError(f"{where}{name} must be {what}, got {value!r}")
    values = tuple(map(item, items))
    return values if many else values[0]


def _read_fields(obj: dict, fields: dict, owner: str = "") -> dict:
    """Every field of a table of name: (type, default), each read once;
    a key the table does not name is a ConfigError."""
    unknown = set(obj) - fields.keys()
    if unknown:
        raise ConfigError(f"{owner + ': ' if owner else ''}unknown keys {sorted(unknown)}")
    return {name: _read(obj, name, kind, default, owner) for name, (kind, default) in fields.items()}


_CONFIG_FIELDS = {
    "name": (str, _REQUIRED), "episodes": (int, _REQUIRED), "master_seed": (int, _REQUIRED),
    "policies": ([str], _REQUIRED), "sweep": (dict, _REQUIRED), "m": (int, 1),
    "zeta": (float, 1.7), "statistic": (str, "SPRT"), "generator": (dict, None),
    "processes": ([dict], None), "truth": ([bool], None), "alpha_match": (dict, None),
}
_SWEEP_FIELDS = {"variable": (str, _REQUIRED), "values": ([float], _REQUIRED)}
_ALPHA_MATCH_FIELDS = {"index_ratio": (float, _REQUIRED)}

# each generator kind's fields
_COMMON_FIELDS = {
    "kind": (str, _REQUIRED), "K": (int, None),
    "prior": (float, 0.5), "alpha": (float, 1e-3), "beta": (float, 1e-6),
}
_GENERATOR_FIELDS = {
    "equally_spaced_mixture": dict(
        _COMMON_FIELDS, low=(float, 10.0), high=(float, 20.0),
        ratios=([float], (1.5, 1.2)), weights=([float], (0.5, 0.5)),
    ),
    "two_tier": dict(
        _COMMON_FIELDS, low=(float, 10.0), high=(float, 20.0), ratio=(float, 1.5),
        equal_cost=(bool, False), d1=(int, 0), d2=(int, 0),
    ),
    "identical": dict(_COMMON_FIELDS, rate0=(float, 10.0), rate1=(float, 15.0), cost=(float, 1.0)),
}
GENERATOR_KINDS = tuple(_GENERATOR_FIELDS)


def _read_generator(gen: dict) -> dict:
    """Every field of the generator's kind, read by its kind's table; an
    absent field takes the table's default."""
    kind = _read(gen, "kind", str, owner="generator")
    if kind not in _GENERATOR_FIELDS:
        raise ConfigError(f"unknown generator kind {kind!r}; choose from {GENERATOR_KINDS}")
    return _read_fields(gen, _GENERATOR_FIELDS[kind], f"generator {kind}")


# --- model / process (de)serialization ---------------------------------

# each model family's class and its field table
_FAMILY = {"family": (str, _REQUIRED)}
_MODELS = {
    "poisson": (Poisson, dict(_FAMILY, rate=(float, _REQUIRED))),
    "gaussian": (Gaussian, dict(_FAMILY, mean=(float, _REQUIRED), stddev=(float, _REQUIRED))),
    "categorical": (Categorical, dict(_FAMILY, probs=([float], _REQUIRED))),
}
_GRID_FIELDS = {"models": ([dict], _REQUIRED), "regions": ([str], _REQUIRED)}
_PROCESS_FIELDS = {
    "prior": (float, _REQUIRED), "cost_rate": (float, _REQUIRED), "alpha": (float, _REQUIRED),
    "beta": (float, _REQUIRED), "switch_delay": (int, 0), "model_h0": (dict, None),
    "model_h1": (dict, None), "grid": (dict, None), "h0_weights": ([float], None),
    "h1_weights": ([float], None),
}


def _write_fields(obj, fields: dict, **given) -> dict:
    """The JSON object of a table's fields, each taken from given or else
    from obj's attribute of that name; a None value is left out."""
    values = ((name, given[name] if name in given else getattr(obj, name)) for name in fields)
    return {name: _json(value) for name, value in values if value is not None}


def _json(x):
    """x as JSON data: a process, grid or model as its object, a region
    as its name and a tuple as a list."""
    if isinstance(x, ProcessSpec):
        return process_to_json(x)
    if isinstance(x, ParameterGrid):
        return _write_fields(x, _GRID_FIELDS)
    if isinstance(x, ObservationModel):
        return model_to_json(x)
    if isinstance(x, Region):
        return x.value
    return list(map(_json, x)) if isinstance(x, tuple) else x


def model_to_json(model: ObservationModel) -> dict:
    for family, (cls, fields) in _MODELS.items():
        if type(model) is cls:
            return _write_fields(model, fields, family=family)
    raise ConfigError(f"unknown model type {type(model).__name__}")


def model_from_json(obj: dict) -> ObservationModel:
    family = _read(obj, "family", str, owner="model")
    if family not in _MODELS:
        raise ConfigError(f"unknown model family {family!r}")
    cls, fields = _MODELS[family]
    values = _read_fields(obj, fields, family)
    del values["family"]
    return cls(**values)


def process_to_json(spec: ProcessSpec) -> dict:
    return _write_fields(spec, _PROCESS_FIELDS)


def process_from_json(obj: dict, pid: int) -> ProcessSpec:
    """Build one spec; errors carry the 1-based process id."""
    try:
        for name, value in obj.items():
            if value is None:  # a field may be left out, but not given as null
                raise ConfigError(f"{name} must not be null")
        fields = _read_fields(obj, _PROCESS_FIELDS)
        if fields["grid"] is not None:
            grid = _read_fields(fields["grid"], _GRID_FIELDS, "grid")
            fields["grid"] = ParameterGrid(
                models=tuple(map(model_from_json, grid["models"])), regions=tuple(map(Region, grid["regions"]))
            )
        for name in ("model_h0", "model_h1"):
            if fields[name] is not None:
                fields[name] = model_from_json(fields[name])
        return ProcessSpec(**fields)
    except (ValueError, TypeError) as exc:  # TypeError: models of different families
        raise ConfigError(f"process {pid}: {exc}") from exc


# --- config (de)serialization and validation ---------------------------


def parse_config(text: str) -> ExperimentConfig:
    """Read a JSON config, each field once with its type; validate_config
    checks the values and builds the process sets."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    fields = _read_fields(raw, _CONFIG_FIELDS)
    sweep = _read_fields(fields.pop("sweep"), _SWEEP_FIELDS, "sweep")
    if fields["processes"] is not None:
        fields["processes"] = tuple(
            process_from_json(p, pid) for pid, p in enumerate(fields["processes"], start=1)
        )
    return ExperimentConfig(**fields, sweep_variable=sweep["variable"], sweep_values=sweep["values"])


def serialize_config(cfg: ExperimentConfig) -> str:
    gen = cfg.generator
    if gen is not None:  # the fields that differ from their defaults
        gen = {k: v for k, v in gen.items() if v != _GENERATOR_FIELDS[gen["kind"]][k][1]}
    sweep = {"variable": cfg.sweep_variable, "values": cfg.sweep_values}
    out = _write_fields(cfg, _CONFIG_FIELDS, sweep=sweep, generator=gen)
    return json.dumps(out, indent=2, sort_keys=True)


def _check_values(cfg: ExperimentConfig) -> None:
    """The config's values, short of building its process sets."""
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

    gen, var = cfg.generator, cfg.sweep_variable
    if (gen is None) == (cfg.processes is None):
        raise ConfigError("give exactly one of 'generator' or 'processes'")
    # every process takes an observation and a time unit gives at most m,
    # so more than m * TIME_CAP processes cannot finish under the time cap
    k_max = cfg.m * TIME_CAP
    if gen is not None and var != "K" and (gen["K"] is None or not 1 <= gen["K"] <= k_max):
        raise ConfigError(f"generator {gen['kind']}: K must be in [1, m * TIME_CAP = {k_max}], got {gen['K']}")

    if var == "K":
        if gen is None:
            raise ConfigError("a K sweep needs a generator to rebuild the process set")
        for v in cfg.sweep_values:
            if not (_is(v, int) and 1 <= v <= k_max):
                raise ConfigError(f"K sweep values must be integers in [1, m * TIME_CAP = {k_max}], got {v}")
    elif var == "d2":
        if gen is None or gen["kind"] != "two_tier":
            raise ConfigError("a d2 sweep needs the two_tier generator")
        for v in cfg.sweep_values:
            if not (_is(v, int) and v >= 0):
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


def validate_config(cfg: ExperimentConfig) -> tuple[tuple[ProcessSpec, ...], ...]:
    """Check the config's values, then build the process set of every
    sweep point as a run would and check each process in it; return the
    sets in sweep order."""
    _check_values(cfg)
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
            except TypeError as exc:  # models of different families or category counts
                raise ConfigError(f"{where}: {exc}") from exc
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


# --- process-set generators --------------------------------------------


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
    priority grows with e, so the root is unique. A model-pair template's
    priority is computed by the functions initial_priority calls, in the
    same order, without building a spec per step."""
    if not target_priority > 0:
        raise ConfigError(f"target priority must be positive, got {target_priority}")
    kl01, kl10 = finite_kl(template.model_h0, template.model_h1), finite_kl(template.model_h1, template.model_h0)

    def priority(e: float) -> float:
        sizes = expected_sample_sizes(e, e, kl01, kl10)
        return index(template.prior, template.cost_rate, expected_detection_time(template.prior, *sizes))

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
            k = int(sweep_value) if var == "K" else gen["K"]
            specs = _GENERATORS[gen["kind"]](gen, k)
        else:
            specs = cfg.processes
        if var == "c_e":
            e = 1.0 / sweep_value
            specs = tuple(replace(s, alpha=e, beta=e) for s in specs)
        elif var == "alpha":
            e = sweep_value
            if cfg.alpha_match is not None:
                first = replace(specs[0], alpha=e, beta=e)
                target = initial_priority(first) / cfg.alpha_match["index_ratio"]
                e2 = match_error_budget(specs[1], target)
                specs = (first, replace(specs[1], alpha=e2, beta=e2)) + specs[2:]
            else:
                specs = tuple(replace(s, alpha=e, beta=e) for s in specs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    except MemoryError as exc:
        raise ConfigError(f"{where}: the process set is too large to allocate") from exc

    if cfg.m > len(specs):
        raise ConfigError(
            f"sweep point {sweep_value}: m={cfg.m} exceeds the process count K={len(specs)}"
        )
    return specs


# --- sweep execution ----------------------------------------------------

_STATISTIC_KINDS = {"SPRT": StatisticKind.GLR, "GLR": StatisticKind.GLR, "ALR": StatisticKind.ALR}


def _policy_config(cfg: ExperimentConfig, name: str) -> PolicyConfig:
    if name == "OL":
        return PolicyConfig(kind=PolicyKind.OL, m=cfg.m)
    if name == "CL-no-explore":
        return PolicyConfig(kind=PolicyKind.CL, m=cfg.m, zeta=math.inf)
    return PolicyConfig(kind=PolicyKind.CL, m=cfg.m, zeta=cfg.zeta)


def _scaled_k(cfg: ExperimentConfig, k: float, scale: int) -> int:
    """K over the scale, floored at max(2, m), rounded up to even for
    two_tier."""
    w = max(2, cfg.m, round(k / scale))
    if cfg.generator is not None and cfg.generator["kind"] == "two_tier" and w % 2:
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
    if gen is not None and cfg.sweep_variable != "K" and gen["K"] is not None:
        gen = dict(gen, K=_scaled_k(cfg, gen["K"], scale))
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


def _run_point(
    cfg: ExperimentConfig, sweep_idx: int, sweep_value: float, specs: tuple[ProcessSpec, ...]
) -> list[BatchSummary]:
    """Every policy's batch at one sweep point, in the config's order.
    Each episode's paths are built once from its seed and read by every
    policy that has not failed; a policy that raises fails only its own
    batch, and the others go on."""
    episodes = cfg.episodes
    statistic = _STATISTIC_KINDS[cfg.statistic]
    policies = {name: _policy_config(cfg, name) for name in cfg.policies}
    records: dict[str, list[dict]] = {name: [] for name in cfg.policies}
    errors: dict[str, str] = {}
    bounds = np.full(episodes, math.nan)  # NaN where the bound is undefined, and so is their mean

    for ep in range(episodes):
        seed = np.random.SeedSequence(cfg.master_seed, spawn_key=(sweep_idx, ep))
        paths = None
        for name, policy in policies.items():
            if name in errors:
                continue
            try:  # isolation boundary: the error is reported in the summary
                if paths is None:
                    paths = EpisodePaths(specs, seed, statistic, forced_truth=cfg.truth)
                    # the truth is every policy's, and so is the bound
                    try:
                        bounds[ep] = lower_bound_oracle(specs, paths.truth, paths.truth_models, m=cfg.m)
                    except ValueError:
                        pass
                res = run_episode(paths, policy)
                records[name].append(_episode_record(ep, res, bounds[ep]))
            except Exception as exc:  # noqa: BLE001
                errors[name] = str(exc)

    return [
        BatchSummary(sweep_value=sweep_value, policy=name, episodes=0, error=errors[name])
        if name in errors
        else _summarize(cfg, sweep_value, name, specs, records[name], float(bounds.mean()))
        for name in cfg.policies
    ]


def _episode_record(ep: int, res: EpisodeResult, bound: float) -> dict:
    return {
        "episode": ep,
        "cost": res.cost,
        "samples": int(sum(res.samples)),
        "fa": int(sum(res.false_alarms)),
        "md": int(sum(res.miss_detects)),
        "abnormal": int(sum(res.truth)),
        "abnormal_time": int(sum(t for t, ab in zip(res.stop_times, res.truth) if ab)),
        "bound": float(bound),
    }


def _summarize(
    cfg: ExperimentConfig,
    sweep_value: float,
    policy_name: str,
    specs: tuple[ProcessSpec, ...],
    records: list[dict],
    mean_bound: float,
) -> BatchSummary:
    episodes = len(records)
    costs = np.array([r["cost"] for r in records], dtype=float)
    mean_cost = float(costs.mean())
    stderr = float(costs.std(ddof=1) / math.sqrt(episodes)) if episodes > 1 else math.nan
    fa_total = sum(r["fa"] for r in records)
    md_total = sum(r["md"] for r in records)
    abnormal_total = sum(r["abnormal"] for r in records)
    normal_total = len(specs) * episodes - abnormal_total

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
        c_e = sweep_value
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

    Deterministic in the master seed. The policies at a sweep point share
    each episode's seed and, built once from it, its paths: the truth and
    every process's observations and test statistics, so comparisons are
    paired and a process's samples to declaration are the same under
    every policy. Every sweep point's process set is built once and
    checked before any batch runs; a batch that fails while running is
    reported in its summary's error field while the rest of the sweep
    proceeds.
    """
    # the config as given must pass too: scaling K can hide a fault in its
    # process sets (an odd two_tier K), while overrides change none
    if scale > 1:
        validate_config(cfg)
    else:
        _check_values(cfg)
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
        point = _run_point(cfg, sweep_idx, value, specs)
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
