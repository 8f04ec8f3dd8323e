"""Experiment harness: config codec, generators, sweeps, CSV, CLI."""

import hashlib
import io
import json
import math
import os
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqscan import harness
from seqscan.cli import main
from seqscan.composite import ParameterGrid, Region
from seqscan.harness import (
    CSV_COLUMNS,
    ConfigError,
    ExperimentConfig,
    apply_scale,
    emit_csv,
    emit_per_episode_csv,
    figure_config,
    match_error_budget,
    materialize_processes,
    parse_config,
    run_experiment,
    scaled_sweep_values,
    serialize_config,
    validate_config,
)
from seqscan.engine import TIME_CAP, EpisodePaths, ProcessSpec, lower_bound_oracle
from seqscan.models import Categorical, Gaussian, Poisson


def tiny_config(**overrides) -> ExperimentConfig:
    base = dict(
        name="tiny",
        episodes=20,
        master_seed=5,
        policies=("CL", "OL"),
        sweep_variable="K",
        sweep_values=(2.0,),
        generator={"kind": "identical", "rate0": 10.0, "rate1": 15.0,
                   "alpha": 1e-2, "beta": 1e-2},
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# --- codec -------------------------------------------------------------


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "fig4", "fig5"])
def test_recipe_round_trip(name):
    cfg = figure_config(name)
    assert parse_config(serialize_config(cfg)) == cfg


def test_explicit_process_round_trip():
    cfg = tiny_config(
        generator=None,
        processes=(
            ProcessSpec(prior=0.3, cost_rate=2.0, alpha=1e-2, beta=1e-3,
                        model_h0=Poisson(10.0), model_h1=Poisson(15.0),
                        switch_delay=2),
        ),
        sweep_variable="alpha",
        sweep_values=(0.05, 0.01),
        truth=(True,),
    )
    assert parse_config(serialize_config(cfg)) == cfg


_unit = st.floats(0.0, 1.0)
_budget = st.floats(1e-9, 0.49)


@st.composite
def _probs(draw, n):
    """n finite weights that sum to 1 within rounding."""
    raw = draw(st.lists(st.integers(1, 100), min_size=n, max_size=n))
    return tuple(x / sum(raw) for x in raw)


@st.composite
def _model_pair(draw):
    family = draw(st.sampled_from(("poisson", "gaussian", "categorical")))
    if family == "poisson":
        return tuple(Poisson(draw(st.floats(0.1, 100.0))) for _ in range(2))
    if family == "gaussian":
        return tuple(Gaussian(draw(st.floats(-10.0, 10.0)), draw(st.floats(0.1, 10.0))) for _ in range(2))
    n = draw(st.integers(1, 4))
    return tuple(Categorical(draw(_probs(n))) for _ in range(2))


@st.composite
def _grid_fields(draw):
    n0, n1, ni = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(0, 2))
    regions = draw(st.permutations([Region.THETA0] * n0 + [Region.THETA1] * n1 + [Region.INDIFFERENCE] * ni))
    models = tuple(Poisson(draw(st.floats(0.1, 100.0))) for _ in regions)
    fields = {"grid": ParameterGrid(models, tuple(regions))}
    for name, n in (("h0_weights", n0), ("h1_weights", n1)):
        if draw(st.booleans()):
            fields[name] = draw(_probs(n))
    return fields


@st.composite
def _explicit_config(draw):
    specs = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            h0, h1 = draw(_model_pair())
            models = {"model_h0": h0, "model_h1": h1}
        else:
            models = draw(_grid_fields())
        specs.append(ProcessSpec(
            prior=draw(_unit), cost_rate=draw(st.floats(0.0, 10.0)), alpha=draw(_budget),
            beta=draw(_budget), switch_delay=draw(st.integers(0, 5)), **models,
        ))
    truth = draw(st.none() | st.lists(st.booleans(), min_size=len(specs), max_size=len(specs)).map(tuple))
    return tiny_config(generator=None, processes=tuple(specs), truth=truth,
                       statistic=draw(st.sampled_from(harness.STATISTIC_NAMES)),
                       sweep_variable="alpha", sweep_values=(0.01, 0.1))


@settings(max_examples=60, deadline=None)
@given(_explicit_config())
def test_explicit_process_sets_round_trip(cfg):
    # pairs of each family, grids with indifference points and truth weights,
    # switch delays, a truth vector and each statistic
    text = serialize_config(cfg)
    parsed = parse_config(text)
    assert parsed == cfg
    assert serialize_config(parsed) == text


def test_parse_rejects_unknown_keys():
    raw = json.loads(serialize_config(tiny_config()))
    raw["bogus"] = 1
    with pytest.raises(ConfigError, match="bogus"):
        parse_config(json.dumps(raw))


def test_parse_names_offending_process():
    raw = json.loads(serialize_config(tiny_config()))
    raw["generator"] = None
    raw["processes"] = [
        {"prior": 0.5, "cost_rate": 1.0, "alpha": 1e-2, "beta": 1e-2,
         "model_h0": {"family": "poisson", "rate": 10.0},
         "model_h1": {"family": "poisson", "rate": 15.0}},
        {"prior": 0.5, "cost_rate": 1.0, "alpha": 0.6, "beta": 0.5,
         "model_h0": {"family": "poisson", "rate": 10.0},
         "model_h1": {"family": "poisson", "rate": 15.0}},
    ]
    raw["sweep"] = {"variable": "c_e", "values": [10.0]}
    with pytest.raises(ConfigError, match="process 2"):
        parse_config(json.dumps(raw))


@pytest.mark.parametrize(
    "overrides,pattern",
    [
        (dict(policies=("CL", "CL")), "repeat"),
        (dict(policies=("greedy",)), "unknown policy"),
        (dict(sweep_variable="theta"), "sweep variable"),
        (dict(sweep_values=()), "nonempty"),
        (dict(sweep_variable="c_e", sweep_values=(2.0,),
              generator={"kind": "identical", "K": 2}), "exceed 2"),
        (dict(sweep_variable="alpha", sweep_values=(0.7,),
              generator={"kind": "identical", "K": 2}), r"\(0, 0.5\)"),
        (dict(generator={"kind": "identical", "K": 2}, sweep_variable="d2",
              sweep_values=(1.0,)), "two_tier"),
        (dict(generator=None), "exactly one"),
        (dict(statistic="CUSUM"), "statistic"),
    ],
)
def test_validate_rejects(overrides, pattern):
    with pytest.raises(ConfigError, match=pattern):
        validate_config(tiny_config(**overrides))


def test_validate_rejects_simple_statistic_on_grids():
    cfg = replace(figure_config("fig1"), statistic="SPRT")
    with pytest.raises(ConfigError, match="GLR or ALR"):
        validate_config(cfg)


def _grid_config(rates, regions, **weights) -> ExperimentConfig:
    grid = ParameterGrid(tuple(Poisson(r) for r in rates), regions)
    spec = ProcessSpec(prior=0.5, cost_rate=1.0, alpha=1e-2, beta=1e-2, grid=grid, **weights)
    simple = ProcessSpec(prior=0.5, cost_rate=1.0, alpha=1e-2, beta=1e-2,
                         model_h0=Poisson(10.0), model_h1=Poisson(15.0))
    return tiny_config(generator=None, processes=(simple, spec), statistic="GLR",
                       sweep_variable="c_e", sweep_values=(100.0,))


def test_validate_rejects_grid_truth_point_without_divergence():
    t0, t1 = Region.THETA0, Region.THETA1
    rates, regions = (10.0, 15.0, 10.0, 12.0), (t0, t1, t1, t0)
    # rate 10 sits in both regions, so drawn as either truth it gives no drift
    with pytest.raises(ConfigError, match=r"process 2: grid point 0 .* theta0 .* theta1"):
        validate_config(_grid_config(rates, regions))
    with pytest.raises(ConfigError, match=r"process 2: grid point 2 .* theta1 .* theta0"):
        validate_config(_grid_config(rates, regions, h0_weights=(0.0, 1.0)))
    # twins that are never drawn as the truth are harmless
    validate_config(_grid_config(rates, regions, h0_weights=(0.0, 1.0), h1_weights=(1.0, 0.0)))
    # and so is a twin in the indifference region, which is never a truth point
    validate_config(_grid_config((10.0, 15.0, 10.0), (t0, t1, Region.INDIFFERENCE)))


def test_parse_rejects_grid_truth_weights_of_wrong_length():
    regions = (Region.THETA0, Region.THETA1, Region.THETA1)
    raw = json.loads(serialize_config(_grid_config((10.0, 12.0, 15.0), regions)))
    for weights in ([1.0], [0.2, 0.3, 0.5]):
        raw["processes"][1]["h1_weights"] = weights
        with pytest.raises(ConfigError, match="process 2: h1_weights needs one weight per point"):
            parse_config(json.dumps(raw))
    raw["processes"][1]["h1_weights"] = [0.25, 0.75]
    assert parse_config(json.dumps(raw)).processes[1].h1_weights == (0.25, 0.75)


def test_nan_truth_weights_are_rejected(tmp_path, capsys):
    # json.loads reads NaN, and a NaN weight fails neither "x < 0" nor
    # "|sum - 1| > tol": the truth would always be drawn at the last point
    regions = (Region.THETA0, Region.THETA1, Region.THETA1)
    raw = json.loads(serialize_config(_grid_config((10.0, 12.0, 15.0), regions)))
    for weights in ([math.nan, 1.0], [0.5, math.inf]):
        raw["processes"][1]["h1_weights"] = weights
        text = json.dumps(raw)
        assert "NaN" in text or "Infinity" in text
        with pytest.raises(ConfigError, match="process 2: h1_weights must be finite"):
            parse_config(text)
        path = tmp_path / "weights.json"
        path.write_text(text)
        for command in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "w.csv")]):
            assert main(command) == 2
            err = capsys.readouterr().err
            assert "h1_weights must be finite" in err and "Traceback" not in err
    assert not (tmp_path / "w.csv").exists()


def _wide_k_config(k: float) -> ExperimentConfig:
    return tiny_config(m=5, sweep_values=(k,), policies=("CL", "OL", "CL-no-explore"),
                       generator={"kind": "identical"})


def test_k_beyond_the_time_cap_is_a_config_error(monkeypatch):
    # each process takes at least one observation and a time unit gives at
    # most m, so K > m * TIME_CAP cannot finish; it is rejected before any
    # process set is built (a small cap keeps the set at the bound small)
    monkeypatch.setattr("seqscan.harness.TIME_CAP", 4)
    for k in (1e18, 1e300, 21.0):
        with pytest.raises(ConfigError, match=r"K sweep values must be integers in \[1, m \* TIME_CAP = 20\]"):
            validate_config(_wide_k_config(k))
    assert len(validate_config(_wide_k_config(20.0))[0]) == 20
    # a generator's own K, under another sweep variable, has the same bound
    cfg = tiny_config(m=5, generator={"kind": "identical", "K": 21},
                      sweep_variable="c_e", sweep_values=(100.0,))
    with pytest.raises(ConfigError, match=r"generator identical: K must be in \[1, m \* TIME_CAP = 20\], got 21"):
        validate_config(cfg)
    assert len(validate_config(replace(cfg, generator={"kind": "identical", "K": 20}))[0]) == 20


def test_cli_rejects_k_beyond_the_time_cap(tmp_path, capsys):
    for k in (1e18, 1e300):
        path = _write_config(tmp_path, _wide_k_config(k))
        for command in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "k.csv")]):
            assert main(command) == 2
            err = capsys.readouterr().err
            assert "K sweep values must be integers" in err and "Traceback" not in err
    assert not (tmp_path / "k.csv").exists()


def _cli_rejects(tmp_path, capsys, raw: dict, message: str) -> None:
    """validate and run both exit 2 with message on stderr, no traceback
    and no CSV."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    for command in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "out.csv")]):
        assert main(command) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()


def test_switch_delay_of_the_time_cap_is_a_config_error(tmp_path, capsys):
    # a process entered once with a delay of TIME_CAP or more overruns the
    # cap, so its episode could only fail
    raw = {"name": "x", "episodes": 2, "master_seed": 0, "policies": ["CL"],
           "sweep": {"variable": "d2", "values": [1e18]}, "generator": {"kind": "two_tier", "K": 4}}
    _cli_rejects(tmp_path, capsys, raw, "sweep point 1e+18: generator two_tier: switch delay must be in [0, TIME_CAP")
    # the generator's own d1, and an explicit process, meet the same rule
    raw["sweep"] = {"variable": "c_e", "values": [100]}
    for d1 in (TIME_CAP, TIME_CAP - 1):
        raw["generator"]["d1"] = d1
        cfg = parse_config(json.dumps(raw))
        if d1 == TIME_CAP:
            with pytest.raises(ConfigError, match=r"generator two_tier: switch delay must be in \[0, TIME_CAP"):
                validate_config(cfg)
        else:
            assert {s.switch_delay for s in validate_config(cfg)[0]} == {d1, 0}
    raw = json.loads(serialize_config(_grid_config((10.0, 15.0), (Region.THETA0, Region.THETA1))))
    raw["processes"][0]["switch_delay"] = TIME_CAP
    with pytest.raises(ConfigError, match=r"process 1: switch delay must be in \[0, TIME_CAP"):
        parse_config(json.dumps(raw))


def test_process_set_too_large_to_allocate_is_a_config_error(tmp_path, capsys):
    # m * TIME_CAP does not bound K when m is huge; a tuple of 1e18 specs
    # asks for 8e18 bytes, which fails at once without touching memory
    raw = {"name": "x", "episodes": 1, "master_seed": 0, "policies": ["CL"], "m": 1e18,
           "sweep": {"variable": "K", "values": [1e18]}, "generator": {"kind": "identical"}}
    _cli_rejects(tmp_path, capsys, raw, "sweep point 1e+18: generator identical: the process set is too large")


def test_parse_names_unknown_region():
    regions = (Region.THETA0, Region.THETA1)
    raw = json.loads(serialize_config(_grid_config((10.0, 15.0), regions)))
    raw["processes"][1]["grid"]["regions"][1] = "theta2"
    with pytest.raises(ConfigError, match="process 2: 'theta2' is not a valid Region"):
        parse_config(json.dumps(raw))


def test_k_sweep_needs_generator():
    cfg = tiny_config(
        generator=None,
        processes=(ProcessSpec(prior=0.5, cost_rate=1.0, alpha=1e-2, beta=1e-2,
                               model_h0=Poisson(10.0), model_h1=Poisson(15.0)),),
    )
    with pytest.raises(ConfigError, match="K sweep"):
        validate_config(cfg)


# --- generators and sweep materialization ------------------------------


def test_two_tier_layout():
    cfg = tiny_config(
        generator={"kind": "two_tier", "K": 4, "d1": 1, "d2": 3, "equal_cost": True},
        sweep_variable="d2",
        sweep_values=(3.0,),
    )
    specs = materialize_processes(cfg, 3.0)
    assert [s.model_h0.rate for s in specs] == [10.0, 10.0, 20.0, 20.0]
    assert [s.model_h1.rate for s in specs] == [15.0, 15.0, 30.0, 30.0]
    assert all(s.cost_rate == 1.0 for s in specs)
    assert [s.switch_delay for s in specs] == [1, 1, 3, 3]


def test_two_tier_cost_defaults_to_rate():
    cfg = tiny_config(generator={"kind": "two_tier"}, sweep_values=(4.0,))
    specs = materialize_processes(cfg, 4.0)
    assert [s.cost_rate for s in specs] == [10.0, 10.0, 20.0, 20.0]


def test_equally_spaced_mixture_layout():
    cfg = figure_config("fig1")
    specs = materialize_processes(cfg, 3.0)
    rates = [s.grid.models[0].rate for s in specs]
    assert rates == [10.0, 15.0, 20.0]
    for s in specs:
        assert s.cost_rate == s.grid.models[0].rate
        assert [m.rate for m in s.grid.models[1:]] == pytest.approx(
            [1.5 * s.cost_rate, 1.2 * s.cost_rate]
        )
        assert s.h1_weights == (0.5, 0.5)
        assert s.alpha == 1e-3 and s.beta == 1e-6


def test_c_e_sweep_sets_budgets():
    cfg = tiny_config(sweep_variable="c_e", sweep_values=(50.0,),
                      generator={"kind": "identical", "K": 3})
    specs = materialize_processes(cfg, 50.0)
    assert all(s.alpha == 0.02 and s.beta == 0.02 for s in specs)
    assert len(specs) == 3


def test_alpha_match_halves_initial_priority():
    cfg = figure_config("fig5")
    specs = materialize_processes(cfg, 1e-2)
    g1 = specs[0].table.keys[1]
    g2 = specs[1].table.keys[1]
    assert g1 == pytest.approx(2.0 * g2, rel=1e-9)
    assert specs[0].alpha == 1e-2
    assert 0 < specs[1].alpha < specs[0].alpha


def test_scaled_sweep_values_floor_and_dedup():
    cfg = figure_config("fig1")
    assert scaled_sweep_values(cfg, 4) == (2.0, 3.0, 4.0)
    # two_tier keeps K even and never below the probe budget
    cfg2 = figure_config("fig2")
    assert scaled_sweep_values(cfg2, 4) == (6.0,)
    assert scaled_sweep_values(cfg, 1) == cfg.sweep_values


def test_apply_scale_shrinks_generator_k_and_episodes():
    cfg = apply_scale(figure_config("fig3"), 4)
    assert cfg.generator["K"] == 2
    assert cfg.episodes == 2500


# --- execution ---------------------------------------------------------


def test_zero_episodes_is_empty():
    assert run_experiment(tiny_config(episodes=0)) == []
    buf = io.StringIO()
    emit_csv([], buf)
    assert buf.getvalue() == ",".join(CSV_COLUMNS) + "\n"


def test_one_batch_two_lines():
    res = run_experiment(tiny_config(policies=("CL",), episodes=3))
    buf = io.StringIO()
    emit_csv(res, buf)
    assert len(buf.getvalue().splitlines()) == 2


def test_csv_determinism():
    out = []
    for _ in range(2):
        buf = io.StringIO()
        emit_csv(run_experiment(tiny_config()), buf)
        out.append(buf.getvalue())
    assert out[0] == out[1]


def test_rho_on_non_baseline_rows():
    res = run_experiment(tiny_config(episodes=40))
    by_policy = {s.policy: s for s in res}
    assert by_policy["OL"].rho is None
    assert by_policy["CL"].rho == pytest.approx(
        by_policy["CL"].mean_cost / by_policy["OL"].mean_cost
    )
    assert by_policy["CL"].rho_se is not None and by_policy["CL"].rho_se >= 0


def test_partial_failure_isolated(monkeypatch):
    # the batch at the first sweep point (one process) fails while running
    real = harness.run_episode

    def run_episode(paths, *args, **kwargs):
        if len(paths.specs) == 1:
            raise RuntimeError("episode failed")
        return real(paths, *args, **kwargs)

    monkeypatch.setattr(harness, "run_episode", run_episode)
    cfg = tiny_config(policies=("CL",), sweep_values=(1.0, 3.0), episodes=5)
    res = run_experiment(cfg)
    assert res[0].error == "episode failed" and math.isnan(res[0].mean_cost)
    assert res[1].error is None and res[1].mean_cost >= 0
    buf = io.StringIO()
    emit_csv(res, buf)
    lines = buf.getvalue().splitlines()
    assert lines[1].startswith("1,CL,0,,")


@pytest.mark.parametrize("name", ["fig1", "fig5"])
def test_policy_order_leaves_every_row_unchanged(name):
    # the policies of a sweep point read one path set per episode; which
    # of them folds it first does not show in any row
    scale = RECIPE_DIGESTS[name][0]
    cfg = figure_config(name)
    rows = []
    for policies in (cfg.policies, cfg.policies[::-1]):
        summaries = run_experiment(replace(cfg, policies=policies), scale=scale, per_episode=True)
        for emit, key in ((emit_csv, 2), (emit_per_episode_csv, 3)):  # (sweep value, policy[, episode])
            buf = io.StringIO()
            emit(summaries, buf)
            header, *lines = buf.getvalue().splitlines()
            rows.append((header, {tuple(line.split(",")[:key]): line for line in lines}))
    assert rows[:2] == rows[2:]
    assert len(rows[0][1]) == len(cfg.policies) * len(scaled_sweep_values(cfg, scale))


def test_a_failing_policy_fails_only_its_own_rows(monkeypatch):
    # CL-no-explore raises on episode 3 of 5; it is not run again, and the
    # CL and OL rows (OL the baseline of both runs) equal a run without it
    real = harness.run_episode
    seen = []

    class Numbered(harness.EpisodePaths):  # paths that know their episode
        def __init__(self, specs, seed, *args, **kwargs):
            super().__init__(specs, seed, *args, **kwargs)
            self.episode = seed.spawn_key[1]

    def run_episode(paths, policy, *args, **kwargs):
        seen.append((policy.zeta, paths.episode))
        if policy.zeta == math.inf and paths.episode == 3:
            raise RuntimeError("episode 3 failed")
        return real(paths, policy, *args, **kwargs)

    monkeypatch.setattr(harness, "EpisodePaths", Numbered)
    monkeypatch.setattr(harness, "run_episode", run_episode)
    cfg = tiny_config(policies=("CL", "OL", "CL-no-explore"), episodes=5, sweep_values=(2.0, 3.0))
    res = run_experiment(cfg)
    assert [(s.policy, s.error) for s in res] == [
        ("CL", None), ("OL", None), ("CL-no-explore", "episode 3 failed")
    ] * 2
    assert sorted(ep for zeta, ep in seen if zeta == math.inf) == [0, 0, 1, 1, 2, 2, 3, 3]
    monkeypatch.setattr(harness, "run_episode", real)
    without = run_experiment(replace(cfg, policies=("CL", "OL")))
    summary, alone = io.StringIO(), io.StringIO()
    emit_csv(res, summary)
    emit_csv(without, alone)
    lines = summary.getvalue().splitlines()
    assert [lines[0], lines[1], lines[2], lines[4], lines[5]] == alone.getvalue().splitlines()
    assert lines[3].startswith("2,CL-no-explore,0,,") and lines[6].startswith("3,CL-no-explore,0,,")


def test_per_episode_records_match_aggregates():
    res = run_experiment(tiny_config(episodes=30), per_episode=True)
    for s in res:
        rows = s.episode_records
        assert len(rows) == 30
        costs = np.array([r["cost"] for r in rows])
        assert s.mean_cost == pytest.approx(costs.mean(), rel=1e-12)
        assert s.stderr_cost == pytest.approx(
            costs.std(ddof=1) / math.sqrt(len(rows)), rel=1e-12
        )
        assert s.mean_samples == pytest.approx(
            np.mean([r["samples"] for r in rows]), rel=1e-12
        )
        assert s.lower_bound == pytest.approx(
            np.mean([r["bound"] for r in rows]), rel=1e-12
        )


def test_per_episode_bound_is_each_episodes_own():
    # unequal costs at m = 2: the bound is undefined for an episode whose
    # abnormal processes have unequal costs, and defined for the others,
    # whichever comes first; the batch's mean bound is undefined
    cfg = tiny_config(
        episodes=12, master_seed=3, m=2, sweep_variable="alpha", sweep_values=(0.01,),
        generator={"kind": "two_tier", "K": 4},
    )
    [specs] = validate_config(cfg)
    defined = []
    for s in run_experiment(cfg, per_episode=True):
        assert math.isnan(s.lower_bound) and math.isnan(s.cost_over_bound)
        for r in s.episode_records:
            paths = EpisodePaths(specs, np.random.SeedSequence(3, spawn_key=(0, r["episode"])))
            assert r["abnormal"] == sum(paths.truth)
            try:
                bound = lower_bound_oracle(specs, paths.truth, paths.truth_models, m=2)
            except ValueError:
                assert math.isnan(r["bound"])
            else:
                assert r["bound"] == bound
                defined.append(r["episode"])
    assert defined == [0, 1, 7, 8, 10] * 2  # under both policies
    buf = io.StringIO()
    emit_csv(run_experiment(cfg), buf)
    assert all(line.split(",")[8] == "" for line in buf.getvalue().splitlines()[1:])


def test_per_episode_csv_recomputation():
    res = run_experiment(tiny_config(episodes=25), per_episode=True)
    summary_buf, episode_buf = io.StringIO(), io.StringIO()
    emit_csv(res, summary_buf)
    emit_per_episode_csv(res, episode_buf)

    header, *rows = episode_buf.getvalue().splitlines()
    cols = header.split(",")
    parsed = [dict(zip(cols, line.split(","))) for line in rows]
    sheader, *srows = summary_buf.getvalue().splitlines()
    scols = sheader.split(",")
    for line in srows:
        srow = dict(zip(scols, line.split(",")))
        own = [r for r in parsed if r["policy"] == srow["policy"]]
        assert len(own) == 25
        mean_cost = np.mean([float(r["cost"]) for r in own])
        assert float(srow["mean_cost"]) == pytest.approx(mean_cost, rel=1e-6)
        assert float(srow["mean_samples"]) == pytest.approx(
            np.mean([float(r["samples"]) for r in own]), rel=1e-6
        )


def test_common_streams_give_equal_sample_counts():
    # paired policies face identical per-process data, so total sample
    # counts agree batch-wide
    res = run_experiment(tiny_config(episodes=15))
    by_policy = {s.policy: s for s in res}
    assert by_policy["CL"].mean_samples == by_policy["OL"].mean_samples


def test_risk_sweep_appends_columns():
    cfg = tiny_config(policies=("CL",), sweep_variable="c_e", sweep_values=(100.0,),
                      generator={"kind": "identical", "K": 2}, episodes=10)
    res = run_experiment(cfg)
    assert "mean_risk" in res[0].extra and "log_ce" in res[0].extra
    buf = io.StringIO()
    emit_csv(res, buf)
    header = buf.getvalue().splitlines()[0]
    assert header.endswith(",log_ce,log_R")


def test_risk_sweep_per_episode_risk_arithmetic():
    # each episode's risk is its abnormal processes' declaration times over
    # c_e plus, per abnormal process, the batch's empirical error rates
    cfg = tiny_config(policies=("CL", "OL"), sweep_variable="c_e", sweep_values=(20.0, 100.0),
                      generator={"kind": "identical", "K": 3}, episodes=12)
    res = run_experiment(cfg, per_episode=True)
    assert len(res) == 4
    for s in res:
        err = sum(r for r in (s.fa_rate, s.md_rate) if not math.isnan(r))
        risks = []
        for r in s.episode_records:
            assert r["risk"] == r["abnormal_time"] / s.sweep_value + r["abnormal"] * err
            risks.append(r["risk"])
        assert s.extra["mean_risk"] == pytest.approx(np.mean(risks))
        assert any(r["abnormal"] for r in s.episode_records)

    # with no abnormal process there is no time term and no error term
    spec = ProcessSpec(prior=0.5, cost_rate=1.0, alpha=1e-2, beta=1e-2,
                       model_h0=Poisson(10.0), model_h1=Poisson(15.0))
    none_abnormal = tiny_config(generator=None, processes=(spec, spec), truth=(False, False),
                                sweep_variable="c_e", sweep_values=(10.0,), episodes=5)
    for s in run_experiment(none_abnormal, per_episode=True):
        assert [r["risk"] for r in s.episode_records] == [0.0] * 5
        assert s.extra["mean_risk"] == 0.0

    with pytest.raises(ConfigError, match="c_e"):
        run_experiment(replace(cfg, sweep_values=(0.0,)))


def test_risk_sweep_without_normal_processes_keeps_missed_detections():
    # no normal process: fa_rate has no episode behind it (NaN) and adds
    # nothing, while every abnormal process still pays md_rate
    spec = ProcessSpec(prior=0.5, cost_rate=1.0, alpha=1e-2, beta=1e-2,
                       model_h0=Poisson(10.0), model_h1=Poisson(11.0))
    cfg = tiny_config(generator=None, processes=(spec, spec), truth=(True, True),
                      policies=("CL",), sweep_variable="c_e", sweep_values=(3.0,),
                      episodes=60)
    [s] = run_experiment(cfg, per_episode=True)
    assert math.isnan(s.fa_rate) and s.md_rate > 0
    time_term = np.mean([r["abnormal_time"] / 3.0 for r in s.episode_records])
    assert all(r["abnormal"] == 2 for r in s.episode_records)
    assert s.extra["mean_risk"] == pytest.approx(time_term + 2 * s.md_rate)
    assert s.extra["mean_risk"] > time_term


def test_unknown_figure_rejected():
    with pytest.raises(ConfigError, match="fig9"):
        figure_config("fig9")


# --- CLI ---------------------------------------------------------------


def _write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(serialize_config(cfg))
    return path


def test_cli_validate_ok(tmp_path, capsys):
    path = _write_config(tmp_path, tiny_config())
    assert main(["validate", str(path)]) == 0
    assert "ok" in capsys.readouterr().out


def test_cli_validate_bad_config(tmp_path, capsys):
    raw = json.loads(serialize_config(tiny_config()))
    raw["generator"] = None
    raw["sweep"] = {"variable": "c_e", "values": [10.0]}
    raw["processes"] = [
        {"prior": 0.5, "cost_rate": 1.0, "alpha": 0.7, "beta": 0.5,
         "model_h0": {"family": "poisson", "rate": 10.0},
         "model_h1": {"family": "poisson", "rate": 15.0}},
    ]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert main(["validate", str(path)]) == 2
    assert "process 1" in capsys.readouterr().err


def test_cli_run_writes_csv(tmp_path):
    path = _write_config(tmp_path, tiny_config(episodes=5))
    out = tmp_path / "result.csv"
    assert main(["run", str(path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3


def test_cli_run_per_episode(tmp_path):
    path = _write_config(tmp_path, tiny_config(episodes=4, policies=("CL",)))
    out = tmp_path / "r.csv"
    assert main(["run", str(path), "--out", str(out), "--per-episode"]) == 0
    episodes = tmp_path / "r_episodes.csv"
    assert episodes.exists()
    assert len(episodes.read_text().splitlines()) == 5


def test_cli_run_finishes_for_zeta_just_above_one(tmp_path):
    # ceil(zeta^l) is 2 for about 6.9e11 exponents at this zeta
    raw = {"name": "z", "episodes": 1, "master_seed": 0, "policies": ["CL"],
           "sweep": {"variable": "K", "values": [3]}, "zeta": 1.000000000001,
           "generator": {"kind": "identical"}}
    path = tmp_path / "z.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "z.csv"
    assert main(["run", str(path), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2


def test_cli_figures_tiny(tmp_path):
    out = tmp_path / "fig1.csv"
    assert main(["figures", "fig1", "--episodes", "2", "--scale", "8",
                 "--out", str(out), "--seed", "3"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) >= 2


def test_cli_seed_env_override(tmp_path, monkeypatch):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["figures", "fig4", "--episodes", "3", "--scale", "5",
                 "--seed", "77", "--out", str(out1)]) == 0
    monkeypatch.setenv("SEQSCAN_SEED", "77")
    assert main(["figures", "fig4", "--episodes", "3", "--scale", "5",
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_bound_prints_frozen_example(tmp_path, capsys):
    spec = {"prior": 0.5, "cost_rate": 1.0, "alpha": 1e-3, "beta": 1e-6,
            "model_h0": {"family": "poisson", "rate": 10.0},
            "model_h1": {"family": "poisson", "rate": 15.0}}
    raw = {
        "name": "bound-example",
        "episodes": 1,
        "master_seed": 0,
        "policies": ["CL"],
        "sweep": {"variable": "alpha", "values": [1e-3]},
        "processes": [spec, spec, spec],
        "truth": [True, True, False],
    }
    path = tmp_path / "bound.json"
    path.write_text(json.dumps(raw))
    assert main(["bound", str(path)]) == 0
    assert capsys.readouterr().out.startswith("19.15")


def test_cli_bound_prints_one_floor_per_sweep_point(tmp_path, capsys):
    spec = {"prior": 0.5, "cost_rate": 1.0, "alpha": 1e-3, "beta": 1e-6,
            "model_h0": {"family": "poisson", "rate": 10.0},
            "model_h1": {"family": "poisson", "rate": 15.0}}
    raw = {"name": "bound-sweep", "episodes": 1, "master_seed": 0, "policies": ["CL"],
           "sweep": {"variable": "alpha", "values": [0.3, 0.001]},
           "processes": [spec, spec, spec], "truth": [True, True, False]}
    path = tmp_path / "bound.json"
    path.write_text(json.dumps(raw))
    assert main(["bound", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    point_sets = validate_config(parse_config(path.read_text()))
    assert lines == [f"{lower_bound_oracle(specs, (True, True, False)):.10g}" for specs in point_sets]
    assert len(set(lines)) == 2


def test_cli_bound_refuses_a_grid_process(tmp_path, capsys):
    grid = {"models": [{"family": "poisson", "rate": 10.0}, {"family": "poisson", "rate": 15.0}],
            "regions": ["theta0", "theta1"]}
    pair = {"prior": 0.5, "cost_rate": 1.0, "alpha": 1e-3, "beta": 1e-3,
            "model_h0": {"family": "poisson", "rate": 10.0},
            "model_h1": {"family": "poisson", "rate": 15.0}}
    raw = {"name": "bound-grid", "episodes": 1, "master_seed": 0, "policies": ["CL"],
           "statistic": "GLR", "sweep": {"variable": "alpha", "values": [1e-3]},
           "processes": [pair, {"prior": 0.5, "cost_rate": 1.0, "alpha": 1e-3, "beta": 1e-3, "grid": grid}],
           "truth": [True, True]}
    path = tmp_path / "bound.json"
    path.write_text(json.dumps(raw))
    assert main(["bound", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "process 2 is a parameter grid" in captured.err


def test_cli_bound_rejects_unequal_costs_at_several_probes(tmp_path, capsys):
    # validate accepts this config, but the multi-probe floor needs equal costs
    specs = [{"prior": 0.5, "cost_rate": c, "alpha": 1e-3, "beta": 1e-3,
              "model_h0": {"family": "poisson", "rate": 10.0},
              "model_h1": {"family": "poisson", "rate": 15.0}} for c in (1.0, 2.0)]
    raw = {"name": "bound-costs", "episodes": 1, "master_seed": 0, "policies": ["CL"], "m": 2,
           "sweep": {"variable": "alpha", "values": [0.01]}, "processes": specs, "truth": [True, True]}
    path = tmp_path / "bound.json"
    path.write_text(json.dumps(raw))
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    assert main(["bound", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "sweep point 0.01" in captured.err


def test_cli_bound_requires_truth(tmp_path, capsys):
    path = _write_config(tmp_path, tiny_config())
    assert main(["bound", str(path)]) == 2
    assert "truth" in capsys.readouterr().err


def test_cli_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_cli_missing_config_file(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.json")]) == 2
    assert "nope.json" in capsys.readouterr().err


@pytest.mark.parametrize("out", ["missing/f5.csv", ".", "f5.csv"])
@pytest.mark.parametrize("command", ["figures", "run"])
def test_cli_rejects_an_unwritable_out_before_running(tmp_path, capsys, monkeypatch, command, out):
    # an --out in a missing directory, or that is a directory, or whose
    # per-episode file is a directory, exits 2 before the run:
    # run_experiment raising shows that nothing ran
    def never(*args, **kwargs):
        raise AssertionError("ran before checking --out")

    monkeypatch.setattr("seqscan.cli.run_experiment", never)
    (tmp_path / "f5_episodes.csv").mkdir()  # the per-episode file of --out f5.csv
    target = str(tmp_path / out)
    refused = str(tmp_path / "f5_episodes.csv") if out == "f5.csv" else target
    source = ["fig5"] if command == "figures" else [str(_write_config(tmp_path, tiny_config()))]
    assert main([command, *source, "--scale", "100", "--per-episode", "--out", target]) == 2
    assert f"cannot write CSV to {refused}" in capsys.readouterr().err
    assert not (tmp_path / "f5.csv").exists()


# --- twin model pairs and recipe bytes -----------------------------------


def _twin_config(h0, h1) -> ExperimentConfig:
    good = ProcessSpec(prior=0.5, cost_rate=1.0, alpha=1e-2, beta=1e-2,
                       model_h0=Poisson(10.0), model_h1=Poisson(15.0))
    twin = ProcessSpec(prior=0.5, cost_rate=1.0, alpha=1e-2, beta=1e-2, model_h0=h0, model_h1=h1)
    return tiny_config(generator=None, processes=(good, twin),
                       sweep_variable="c_e", sweep_values=(10.0,))


def test_validate_rejects_twin_model_pairs():
    # zero divergence either way gives the SPRT no drift: no episode could end
    for h0, h1 in ((Poisson(10.0), Poisson(10.0)),
                   (Gaussian(0.0, 1.0), Gaussian(0.0, 1.0)),
                   (Categorical((0.25, 0.75)), Categorical((0.25, 0.75)))):
        with pytest.raises(ConfigError, match="process 2: its two models cannot be told apart"):
            validate_config(_twin_config(h0, h1))
    validate_config(_twin_config(Gaussian(0.0, 1.0), Gaussian(0.0, 2.0)))


_TWIN = "process 1: its two models cannot be told apart"
# models that can be told apart, but whose numbers no episode could run on
_OVERFLOW = {"kind": "identical", "rate0": 1.0, "rate1": 1000.0, "cost": 1e308}
_UNDERFLOW = {"kind": "two_tier", "alpha": 0.6, "beta": 0.3999999999999999}
_KEYS = r"process 1: the indices before and after any data are bounded by cost 1e\+308 over size [^,]+, which overflows"
_SIZES = r"process 1: expected sample sizes must be positive"


@pytest.mark.parametrize(
    "generator,pattern",
    [
        ({"kind": "identical", "rate0": 12.0, "rate1": 12.0}, _TWIN),
        ({"kind": "identical", "rate0": 10.0}, None),
        ({"kind": "identical", "rate1": 10.0}, _TWIN),
        ({"kind": "two_tier", "ratio": 1.0}, _TWIN),
        ({"kind": "two_tier", "ratio": 0.8}, None),
        (_OVERFLOW, _KEYS),
        (_UNDERFLOW, _SIZES),
        ({"kind": "identical", "alpha": 0.5, "beta": 0.4999999999999999}, _SIZES),
    ],
)
def test_validate_rejects_twin_generators(generator, pattern):
    cfg = tiny_config(generator=generator)
    if pattern is None:
        validate_config(cfg)
    else:
        with pytest.raises(ConfigError, match=pattern):
            validate_config(cfg)


@pytest.mark.parametrize(
    "generator,field",
    [
        ({"kind": "two_tier", "ratio": "x"}, "ratio"),
        ({"kind": "identical", "K": [2]}, "K"),
        ({"kind": "identical", "K": 2, "rate0": True}, "rate0"),
        ({"kind": "identical", "K": 2, "alpha": None}, "alpha"),
        ({"kind": "equally_spaced_mixture", "K": 2, "ratios": 1.5}, "ratios"),
        ({"kind": "equally_spaced_mixture", "K": 2, "weights": [0.5, "0.5"]}, "weights"),
        ({"kind": "two_tier", "K": 2.7}, "K"),
        ({"kind": "two_tier", "K": 2, "d1": 1.5}, "d1"),
        ({"kind": "two_tier", "K": 2, "d2": math.inf}, "d2"),
        ({"kind": "two_tier", "K": 2, "equal_cost": "no"}, "equal_cost"),
        ({"kind": "two_tier", "K": 2, "equal_cost": 1}, "equal_cost"),
    ],
)
def test_cli_rejects_wrong_typed_generator_field(tmp_path, capsys, generator, field):
    # a config object reads its generator when built, so the bad field goes in the JSON
    raw = json.loads(serialize_config(tiny_config(sweep_variable="c_e", sweep_values=(10.0,))))
    raw["generator"] = generator
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"generator {generator['kind']}: {field} must be" in err
    assert "Traceback" not in err


def test_integral_float_generator_fields_pass():
    cfg = tiny_config(generator={"kind": "two_tier", "K": 4.0, "d1": 1.0, "equal_cost": True},
                      sweep_variable="c_e", sweep_values=(10.0,))
    validate_config(cfg)
    specs = materialize_processes(cfg, 10.0)
    assert len(specs) == 4
    assert [s.switch_delay for s in specs] == [1, 1, 0, 0]
    assert all(s.cost_rate == 1.0 for s in specs)


def test_cli_rejects_odd_two_tier_k_sweep(tmp_path, capsys):
    cfg = tiny_config(generator={"kind": "two_tier"}, sweep_values=(2.0, 3.0), episodes=2)
    path = _write_config(tmp_path, cfg)
    out = tmp_path / "odd.csv"
    assert main(["validate", str(path)]) == 2
    assert "generator two_tier: K must be even, got 3" in capsys.readouterr().err
    # scaling rounds K up to even, so at --scale 10 only the unscaled build sees K=3
    for scale in ("1", "10"):
        assert main(["run", str(path), "--scale", scale, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "K must be even, got 3" in err and "Traceback" not in err
        assert not out.exists()


def test_cli_rejects_m_above_a_swept_k(tmp_path, capsys):
    cfg = tiny_config(m=3, sweep_values=(2.0, 4.0), generator={"kind": "identical"}, episodes=1)
    path = _write_config(tmp_path, cfg)
    out = tmp_path / "m.csv"
    assert main(["validate", str(path)]) == 2
    assert "sweep point 2.0: m=3 exceeds the process count K=2" in capsys.readouterr().err
    assert main(["run", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "m=3 exceeds the process count K=2" in err and "Traceback" not in err
    assert not out.exists()


def test_unreachable_alpha_match_fails_validation(tmp_path, capsys):
    cfg = replace(figure_config("fig5"), alpha_match={"index_ratio": 1e30}, episodes=1)
    with pytest.raises(ConfigError, match="sweep point 0.1: no symmetric error budget"):
        validate_config(cfg)
    path = _write_config(tmp_path, cfg)
    out = tmp_path / "match.csv"
    assert main(["run", str(path), "--out", str(out)]) == 2
    assert "no symmetric error budget" in capsys.readouterr().err
    assert not out.exists()


def _explicit_raw() -> dict:
    spec = ProcessSpec(prior=0.5, cost_rate=1.0, alpha=1e-2, beta=1e-2,
                       model_h0=Poisson(10.0), model_h1=Poisson(15.0))
    cfg = tiny_config(generator=None, processes=(spec, spec), truth=(True, False),
                      sweep_variable="c_e", sweep_values=(10.0,))
    return json.loads(serialize_config(cfg))


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("episodes", 2.7, "episodes must be an integer"),
        ("episodes", True, "episodes must be an integer"),
        ("m", 1.9, "m must be an integer"),
        ("master_seed", 3.5, "master_seed must be an integer"),
        ("switch_delay", 2.7, "process 2: switch_delay must be an integer"),
        ("truth", ["no", True], "truth must be a list of true or false"),
    ],
)
def test_cli_rejects_non_integral_counts_and_non_boolean_truth(
    tmp_path, capsys, field, value, message
):
    raw = _explicit_raw()
    if field == "switch_delay":
        raw["processes"][1][field] = value
    else:
        raw[field] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_validate_rejects_a_grid_spec_whose_first_index_overflows():
    # the grid's table, as every episode would build it, is built at validation
    grid = ParameterGrid(models=(Poisson(1.0), Poisson(1000.0)), regions=(Region.THETA0, Region.THETA1))
    spec = ProcessSpec(prior=0.5, cost_rate=1e308, alpha=1e-2, beta=1e-2, grid=grid)
    cfg = tiny_config(generator=None, processes=(spec,), sweep_variable="c_e", sweep_values=(10.0,), statistic="GLR")
    with pytest.raises(ConfigError, match=_KEYS):
        validate_config(cfg)


def test_integral_float_counts_pass():
    raw = _explicit_raw()
    raw.update(episodes=4.0, m=2.0, master_seed=3.0)
    raw["processes"][1]["switch_delay"] = 1.0
    cfg = parse_config(json.dumps(raw))
    assert (cfg.episodes, cfg.m, cfg.master_seed) == (4, 2, 3)
    assert cfg.processes[1].switch_delay == 1 and cfg.truth == (True, False)


def _bisect_200_steps(template, target, lo=1e-15, hi=0.499):
    """match_error_budget's bisection run for a fixed 200 steps."""
    llo, lhi = math.log(lo), math.log(hi)
    for _ in range(200):
        mid = 0.5 * (llo + lhi)
        if replace(template, alpha=math.exp(mid), beta=math.exp(mid)).table.keys[1] < target:
            llo = mid
        else:
            lhi = mid
    return math.exp(0.5 * (llo + lhi))


def test_match_error_budget_equals_200_steps_on_fig5():
    cfg = figure_config("fig5")
    first, second = cfg.processes
    for v in cfg.sweep_values:
        target = replace(first, alpha=v, beta=v).table.keys[1] / 2.0
        assert match_error_budget(second, target) == _bisect_200_steps(second, target)


@settings(max_examples=100, deadline=None)
@given(
    rate=st.floats(1.0, 50.0),
    ratio=st.one_of(st.floats(0.3, 0.95), st.floats(1.05, 3.0)),
    prior=st.floats(0.01, 0.99),
    cost=st.floats(0.1, 10.0),
    budget=st.floats(1e-12, 0.4),
    scale=st.floats(0.5, 2.0),
)
def test_match_error_budget_equals_200_steps(rate, ratio, prior, cost, budget, scale):
    template = ProcessSpec(prior=prior, cost_rate=cost, alpha=1e-2, beta=1e-2,
                           model_h0=Poisson(rate), model_h1=Poisson(rate * ratio))
    target = scale * replace(template, alpha=budget, beta=budget).table.keys[1]
    try:
        found = match_error_budget(template, target)
    except ConfigError:  # no budget in range reaches the target
        return
    assert found == _bisect_200_steps(template, target)


def test_cli_rejects_twin_model_pair(tmp_path, capsys):
    path = _write_config(tmp_path, _twin_config(Poisson(10.0), Poisson(10.0)))
    out = tmp_path / "twin.csv"
    assert main(["validate", str(path)]) == 2
    assert "process 2" in capsys.readouterr().err
    assert main(["run", str(path), "--out", str(out)]) == 2
    assert "process 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("generator,pattern", [(_OVERFLOW, _KEYS), (_UNDERFLOW, _SIZES)])
def test_cli_refuses_process_sets_no_episode_can_run(tmp_path, capsys, generator, pattern):
    path = _write_config(tmp_path, tiny_config(generator=generator))
    out = tmp_path / "refused.csv"
    for args in (["validate", str(path)], ["run", str(path), "--out", str(out)]):
        assert main(args) == 2
        assert re.search(pattern, capsys.readouterr().err)
    assert not out.exists()


# sha256 of the summary and per-episode CSVs of `seqscan figures NAME
# --scale SCALE --seed 0 --per-episode`; the byte contract for M=5 (fig2),
# switching delays (fig3), the c_e risk columns (fig4) and the
# alpha-matched error budgets (fig5)
RECIPE_DIGESTS = {
    "fig1": (100, "c865b9b7890621725193c55a90ce32321119b8d9a1a395d058f643703ff2986d",
             "2b9b72defb20dbb96fc4da80b4964fe048e63d6748730a57951c8c4993800e5a"),
    "fig2": (100, "b446bb75bd3500342b6c4fc1fbaea3da3f927d6e2432b434479c5484c306df4a",
             "3e52246732915a15c3f65ebd53e60722e44940038d1b76d2fb28101d74ea192b"),
    "fig3": (100, "ec2f349b4bae3623ee22329a59e6ce56075b0b9d1a778509de7c1f80691cd48c",
             "54bd3298ec61c88519e3ac84ee4dd43334665654a790ec3d7f7da6b5f4dea4a6"),
    "fig4": (100, "3c7befe3056ca16dd3809ceb3cd5bc34f0ec5ced5bb5d6c7ad171642ad413197",
             "63c425b5c882fa8c192079c237f5b866bc0bfd4db5532d9f39cfc731bcb1a80d"),
    "fig5": (1000, "cbf5b71417633d60545ee537449aa512799fc9d6ada87e557f4219807d4a4537",
             "dd8f0127ec0329c0d96f9c7d14c53eaf3fd31acd34736fce31e620662cafcd11"),
}


@pytest.mark.parametrize("name", sorted(RECIPE_DIGESTS))
def test_recipe_csv_digests_are_unchanged(name):
    scale, *expected = RECIPE_DIGESTS[name]
    summaries = run_experiment(figure_config(name), scale=scale, seed_override=0, per_episode=True)
    digests = []
    for emit in (emit_csv, emit_per_episode_csv):
        buf = io.StringIO()
        emit(summaries, buf)
        digests.append(hashlib.sha256(buf.getvalue().encode()).hexdigest())
    assert digests == expected


# --- typed reads and one build per sweep point ----------------------------


def _categorical_raw() -> dict:
    return json.loads(serialize_config(_twin_config(Categorical((0.5, 0.5)),
                                                    Categorical((0.2, 0.8)))))


def _gaussian_raw() -> dict:
    return json.loads(serialize_config(_twin_config(Gaussian(0.0, 1.0), Gaussian(1.0, 1.0))))


def _grid_raw() -> dict:
    regions = (Region.THETA0, Region.THETA1, Region.THETA1)
    return json.loads(serialize_config(_grid_config((10.0, 12.0, 15.0), regions)))


def _fig5_raw() -> dict:
    return json.loads(serialize_config(replace(figure_config("fig5"), episodes=1)))


def _set(path, value):
    """A mutation that puts value at the key path of a raw config."""
    def mutate(raw):
        obj = raw
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value
    return mutate


@pytest.mark.parametrize(
    "base,mutate,field",
    [
        # each of these raised a TypeError or was read one character at a time
        (_fig5_raw, _set(("alpha_match",), 5), "alpha_match"),
        (_fig5_raw, _set(("alpha_match",), {"index_ratio": "2"}), "index_ratio"),
        (_fig5_raw, _set(("policies",), [["CL"]]), "policies"),
        (_fig5_raw, _set(("policies",), "CL"), "policies"),
        (_fig5_raw, _set(("sweep", "values"), "0.1"), "values"),
        (_grid_raw, _set(("processes", 1, "grid", "regions"), "theta0"), "regions"),
        (_categorical_raw, _set(("processes", 1, "model_h0", "probs"), "0.5"), "probs"),
        # and each of these numbers given as a string or a boolean was accepted
        (_fig5_raw, _set(("zeta",), "1.5"), "zeta"),
        (_fig5_raw, _set(("sweep", "values", 1), "0.01"), "values"),
        (_fig5_raw, _set(("processes", 0, "prior"), "0.5"), "process 1: prior"),
        (_fig5_raw, _set(("processes", 1, "cost_rate"), True), "process 2: cost_rate"),
        (_fig5_raw, _set(("processes", 0, "model_h1", "rate"), "10"), "poisson: rate"),
        (_gaussian_raw, _set(("processes", 1, "model_h0", "stddev"), "1"), "gaussian: stddev"),
        (_grid_raw, _set(("processes", 1, "h1_weights"), [0.5, "0.5"]), "h1_weights"),
        (_fig5_raw, _set(("alpha_match", "index_ratio"), True), "index_ratio"),
    ],
)
def test_cli_names_a_wrong_typed_field_without_traceback(tmp_path, capsys, base, mutate, field):
    raw = base()
    mutate(raw)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{field} must be a" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "base,mutate,message",
    [
        (_fig5_raw, _set(("processes", 0, "model_h1", "stddev"), 2.0),
         "process 1: poisson: unknown keys ['stddev']"),
        (_gaussian_raw, _set(("processes", 1, "model_h0", "rate"), 1.0),
         "process 2: gaussian: unknown keys ['rate']"),
        (_categorical_raw, _set(("processes", 1, "model_h1", "mean"), 0.0),
         "process 2: categorical: unknown keys ['mean']"),
        (_grid_raw, _set(("processes", 1, "grid", "models", 0, "weight"), 1.0),
         "process 2: poisson: unknown keys ['weight']"),
        # truth weights misplaced inside the grid were ignored, and the truth drawn uniformly
        (_grid_raw, _set(("processes", 1, "grid", "h1_weights"), [0.99, 0.01]),
         "process 2: grid: unknown keys ['h1_weights']"),
    ],
)
def test_models_and_grids_reject_unknown_keys(tmp_path, capsys, base, mutate, message):
    raw = base()
    mutate(raw)
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(raw))
    assert str(exc.value) == message
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"seqscan: {message}\n"


def test_cli_rejects_a_model_pair_without_a_divergence(tmp_path, capsys):
    # two families, or two category counts, raised a TypeError in validation
    for h0, h1 in ((Categorical((1.0,)), Categorical((0.2, 0.8))),
                   (Poisson(10.0), Gaussian(10.0, 1.0))):
        path = _write_config(tmp_path, _twin_config(h0, h1))
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "sweep point 10.0: process 2: " in err and "Traceback" not in err


@pytest.fixture
def build_count(monkeypatch):
    """The sweep values harness.materialize_processes is called with."""
    calls = []
    real = harness.materialize_processes

    def counted(cfg, sweep_value):
        calls.append(sweep_value)
        return real(cfg, sweep_value)

    monkeypatch.setattr(harness, "materialize_processes", counted)
    return calls


@pytest.mark.parametrize("name", ["fig1", "fig5"])
@pytest.mark.parametrize(
    "flags,builds",
    [([], 1), (["--seed", "3", "--episodes", "1"], 1), (["--scale", "10"], 2)],
)
def test_cli_run_builds_each_sweep_point_once(tmp_path, build_count, name, flags, builds):
    # the config as given is built at every point, plus its scaled points when scaled
    cfg = replace(figure_config(name), episodes=1)
    path = _write_config(tmp_path, cfg)
    assert main(["run", str(path), "--out", str(tmp_path / "out.csv")] + flags) == 0
    assert set(build_count) >= set(cfg.sweep_values)
    assert len(build_count) <= builds * len(cfg.sweep_values)


@pytest.mark.parametrize("name", ["fig1", "fig5"])
def test_cli_validate_builds_every_sweep_point(tmp_path, capsys, build_count, name):
    cfg = figure_config(name)
    assert main(["validate", str(_write_config(tmp_path, cfg))]) == 0
    assert build_count == list(cfg.sweep_values)


# sha256 of the JSON of every sweep point's process set, as the code before
# the typed reads built them from the same configs
PROCESS_SET_DIGESTS = {
    "fig1": "9143f139f1cd5b716f659243de9ca9d21ff11b63b905fa5558d61cd387767607",
    "fig2": "4c084e0fc0bddebba0a0791253da1273fdecfa40d50ff9e2902831ad5ecaa261",
    "fig3": "6da1ec9524ce427cfc89719fb228fb7e8cbde066328ab2beb8e7310b9b909cab",
    "fig4": "43283bfcfc23bf8d1938920f800e013c963ac3cc98782ede3678f9229a7b92f9",
    "fig5": "e3cfee6c3768b8a932eff4dbbb30245c86062f9e191d7acb45d15101087bde76",
    "grid_glr": "9143f139f1cd5b716f659243de9ca9d21ff11b63b905fa5558d61cd387767607",
    "pair_explore": "e3cfee6c3768b8a932eff4dbbb30245c86062f9e191d7acb45d15101087bde76",
    "wide_k": "026dca2cc579f975c15f48baf7ebc0e330a6a01840788ab1434ffd009b7c57ef",
}


@pytest.mark.parametrize("name", sorted(PROCESS_SET_DIGESTS))
def test_benchmark_configs_parse_to_the_same_process_sets(monkeypatch, name):
    # the five recipes as serialized, and every config perfbench runs
    if name in harness.FIGURE_NAMES:
        text = serialize_config(figure_config(name))
    else:
        monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
        from workloads import WORKLOADS, load_reference

        raw = WORKLOADS[name].build(harness)
        assert raw == load_reference(name)["config"]  # perfbench refuses to run otherwise
        text = json.dumps(raw)
    cfg = parse_config(text)
    sets = [[harness.process_to_json(s) for s in materialize_processes(cfg, v)]
            for v in cfg.sweep_values]
    assert hashlib.sha256(json.dumps(sets).encode()).hexdigest() == PROCESS_SET_DIGESTS[name]
