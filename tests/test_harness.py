"""Experiment harness: config codec, generators, sweeps, CSV, CLI."""

import hashlib
import io
import json
import math
import os
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
    initial_priority,
    match_error_budget,
    materialize_processes,
    parse_config,
    run_experiment,
    scaled_sweep_values,
    serialize_config,
    validate_config,
)
from seqscan.engine import ProcessSpec
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
    g1 = initial_priority(specs[0])
    g2 = initial_priority(specs[1])
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

    def run_episode(specs, *args, **kwargs):
        if len(specs) == 1:
            raise RuntimeError("episode failed")
        return real(specs, *args, **kwargs)

    monkeypatch.setattr(harness, "run_episode", run_episode)
    cfg = tiny_config(policies=("CL",), sweep_values=(1.0, 3.0), episodes=5)
    res = run_experiment(cfg)
    assert res[0].error == "episode failed" and math.isnan(res[0].mean_cost)
    assert res[1].error is None and res[1].mean_cost >= 0
    buf = io.StringIO()
    emit_csv(res, buf)
    lines = buf.getvalue().splitlines()
    assert lines[1].startswith("1,CL,0,,")


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


@pytest.mark.parametrize(
    "generator,pattern",
    [
        ({"kind": "identical", "rate0": 12.0, "rate1": 12.0}, _TWIN),
        ({"kind": "identical", "rate0": 10.0}, None),
        ({"kind": "identical", "rate1": 10.0}, _TWIN),
        ({"kind": "two_tier", "ratio": 1.0}, _TWIN),
        ({"kind": "two_tier", "ratio": 0.8}, None),
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
    cfg = tiny_config(generator=generator, sweep_variable="c_e", sweep_values=(10.0,))
    path = _write_config(tmp_path, cfg)
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
    assert main(["run", str(path), "--out", str(out)]) == 2
    assert "K must be even" in capsys.readouterr().err
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
        if initial_priority(replace(template, alpha=math.exp(mid), beta=math.exp(mid))) < target:
            llo = mid
        else:
            lhi = mid
    return math.exp(0.5 * (llo + lhi))


def test_match_error_budget_equals_200_steps_on_fig5():
    cfg = figure_config("fig5")
    first, second = cfg.processes
    for v in cfg.sweep_values:
        target = initial_priority(replace(first, alpha=v, beta=v)) / 2.0
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
    target = scale * initial_priority(replace(template, alpha=budget, beta=budget))
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
