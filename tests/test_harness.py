import copy
import dataclasses
import json
import os
from pathlib import Path

import numpy as np
import pytest

from dcee import (ConfigError, NumericalError, Trace, builtin_config, compare,
                  compute_metrics, config_from_dict, emit_csv, load_config,
                  read_trace_csv, render_comparison, run_scenario, run_seeds)
from dcee import harness
from dcee.cli import main as cli_main
from dcee.harness import write_plot_script

REPO = Path(__file__).resolve().parents[1]


def quad_config(**run_updates):
    d = builtin_config("quadratic-linear")
    d["run"].update(run_updates)
    return config_from_dict(d)


def short_mppt(horizon=40, **ctl):
    d = builtin_config("mppt")
    del d["run"]["duration"]
    d["run"]["horizon"] = horizon
    d["controller"].update(ctl)
    return config_from_dict(d)


def test_unknown_top_level_key_rejected():
    d = builtin_config("quadratic-linear")
    d["plantt"] = {}
    with pytest.raises(ConfigError, match="plantt"):
        config_from_dict(d)


def test_unknown_section_key_rejected():
    d = builtin_config("quadratic-linear")
    d["controller"]["detla"] = 0.5
    with pytest.raises(ConfigError, match="detla"):
        config_from_dict(d)


def test_bad_kind_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"kind": "unknown"})


def test_horizon_and_duration_conflict():
    d = builtin_config("mppt")
    d["run"]["horizon"] = 100
    with pytest.raises(ConfigError, match="not both"):
        config_from_dict(d)


def test_mppt_validation_rules():
    d = builtin_config("mppt")
    d["controller"]["algo"] = "sweep"
    with pytest.raises(ConfigError):
        config_from_dict(d)
    d = builtin_config("mppt")
    d["controller"]["v_init"] = 1.0  # outside v_limits
    with pytest.raises(ConfigError):
        config_from_dict(d)
    d = builtin_config("mppt")
    d["ensemble"]["prior_low"] = [0.0] * 5  # degree+1 mismatch
    with pytest.raises(ConfigError):
        config_from_dict(d)
    d = builtin_config("mppt")
    d["controller"]["fd_eps"] = 1e-5  # the PV gradient is closed-form
    with pytest.raises(ConfigError, match="fd_eps"):
        config_from_dict(d)
    d = builtin_config("mppt")
    d["controller"]["v_limits"] = d["reward"]["v_range"]  # no probe margin needed
    config_from_dict(d)


def test_quadratic_rejects_fd_eps():
    d = builtin_config("quadratic-linear")
    d["controller"]["fd_eps"] = 1e-5  # the quadratic gradient is closed-form too
    with pytest.raises(ConfigError, match="fd_eps"):
        config_from_dict(d)


def test_horizon_zero_gives_single_record(tmp_path):
    cfg = quad_config(horizon=0)
    tr = run_scenario(cfg)
    assert tr.n_rows == 1
    for col in tr.columns:
        assert np.all(np.isfinite(tr.values[col]))
    path = tmp_path / "single.csv"
    emit_csv(tr, path)
    assert len(path.read_text().strip().splitlines()) == 2  # header + 1 row


def test_trace_length_and_finiteness():
    cfg = quad_config(horizon=50)
    tr = run_scenario(cfg)
    assert tr.n_rows == 51
    for col in tr.columns:
        assert np.all(np.isfinite(tr.values[col])), col
    assert np.all(np.diff(tr.column("k")) == 1)


def test_bit_identical_reruns():
    cfg = quad_config(horizon=200)
    a = run_scenario(cfg)
    b = run_scenario(cfg)
    for col in a.columns:
        assert np.array_equal(a.values[col], b.values[col]), col


def test_noise_stream_independent_of_ensemble_size():
    # same seed, different N: the measurement noise sequence is unchanged
    theta_true = 1.0
    traces = []
    for n in (5, 50):
        d = builtin_config("quadratic-linear")
        d["ensemble"]["n"] = n
        d["run"]["horizon"] = 30
        traces.append(run_scenario(config_from_dict(d)))
    for tr_a, tr_b in [traces[:2]]:
        for tr in (tr_a, tr_b):
            y = tr.column("y")
            assert tr.n_rows == 31
        noise_a = tr_a.column("j_obs") - (2.0 * tr_a.column("y")
                                          - theta_true * tr_a.column("y") ** 2)
        noise_b = tr_b.column("j_obs") - (2.0 * tr_b.column("y")
                                          - theta_true * tr_b.column("y") ** 2)
        np.testing.assert_allclose(noise_a, noise_b, atol=1e-12)


def test_seed_changes_trace():
    a = run_scenario(quad_config(horizon=50, seed=1))
    b = run_scenario(quad_config(horizon=50, seed=2))
    assert not np.array_equal(a.column("j_obs"), b.column("j_obs"))


def test_run_seeds_matches_single_runs_in_seed_order():
    cfg = quad_config(horizon=80)
    seeds = [5, 3, 4]
    traces = run_seeds(cfg, seeds)
    assert len(traces) == len(seeds)
    for seed, tr in zip(seeds, traces):
        ref = run_scenario(cfg.with_updates(seed=seed))
        assert tr.columns == ref.columns
        for col in ref.columns:
            assert np.array_equal(tr.values[col], ref.values[col])


def test_numerical_failure_persists_partial_trace(tmp_path):
    d = builtin_config("quadratic-linear")
    d["ensemble"]["rate"] = 1e308  # blows the estimates up immediately
    d["run"]["horizon"] = 50
    d["run"]["out"] = str(tmp_path / "partial.csv")
    cfg = config_from_dict(d)
    with pytest.raises(NumericalError) as err, np.errstate(all="ignore"):
        run_scenario(cfg)
    assert err.value.step is not None
    assert err.value.partial_path == str(tmp_path / "partial.csv")
    assert (tmp_path / "partial.csv").exists()


def _prior_low_above_high(d):
    d["ensemble"]["prior_low"][0] = d["ensemble"]["prior_high"][0] + 1.0


@pytest.mark.parametrize("kind, mutate", [
    ("mppt", lambda d: d["ensemble"].update(rate=-1.0)),
    ("mppt", _prior_low_above_high),
    ("mppt", lambda d: d["plant"].update(r_s=-1.0)),
    ("quadratic-linear", lambda d: d["plant"].update(B=[[0.0], [0.0]])),
    ("quadratic-linear", lambda d: d["controller"].update(poles=[1.2, 0.5])),
    ("quadratic-linear", lambda d: d["controller"].update(poles=[0.5])),
    ("quadratic-linear", lambda d: d["plant"].update(B=[[1.0, 0.0], [1.0, 1.0]])),
    ("quadratic-linear", lambda d: d["controller"].update(xi0=[9.0])),
], ids=["negative-rate", "prior-low-above-high", "negative-r_s", "rank-deficient-B",
        "unstable-poles", "wrong-pole-count", "two-input-B-without-K",
        "xi0-outside-y_range"])
def test_cli_bad_config_exits_2(tmp_path, capsys, kind, mutate):
    d = builtin_config(kind)
    mutate(d)
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(d))
    commands = ["run", "gains"] if kind == "quadratic-linear" else ["run"]
    for command in commands:
        assert cli_main([command, "--config", str(cfg_path)]) == 2
        assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("rate", [5.0, 50.0])
def test_cli_estimator_divergence_exits_3_with_partial_trace(tmp_path, capsys, rate):
    d = builtin_config("mppt")
    d["ensemble"]["rate"] = rate
    cfg_path = tmp_path / "diverge.json"
    cfg_path.write_text(json.dumps(d))
    out = tmp_path / "diverge.csv"
    with np.errstate(all="ignore"):
        rc = cli_main(["run", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 3
    assert "estimator ensemble diverged" in capsys.readouterr().err
    tr = read_trace_csv(out)
    assert 0 < tr.n_rows < 2001
    for col in tr.columns:
        assert np.all(np.isfinite(tr.values[col])), col


def test_quadratic_estimator_divergence_stops_before_non_finite_rows(tmp_path):
    # rate 0.05 overshoots: theta_std_0 overflows long before the plant does
    d = builtin_config("quadratic-linear")
    d["ensemble"]["rate"] = 0.05
    d["run"]["out"] = str(tmp_path / "partial.csv")
    with pytest.raises(NumericalError, match="estimator ensemble diverged") as err, \
            np.errstate(all="ignore"):
        run_scenario(config_from_dict(d))
    tr = read_trace_csv(tmp_path / "partial.csv")
    assert 0 < tr.n_rows == err.value.step < d["run"]["horizon"]
    for col in tr.columns:
        assert np.all(np.isfinite(tr.values[col])), col


def test_mppt_dcee_solves_the_optimum_map_once_per_tick(monkeypatch):
    solved = []
    build = harness.pv_poly_reward

    def counting_model(*args, **kwargs):
        model = build(*args, **kwargs)
        solve = model.optimum_map_batch

        def counted(thetas):
            solved.append(len(thetas))
            return solve(thetas)

        return dataclasses.replace(model, optimum_map_batch=counted)

    monkeypatch.setattr(harness, "pv_poly_reward", counting_model)
    run_scenario(short_mppt(horizon=30))
    assert solved == [50] * 31


def test_emit_csv_round_trip(tmp_path):
    cfg = quad_config(horizon=25)
    tr = run_scenario(cfg)
    path = tmp_path / "trace.csv"
    emit_csv(tr, path)
    back = read_trace_csv(path)
    assert back.columns == tr.columns
    for col in tr.columns:
        np.testing.assert_array_equal(back.values[col], tr.values[col])


def test_trace_schema_quadratic():
    tr = run_scenario(quad_config(horizon=1))
    assert tr.columns == ("k", "t", "x0", "x1", "y", "xi", "u", "j_obs",
                          "theta_mean_0", "theta_std_0", "r_mean", "p_explore",
                          "grad_exploit_norm", "grad_explore_norm",
                          "err_track", "contraction_ok")


def test_trace_schema_mppt():
    tr = run_scenario(short_mppt(horizon=1))
    assert tr.columns[:11] == ("k", "t", "v", "u", "i", "p", "j_obs",
                               "irradiance", "temperature", "v_mpp_oracle",
                               "p_max_oracle")
    assert "theta_mean_5" in tr.columns and "p_explore" in tr.columns


def test_metrics_perfect_and_half_power():
    t = np.linspace(0.0, 1.0, 11)
    p = np.full(11, 100.0)
    tr = Trace(columns=("t", "p", "v"),
               values={"t": t, "p": p, "v": np.full(11, 35.0)})
    met = compute_metrics(tr, p)
    assert met.efficiency == pytest.approx(1.0)
    assert met.power_loss == pytest.approx(0.0)
    met = compute_metrics(Trace(columns=("t", "p", "v"),
                                values={"t": t, "p": 0.5 * p,
                                        "v": np.full(11, 35.0)}), p)
    assert met.efficiency == pytest.approx(0.5)


def test_metrics_rejects_length_mismatch():
    t = np.linspace(0.0, 1.0, 11)
    tr = Trace(columns=("t", "p", "v"),
               values={"t": t, "p": np.ones(11), "v": np.ones(11)})
    with pytest.raises(ValueError):
        compute_metrics(tr, np.ones(7))


def test_compare_single_and_repeated():
    cfg = short_mppt(horizon=30)
    rows = compare([cfg])
    assert len(rows) == 1 and rows[0][0] == "dcee"
    rows = compare([cfg, copy.deepcopy(cfg)])
    assert rows[0][1] == rows[1][1]
    text = render_comparison(rows)
    assert "dcee" in text and "efficiency" in text


def test_compare_rejects_inconsistent_scenarios():
    a = short_mppt(horizon=30)
    d = builtin_config("mppt")
    del d["run"]["duration"]
    d["run"]["horizon"] = 30
    d["plant"]["r_s"] = 0.9
    b = config_from_dict(d)
    with pytest.raises(ConfigError):
        compare([a, b])


def test_shipped_configs_match_builtin():
    for kind, name in [("quadratic-linear", "quadratic_linear"),
                       ("mppt", "mppt")]:
        with open(REPO / "configs" / f"{name}.json") as fh:
            assert json.load(fh) == builtin_config(kind)


def test_load_config_reads_shipped_files():
    cfg = load_config(REPO / "configs" / "quadratic_linear.json")
    assert cfg.kind == "quadratic-linear"
    assert cfg.horizon == 5000
    cfg = load_config(REPO / "configs" / "mppt.json")
    assert cfg.kind == "mppt" and cfg.horizon == 2000


def test_write_plot_script(tmp_path):
    cfg = quad_config(horizon=5)
    path = tmp_path / "t.csv"
    emit_csv(run_scenario(cfg), path)
    script = write_plot_script(path, "quadratic-linear")
    assert Path(script).exists()
    assert "set datafile separator" in Path(script).read_text()


def test_cli_gains_and_exit_codes(tmp_path, capsys):
    rc = cli_main(["gains", "--config",
                   str(REPO / "configs" / "quadratic_linear.json")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0.333333333333" in out and "-1.24" in out
    # config error category
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "nope"}')
    assert cli_main(["gains", "--config", str(bad)]) == 2
    # i/o error category
    assert cli_main(["gains", "--config", str(tmp_path / "missing.json")]) == 4
    # wrong scenario kind for compare
    assert cli_main(["compare", "--config",
                     str(REPO / "configs" / "quadratic_linear.json")]) == 2


def test_cli_run_writes_trace(tmp_path, capsys):
    d = builtin_config("quadratic-linear")
    d["run"]["horizon"] = 20
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(d))
    out_path = tmp_path / "trace.csv"
    rc = cli_main(["run", "--config", str(cfg_path), "--out", str(out_path)])
    assert rc == 0
    assert out_path.exists() and (tmp_path / "trace.gp").exists()
    tr = read_trace_csv(out_path)
    assert tr.n_rows == 21


def test_cli_mppt_algo_override(tmp_path):
    d = builtin_config("mppt")
    del d["run"]["duration"]
    d["run"]["horizon"] = 25
    cfg_path = tmp_path / "m.json"
    cfg_path.write_text(json.dumps(d))
    out_path = tmp_path / "m.csv"
    rc = cli_main(["mppt", "--config", str(cfg_path), "--algo", "hc",
                   "--out", str(out_path)])
    assert rc == 0
    tr = read_trace_csv(out_path)
    assert "theta_mean_0" not in tr.columns  # baseline trace has no ensemble
