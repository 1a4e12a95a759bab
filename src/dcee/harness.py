"""Scenario configuration, simulation loops, metrics and CSV traces.

A scenario is a JSON object with sections ``plant`` / ``reward`` /
``ensemble`` / ``controller`` / ``noise`` / ``run`` (plus ``profile``
for the PV kind).  Unknown keys are rejected.  Two kinds exist:

``quadratic-linear``
    Linear plant regulated onto the maximiser of a concave quadratic
    reward with one unknown curvature parameter.

``mppt``
    Photovoltaic panel under a time-varying environment, tracked either
    by the dual controller over a polynomial power-curve model or by the
    hill-climbing / incremental-conductance baselines.

Each run owns a seeded random generator; independent sub-streams are
derived for ensemble initialisation and measurement noise, so changing
the ensemble size never perturbs the noise sequence.  Trace rows record
quantities at time k: the state, the observation taken there, the
estimates after consuming that observation, and the control applied at
that tick (zero on the terminal row, where no control is applied).
"""

from __future__ import annotations

import copy
import csv
import json
import os
from dataclasses import dataclass

import numpy as np

# explore_grad is not called here (both loops take the closed-form
# gradient); it stays a harness attribute because the benchmark's tracer
# patches the loop's names on this module
from .dual import contraction_check, exploit_grad, explore_grad  # noqa: F401
from .ensemble import adapt, init_ensemble, predict
from .errors import ConfigError, NumericalError, RegulationError
from .mppt_baselines import HcState, IcState, hc_step, ic_step
from .pv import EnvProfile, PvParams, mpp_oracle, profile_eval, pv_current, pv_poly_reward
from .reward import NoiseSpec, quadratic_reward, sample_noise
from .servo import design_gains

__all__ = [
    "ScenarioConfig",
    "Trace",
    "Metrics",
    "builtin_config",
    "config_from_dict",
    "load_config",
    "run_scenario",
    "run_seeds",
    "compute_metrics",
    "compare",
    "render_comparison",
    "emit_csv",
    "read_trace_csv",
    "write_plot_script",
]

_trapz = getattr(np, "trapezoid", None) or np.trapz

_INT_COLUMNS = {"k", "contraction_ok"}

_ALLOWED = {
    "quadratic-linear": {
        "plant": {"A", "B", "C", "x0"},
        "reward": {"name", "known_gain", "theta_true", "y_range", "theta_floor"},
        "ensemble": {"n", "prior_low", "prior_high", "rate"},
        "controller": {"delta", "poles", "K", "xi0"},
        "noise": {"variance"},
        "run": {"horizon", "dt", "seed", "out"},
    },
    "mppt": {
        "plant": {"i_sc_ref", "v_oc_ref", "n_cells", "ideality", "r_s", "r_sh",
                  "temp_coeff_i", "temp_coeff_v", "g_ref", "t_ref"},
        "profile": {"irradiance", "temperature"},
        "reward": {"name", "degree", "v_range", "v_scale", "v_shift"},
        "ensemble": {"n", "prior_low", "prior_high", "rate"},
        "controller": {"algo", "delta", "u_max", "v_init", "v_limits",
                       "hc_step", "ic_step", "ic_deadband"},
        "noise": {"variance"},
        "run": {"horizon", "duration", "dt", "seed", "out"},
    },
}


def builtin_config(kind: str) -> dict:
    """Fresh default scenario dictionary for the given kind."""
    if kind == "quadratic-linear":
        return {
            "kind": "quadratic-linear",
            "plant": {
                "A": [[0.0, 1.0], [2.0, 1.0]],
                "B": [[1.0], [1.0]],
                "C": [[0.0, 1.0]],
                # start at an informative operating point: the regressor
                # vanishes at y = 0, so a cold start there learns nothing
                "x0": [1.2, 3.6],
            },
            "reward": {
                "name": "quadratic",
                "known_gain": 2.0,
                "theta_true": [1.0],
                "y_range": [-4.0, 4.0],
                "theta_floor": 1e-6,
            },
            "ensemble": {
                "n": 100,
                "prior_low": [0.0],
                "prior_high": [20.0],
                "rate": 0.005,
            },
            "controller": {
                "delta": 0.5,
                "poles": [0.4, 0.7],
                "xi0": [3.6],
            },
            "noise": {"variance": 2.0},
            "run": {"horizon": 5000, "dt": 1.0, "seed": 1, "out": None},
        }
    if kind == "mppt":
        return {
            "kind": "mppt",
            "plant": {
                "i_sc_ref": 5.4,
                "v_oc_ref": 44.0,
                "n_cells": 72,
                "ideality": 1.3,
                "r_s": 0.5,
                "r_sh": 400.0,
                "temp_coeff_i": 0.003,
                "temp_coeff_v": -0.16,
            },
            "profile": {
                "irradiance": [[0.0, 600.0], [0.3, 1000.0], [0.6, 1000.0],
                               [0.9, 700.0], [1.2, 700.0], [1.2, 950.0],
                               [2.0, 950.0]],
                "temperature": [[0.0, 25.0], [1.0, 35.0]],
            },
            "reward": {
                "name": "pv-poly",
                "degree": 5,
                "v_range": [2.0, 43.0],
                "v_scale": 22.0,
                "v_shift": 22.0,
            },
            # commissioning prior: a +/-15% box around the degree-5 fit of
            # the reference-conditions power curve (datasheet anchoring);
            # adaptation tracks the moving environment from there
            "ensemble": {
                "n": 50,
                "prior_low": [88.9, 83.8, 12.1, 35.2, -151.1, -218.4],
                "prior_high": [143.8, 137.0, 39.8, 71.2, -94.3, -144.0],
                "rate": 0.1,
            },
            "controller": {
                "algo": "dcee",
                "delta": 0.5,
                "u_max": 2.0,
                "v_init": 16.0,
                "v_limits": [4.0, 42.0],
                "hc_step": 1.6,
                "ic_step": 0.1,
                "ic_deadband": 0.02,
            },
            "noise": {"variance": 0.0},
            "run": {"duration": 2.0, "dt": 0.001, "seed": 1, "out": None},
        }
    raise ConfigError(f"unknown scenario kind {kind!r}")


@dataclass
class ScenarioConfig:
    """Validated scenario description."""

    kind: str
    data: dict
    seed: int
    horizon: int
    dt: float
    out: str | None

    def section(self, name: str) -> dict:
        return self.data[name]

    def with_updates(self, seed=None, out=None, algo=None) -> "ScenarioConfig":
        d = copy.deepcopy(self.data)
        if seed is not None:
            d["run"]["seed"] = int(seed)
        if out is not None:
            d["run"]["out"] = str(out)
        if algo is not None:
            d["controller"]["algo"] = str(algo)
        return config_from_dict(d)


def _check_keys(kind, section, given, allowed):
    unknown = set(given) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in section "
                          f"'{section}' of a {kind} scenario")


def config_from_dict(d: dict) -> ScenarioConfig:
    """Validate a scenario dictionary (defaults filled per section)."""
    if not isinstance(d, dict):
        raise ConfigError("scenario config must be a JSON object")
    kind = d.get("kind")
    if kind not in _ALLOWED:
        raise ConfigError(f"scenario kind must be one of {sorted(_ALLOWED)}, "
                          f"got {kind!r}")
    allowed_sections = set(_ALLOWED[kind]) | {"kind"}
    _check_keys(kind, "<top level>", d.keys(), allowed_sections)

    merged = builtin_config(kind)
    for section, allowed in _ALLOWED[kind].items():
        user = d.get(section, {})
        if not isinstance(user, dict):
            raise ConfigError(f"section '{section}' must be an object")
        _check_keys(kind, section, user.keys(), allowed)
        merged[section].update(copy.deepcopy(user))

    run = merged["run"]
    if kind == "mppt" and "horizon" in run and "duration" in run:
        # a user-supplied horizon replaces the default duration
        if "horizon" in d.get("run", {}) and "duration" in d.get("run", {}):
            raise ConfigError("give either run.horizon or run.duration, not both")
        if "horizon" in d.get("run", {}):
            run.pop("duration")

    dt = float(run.get("dt", 1.0))
    if dt <= 0:
        raise ConfigError("run.dt must be positive")
    if "duration" in run:
        duration = float(run["duration"])
        if duration < 0:
            raise ConfigError("run.duration must be nonnegative")
        horizon = int(round(duration / dt))
    else:
        horizon = int(run["horizon"])
    if horizon < 0:
        raise ConfigError("run horizon must be nonnegative")

    _validate_sections(kind, merged)
    return ScenarioConfig(kind=kind, data=merged, seed=int(run["seed"]),
                          horizon=horizon, dt=dt, out=run.get("out"))


def _validate_sections(kind: str, d: dict) -> None:
    ens = d["ensemble"]
    n = int(ens["n"])
    if n < 1:
        raise ConfigError("ensemble.n must be at least 1")
    low = np.asarray(ens["prior_low"], dtype=float)
    high = np.asarray(ens["prior_high"], dtype=float)
    if low.shape != high.shape:
        raise ConfigError("ensemble prior bounds must have equal length")
    if np.any(low > high):
        raise ConfigError("ensemble.prior_low must not exceed prior_high")
    rate = np.asarray(ens["rate"], dtype=float)
    if rate.ndim > 1 or (rate.ndim == 1 and rate.size != n):
        raise ConfigError("ensemble.rate must be one number or one per estimator")
    if not np.all(np.isfinite(rate) & (rate > 0)):
        raise ConfigError("ensemble.rate must be finite and positive")
    if float(d["noise"]["variance"]) < 0:
        raise ConfigError("noise.variance must be nonnegative")
    ctl = d["controller"]
    if float(ctl["delta"]) <= 0:
        raise ConfigError("controller.delta must be positive")
    lo, hi = d["reward"].get("y_range", d["reward"].get("v_range"))
    if not lo < hi:
        raise ConfigError("reward range must be an interval with lo < hi")
    if kind == "quadratic-linear":
        if d["reward"]["name"] != "quadratic":
            raise ConfigError("quadratic-linear scenarios use the 'quadratic' reward")
        if len(ens["prior_low"]) != len(d["reward"]["theta_true"]):
            raise ConfigError("prior bounds and theta_true disagree on dimension")
        xi0 = np.asarray(ctl["xi0"], dtype=float)
        if not np.all((lo <= xi0) & (xi0 <= hi)):
            raise ConfigError("controller.xi0 must lie inside reward.y_range")
        plant = d["plant"]
        try:
            design_gains(plant["A"], plant["B"], plant["C"],
                         poles=ctl.get("poles"), K=ctl.get("K"))
        except (RegulationError, ValueError) as exc:
            raise ConfigError(f"plant/controller gains: {exc}") from exc
    else:
        if d["reward"]["name"] != "pv-poly":
            raise ConfigError("mppt scenarios use the 'pv-poly' reward")
        if ctl["algo"] not in ("dcee", "hc", "ic"):
            raise ConfigError("controller.algo must be dcee, hc or ic")
        m = int(d["reward"]["degree"]) + 1
        if len(ens["prior_low"]) != m:
            raise ConfigError(f"ensemble prior bounds must have length {m} "
                              "(polynomial degree + 1)")
        vlo, vhi = ctl["v_limits"]
        if not (lo <= vlo < vhi <= hi):
            raise ConfigError("controller.v_limits must sit inside reward.v_range")
        if not vlo <= float(ctl["v_init"]) <= vhi:
            raise ConfigError("controller.v_init must lie inside controller.v_limits")
        for name, build in (("plant", PvParams), ("profile", EnvProfile)):
            try:
                build(**d[name])
            except ValueError as exc:
                raise ConfigError(f"{name}: {exc}") from exc


def load_config(path) -> ScenarioConfig:
    """Read and validate a scenario JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"could not parse {path}: {exc}") from exc
    return config_from_dict(raw)


@dataclass
class Trace:
    """Column-major per-step record of one simulation run."""

    columns: tuple
    values: dict

    @property
    def n_rows(self) -> int:
        return len(self.values[self.columns[0]])

    def column(self, name: str) -> np.ndarray:
        return self.values[name]


@dataclass
class Metrics:
    """Energy bookkeeping of one run against the per-step optimum."""

    energy_extracted: float
    energy_max: float
    efficiency: float
    power_loss: float
    steady_state_band: float


def _spawn_rngs(seed: int):
    streams = np.random.SeedSequence(seed).spawn(2)
    return (np.random.default_rng(streams[0]),  # ensemble initialisation
            np.random.default_rng(streams[1]))  # measurement noise


def _build_trace(rows: dict) -> Trace:
    cols = tuple(rows.keys())
    values = {}
    for name, data in rows.items():
        dtype = int if name in _INT_COLUMNS else float
        values[name] = np.asarray(data, dtype=dtype)
    return Trace(columns=cols, values=values)


def _persist_partial(cfg: ScenarioConfig, rows: dict, step: int) -> str | None:
    path = None
    if cfg.out:
        path = str(cfg.out)
        emit_csv(_build_trace(rows), path)
    return path


def run_scenario(config: ScenarioConfig) -> Trace:
    """Simulate one scenario deterministically for its configured seed."""
    if config.kind == "quadratic-linear":
        return _run_quadratic(config)
    return _run_mppt(config)


def _run_quadratic(cfg: ScenarioConfig) -> Trace:
    plant_cfg = cfg.section("plant")
    A = np.asarray(plant_cfg["A"], dtype=float)
    B = np.asarray(plant_cfg["B"], dtype=float)
    C = np.asarray(plant_cfg["C"], dtype=float)
    x = np.asarray(plant_cfg["x0"], dtype=float)

    rw = cfg.section("reward")
    gain = float(rw["known_gain"])
    model = quadratic_reward(known_gain=gain,
                             y_range=tuple(rw["y_range"]),
                             theta_floor=rw["theta_floor"])
    theta_true = np.asarray(rw["theta_true"], dtype=float)

    ctl = cfg.section("controller")
    delta = float(ctl["delta"])
    gains = design_gains(A, B, C, poles=ctl.get("poles"), K=ctl.get("K"))
    feed = gains.G + gains.K @ gains.Psi
    xi = float(np.atleast_1d(ctl["xi0"])[0])
    xi_lo, xi_hi = model.y_range

    ens_cfg = cfg.section("ensemble")
    rng_init, rng_noise = _spawn_rngs(cfg.seed)
    ens = init_ensemble(int(ens_cfg["n"]), ens_cfg["prior_low"],
                        ens_cfg["prior_high"], ens_cfg["rate"], rng_init)
    noise = NoiseSpec(float(cfg.section("noise")["variance"]))
    flag = int(contraction_check(delta, 2.0))

    # flat-array fast path, numerically identical to adapt/predict/
    # exploit_grad for this single-parameter model
    th = ens.thetas[:, 0].copy()
    rates = ens.rates
    half_gain = gain / 2.0
    floor = model.theta_floor

    def belief_at(y_cand, th_mean):
        """Predicted optimum mean, spread and closed-form spread gradient."""
        phi = -(y_cand * y_cand)
        dphi = -2.0 * y_cand
        resid = th * phi - phi * th_mean
        pred = th - (rates * resid) * phi
        dev = th - th_mean
        dpred = -(rates * (dphi * (dev * phi) + phi * (dev * dphi)))
        clamped = pred
        if floor is not None:
            clamped = np.maximum(pred, floor)
            dpred = np.where(pred > floor, dpred, 0.0)
        r = half_gain / clamped
        dr = (-r / clamped) * dpred
        r_mean = r.mean()
        return (r_mean, ((r - r_mean) ** 2).mean(),
                2.0 * ((r - r_mean) * dr).mean())

    names = (["k", "t"] + [f"x{i}" for i in range(x.size)]
             + ["y", "xi", "u", "j_obs", "theta_mean_0", "theta_std_0",
                "r_mean", "p_explore", "grad_exploit_norm", "grad_explore_norm",
                "err_track", "contraction_ok"])
    rows = {name: [] for name in names}

    for k in range(cfg.horizon + 1):
        y = float((C @ x)[0])
        j_obs = (gain * y - theta_true[0] * (y * y)
                 + sample_noise(noise, rng_noise))
        phi = -(y * y)
        resid = th * phi - (j_obs - gain * y)
        th = th - (rates * resid) * phi
        th_mean = th.mean()
        th_std = th.std()
        if not (np.isfinite(th_mean) and np.isfinite(th_std)):
            path = _persist_partial(cfg, rows, k)
            raise NumericalError(f"estimator ensemble diverged at step {k}",
                                 step=k, partial_path=path)
        r_mean, p_explore, g_explore = belief_at(xi, th_mean)
        g_exploit = 2.0 * (xi - r_mean)

        x_rec, xi_rec = x, xi
        if k < cfg.horizon:
            xi = float(np.clip(xi - delta * (g_exploit + g_explore),
                               xi_lo, xi_hi))
            u = -(gains.K @ x) + feed[:, 0] * xi
            x = A @ x + B @ u
        else:
            u = np.zeros(B.shape[1])

        rows["k"].append(k)
        rows["t"].append(k * cfg.dt)
        for i, xv in enumerate(x_rec):
            rows[f"x{i}"].append(xv)
        rows["y"].append(y)
        rows["xi"].append(xi_rec)
        rows["u"].append(float(u[0]))
        rows["j_obs"].append(j_obs)
        rows["theta_mean_0"].append(th_mean)
        rows["theta_std_0"].append(th_std)
        rows["r_mean"].append(r_mean)
        rows["p_explore"].append(p_explore)
        rows["grad_exploit_norm"].append(abs(g_exploit))
        rows["grad_explore_norm"].append(abs(g_explore))
        rows["err_track"].append(y - xi_rec)
        rows["contraction_ok"].append(flag)

        if not (np.all(np.isfinite(x)) and np.isfinite(xi)):
            path = _persist_partial(cfg, rows, k)
            raise NumericalError(f"state became non-finite at step {k}",
                                 step=k, partial_path=path)

    return _build_trace(rows)


def _run_mppt(cfg: ScenarioConfig) -> Trace:
    params = PvParams(**cfg.section("plant"))
    profile = EnvProfile(**cfg.section("profile"))
    rw = cfg.section("reward")
    model = pv_poly_reward(degree=int(rw["degree"]),
                           v_range=tuple(rw["v_range"]),
                           v_scale=float(rw["v_scale"]),
                           v_shift=float(rw.get("v_shift", 0.0)))

    ctl = cfg.section("controller")
    algo = ctl["algo"]
    delta = float(ctl["delta"])
    u_max = float(ctl["u_max"])
    v_lo, v_hi = (float(ctl["v_limits"][0]), float(ctl["v_limits"][1]))
    v = float(ctl["v_init"])

    rng_init, rng_noise = _spawn_rngs(cfg.seed)
    noise = NoiseSpec(float(cfg.section("noise")["variance"]))
    ens_cfg = cfg.section("ensemble")
    ens = init_ensemble(int(ens_cfg["n"]), ens_cfg["prior_low"],
                        ens_cfg["prior_high"], ens_cfg["rate"], rng_init)
    hc = HcState(v_prev=v, step=float(ctl["hc_step"]))
    ic = IcState(step=float(ctl["ic_step"]), deadband=float(ctl["ic_deadband"]))
    flag = int(contraction_check(delta, 2.0))

    m = model.dim
    names = ["k", "t", "v", "u", "i", "p", "j_obs", "irradiance", "temperature",
             "v_mpp_oracle", "p_max_oracle"]
    if algo == "dcee":
        names += ([f"theta_mean_{i}" for i in range(m)]
                  + [f"theta_std_{i}" for i in range(m)]
                  + ["r_mean", "p_explore", "grad_exploit_norm",
                     "grad_explore_norm", "contraction_ok"])
    rows = {name: [] for name in names}
    oracle_cache: dict[tuple[float, float], tuple[float, float]] = {}

    for k in range(cfg.horizon + 1):
        t = k * cfg.dt
        irr, temp = profile_eval(profile, t)
        key = (irr, temp)
        if key not in oracle_cache:
            oracle_cache[key] = mpp_oracle(params, irr, temp)
        v_mpp, p_max = oracle_cache[key]
        i_now = pv_current(params, v, irr, temp)
        p_now = v * i_now
        j_obs = p_now + sample_noise(noise, rng_noise)

        if algo == "dcee":
            ens = adapt(ens, [v], j_obs, model)
            theta_mean = ens.thetas.mean(axis=0)
            theta_std = ens.thetas.std(axis=0)
            if not (np.all(np.isfinite(theta_mean)) and np.all(np.isfinite(theta_std))):
                path = _persist_partial(cfg, rows, k)
                raise NumericalError(f"estimator ensemble diverged at step {k}",
                                     step=k, partial_path=path)
            ps = predict(ens, [v], model)
            g_exploit = exploit_grad([v], ps.r_mean)
            g_explore = ps.r_var_grad
            u = float(np.clip(-delta * (g_exploit[0] + g_explore[0]),
                              -u_max, u_max))
        elif algo == "hc":
            dv, hc = hc_step(hc, j_obs, v)
            u = float(np.clip(dv, -u_max, u_max))
        else:
            dv, ic = ic_step(ic, v, i_now)
            u = float(np.clip(dv, -u_max, u_max))

        rows["k"].append(k)
        rows["t"].append(t)
        rows["v"].append(v)
        rows["u"].append(u if k < cfg.horizon else 0.0)
        rows["i"].append(i_now)
        rows["p"].append(p_now)
        rows["j_obs"].append(j_obs)
        rows["irradiance"].append(irr)
        rows["temperature"].append(temp)
        rows["v_mpp_oracle"].append(v_mpp)
        rows["p_max_oracle"].append(p_max)
        if algo == "dcee":
            for i in range(m):
                rows[f"theta_mean_{i}"].append(theta_mean[i])
                rows[f"theta_std_{i}"].append(theta_std[i])
            rows["r_mean"].append(float(ps.r_mean[0]))
            rows["p_explore"].append(ps.r_var)
            rows["grad_exploit_norm"].append(float(np.linalg.norm(g_exploit)))
            rows["grad_explore_norm"].append(float(np.linalg.norm(g_explore)))
            rows["contraction_ok"].append(flag)

        if k < cfg.horizon:
            v = float(np.clip(v + u, v_lo, v_hi))
        if not np.isfinite(v):
            path = _persist_partial(cfg, rows, k)
            raise NumericalError(f"voltage became non-finite at step {k}",
                                 step=k, partial_path=path)

    return _build_trace(rows)


def run_seeds(config: ScenarioConfig, seeds) -> list[Trace]:
    """Run the same scenario under each seed in turn; traces in seed order."""
    return [run_scenario(config.with_updates(seed=s)) for s in seeds]


def compute_metrics(trace: Trace, oracle) -> Metrics:
    """Integrate extracted vs. achievable energy and the steady voltage band.

    ``oracle`` is the per-step maximum-power series; it must match the
    trace length.  Energy integrates the power column ``p``; the
    steady-state band is the range of the voltage column ``v`` over the
    final tenth of the horizon.
    """
    oracle = np.asarray(oracle, dtype=float)
    t = trace.column("t")
    p = trace.column("p")
    if oracle.shape != p.shape:
        raise ValueError("oracle series length does not match the trace")
    if t.size > 1:
        energy = float(_trapz(p, t))
        energy_max = float(_trapz(oracle, t))
    else:
        energy, energy_max = 0.0, 0.0
    efficiency = energy / energy_max if energy_max > 0 else 1.0
    window = max(1, int(round(trace.n_rows * 0.1)))
    tail = trace.column("v")[-window:]
    return Metrics(energy_extracted=energy, energy_max=energy_max,
                   efficiency=efficiency, power_loss=energy_max - energy,
                   steady_state_band=float(tail.max() - tail.min()))


def compare(configs) -> list[tuple[str, Metrics]]:
    """Run several scenarios sharing plant/profile/horizon; rank by efficiency."""
    configs = list(configs)
    if not configs:
        raise ConfigError("compare needs at least one scenario")
    ref = configs[0]
    for c in configs[1:]:
        same = (c.section("plant") == ref.section("plant")
                and c.data.get("profile") == ref.data.get("profile")
                and c.horizon == ref.horizon and c.dt == ref.dt)
        if not same:
            raise ConfigError("compared scenarios must share plant, profile "
                              "and horizon")
    out = []
    for c in configs:
        trace = run_scenario(c)
        met = compute_metrics(trace, trace.column("p_max_oracle"))
        out.append((c.section("controller")["algo"], met))
    out.sort(key=lambda row: row[1].efficiency, reverse=True)
    return out


def render_comparison(rows) -> str:
    """Plain-text table for a list of (label, Metrics) pairs."""
    header = f"{'algo':<6} {'efficiency':>10} {'energy_J':>12} " \
             f"{'loss_J':>12} {'band_V':>8}"
    lines = [header, "-" * len(header)]
    for label, met in rows:
        lines.append(f"{label:<6} {met.efficiency:>10.4f} "
                     f"{met.energy_extracted:>12.3f} {met.power_loss:>12.3f} "
                     f"{met.steady_state_band:>8.4f}")
    return "\n".join(lines)


def _format_cell(name: str, value) -> str:
    if name in _INT_COLUMNS:
        return str(int(value))
    return format(float(value), ".17g")


def emit_csv(trace: Trace, path) -> None:
    """Write the trace with lossless float formatting (17 significant digits)."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(trace.columns)
            for idx in range(trace.n_rows):
                writer.writerow(_format_cell(c, trace.values[c][idx])
                                for c in trace.columns)
    except OSError as exc:
        raise OSError(f"could not write trace to {path}: {exc}") from exc


def read_trace_csv(path) -> Trace:
    """Read back a trace written by ``emit_csv``."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        data = {name: [] for name in header}
        for row in reader:
            for name, cell in zip(header, row):
                data[name].append(cell)
    return _build_trace(data)


def write_plot_script(csv_path, kind: str) -> str:
    """Emit a small gnuplot script next to the CSV; returns its path."""
    base, _ = os.path.splitext(str(csv_path))
    script = base + ".gp"
    if kind == "quadratic-linear":
        plots = ('plot "{f}" using 2:5 with lines title "y", '
                 '"{f}" using 2:6 with lines title "xi", '
                 '"{f}" using 2:9 with lines title "theta mean"')
    else:
        plots = ('plot "{f}" using 2:3 with lines title "v", '
                 '"{f}" using 2:6 with lines title "p", '
                 '"{f}" using 2:11 with lines title "p max"')
    body = "\n".join([
        "set datafile separator ','",
        "set key autotitle columnhead",
        "set xlabel 't'",
        plots.format(f=os.path.basename(str(csv_path))),
        "pause -1",
        "",
    ])
    with open(script, "w", encoding="utf-8") as fh:
        fh.write(body)
    return script
