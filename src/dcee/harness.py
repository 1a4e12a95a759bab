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

Each run owns a seeded random generator; ``_start`` derives independent
sub-streams for ensemble initialisation and measurement noise, so
changing the ensemble size never perturbs the noise sequence.  One tick
loop serves both kinds, for a batch of seeds at once on the ensemble
ops' seed axis (``run_seeds``; ``run_scenario`` is a batch of one):
``adapt`` to the observation, take the estimates' ``moments`` once,
``predict`` from them the belief at the plant's reference, then step it
down ``exploit_grad`` plus the closed-form exploration gradient (or by
the hc / ic increment).  The plant's ``bases`` hands the ops the model's
bases, evaluated once per tick point: the servo's regressor at the
output is the one its observation took, and the panel's output is its
reference, so one regressor serves ``adapt`` and ``predict``.

A tick is a function of the state it starts from (the plant's, the hc / ic
trackers' and the estimates) and of its inputs (the noise, and the panel's
environment).  The loop keeps the starts (x, state and estimates, one key
each) of the last ``REST_DEPTH`` ticks since an input changed.  A tick that
ends on one of them closes an orbit of q ticks (q = 1 is a fixed point;
hc's dither and an estimator cycling with period 2 are others), and the
loop copies whole cycles of its rows up to the next input change or the
last tick, which is always computed.  The optimum map is a function of each
row alone, so computed ticks of an orbit give the rows of copied ones: a
seed's trace is the same whatever else shares its batch, which rests only
when all its seeds do.

All that differs between the kinds sits in the plant, ``_Servo`` or
``_Panel``: ``observe`` gives the rewards, ``bases`` the ops' bases,
``step`` moves the reference ``ref`` by an increment and returns the
tick's ``row`` and ``tail`` columns, ``state`` is what a tick starts from
besides x and the estimates, ``inputs`` are the environment's columns, and
``shared`` holds the columns all seeds share.

A run is stored in one ``(column, seed, tick)`` block; ``_build_trace``
turns a seed's slice of it into a ``Trace``, as it does for the partial
trace of a failed run and for a CSV read back.  Trace rows record
quantities at time k: the state, the observation taken there, the
estimates after consuming that observation, and the control applied at
that tick (zero on the terminal row, where no control is applied).
"""

from __future__ import annotations

import copy
import csv
import json
import os
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

# explore_grad is not called here (the loop takes the closed-form gradient); it
# stays a harness attribute because the benchmark's tracer patches it on this module
from .dual import contraction_check, exploit_grad, explore_grad  # noqa: F401
from .ensemble import Ensemble, _checked_args, adapt, init_ensemble, moments, predict, spread
from .errors import ConfigError, DomainError, NumericalError
from .mppt_baselines import HcState, IcState, hc_step, ic_step
from .pv import EnvProfile, PvParams, mpp_oracle, profile_eval, pv_current, pv_poly_reward
from .reward import NoiseSpec, RewardModel, quadratic_reward, sample_noise
from .servo import LinearPlant, ServoGains, design_gains

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

# the largest run a config may ask for: a run holds its whole trace, and the
# panel its profile, for every tick
MAX_TICKS = 1_000_000
MAX_ESTIMATORS = 100_000
# the longest orbit the loop copies
REST_DEPTH = 4

# the only keys a scenario may set that have no built-in default; every
# other allowed key is a key of builtin_config
_OPTIONAL = {
    "quadratic-linear": {"controller": {"K"}},
    "mppt": {"plant": {"g_ref", "t_ref"}, "run": {"horizon"}},
}


def builtin_config(kind: str) -> dict:
    """A fresh copy of the shipped scenario of the kind, ``scenarios/<kind>.json``
    in this package (``configs/`` at the top of the source tree links there)."""
    if not isinstance(kind, str) or kind not in _OPTIONAL:
        raise ConfigError(f"scenario kind must be one of {sorted(_OPTIONAL)}, got {kind!r}")
    name = kind.replace("-", "_") + ".json"
    with open(os.path.join(os.path.dirname(__file__), "scenarios", name), encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class ScenarioConfig:
    """Validated scenario: the merged sections (``data``) and the objects a run
    uses, but no output path.  ``plant`` is the ``LinearPlant`` at its initial
    state (quadratic, with its servo ``gains``) or the ``PvParams`` panel (mppt,
    with ``env``, its profile's (irradiance, temperature) at every tick time,
    evaluated by the build and sliced by each run).  ``config_from_dict``
    checks the hc / ic tracker settings; the loop builds the trackers from them."""

    kind: str
    data: dict
    seed: int
    horizon: int
    dt: float
    model: RewardModel
    noise: NoiseSpec
    plant: LinearPlant | PvParams
    gains: ServoGains | None = None
    env: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False, compare=False)

    def section(self, name: str) -> dict:
        return self.data[name]

    def with_updates(self, seed=None, algo=None) -> "ScenarioConfig":
        """This scenario under another seed or tracking algorithm.  Only what it
        sets is checked; the built model, plant, gains and environment are shared."""
        d = copy.deepcopy(self.data)
        if seed is not None:
            d["run"]["seed"] = seed = _seed(seed)
        if algo is not None:
            _check_keys(self.kind, "controller", {"algo"}, set(d["controller"]))
            d["controller"]["algo"] = _algo(str(algo))
        return replace(self, data=d, seed=self.seed if seed is None else seed)


def _check_keys(kind, section, given, allowed):
    unknown = set(given) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in section "
                          f"'{section}' of a {kind} scenario")


def config_from_dict(d: dict) -> ScenarioConfig:
    """Validate a scenario dictionary by building what its run needs.

    Unset keys take the values of the kind's shipped scenario.  A value that
    fails to convert, or that a constructor rejects, is a ``ConfigError``.
    """
    if not isinstance(d, dict):
        raise ConfigError("scenario config must be a JSON object")
    kind = d.get("kind")
    merged = builtin_config(kind)
    _check_keys(kind, "<top level>", d.keys(), set(merged))

    for section, defaults in merged.items():
        if section == "kind":
            continue
        user = d.get(section, {})
        if not isinstance(user, dict):
            raise ConfigError(f"section '{section}' must be an object")
        _check_keys(kind, section, user.keys(),
                    set(defaults) | _OPTIONAL[kind].get(section, set()))
        defaults.update(copy.deepcopy(user))

    user_run = d.get("run", {})
    if "horizon" in user_run and "duration" in user_run:
        raise ConfigError("give either run.horizon or run.duration, not both")
    if kind == "mppt" and "horizon" in user_run:
        # a user-supplied horizon replaces the default duration
        merged["run"].pop("duration")

    try:
        return _build(kind, merged)
    except (ValueError, TypeError, OverflowError) as exc:  # ConfigError is a ValueError
        raise ConfigError(f"{kind} scenario: {exc}") from exc


def _positive(value, name: str) -> None:
    if not 0 < float(value) < np.inf:
        raise ConfigError(f"{name} must be finite and positive")


def _integer(value, name: str) -> int:
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _seed(value) -> int:
    seed = _integer(value, "run.seed")
    if seed < 0:
        raise ConfigError("run.seed must be nonnegative")
    return seed


def _algo(value) -> str:
    if value not in ("dcee", "hc", "ic"):
        raise ConfigError("controller.algo must be dcee, hc or ic")
    return value


@np.errstate(all="ignore")  # what overflows fails a check: the plant's, the gains', the panel's
def _build(kind: str, d: dict) -> ScenarioConfig:
    run, rw, ens, ctl = d["run"], d["reward"], d["ensemble"], d["controller"]
    dt = float(run["dt"])
    _positive(dt, "run.dt")
    if "duration" in run:
        ticks = float(run["duration"]) / dt
        if not np.isfinite(ticks):
            raise ConfigError(f"run.duration / run.dt must be a finite number of ticks, "
                              f"got {ticks}")
        horizon = int(round(ticks))
    else:
        horizon = _integer(run["horizon"], "run.horizon")
    if not 0 <= horizon <= MAX_TICKS:
        raise ConfigError(f"run horizon (or duration / dt) must be nonnegative and at most "
                          f"{MAX_TICKS} ticks, got {horizon}")
    seed = _seed(run["seed"])
    _positive(ctl["delta"], "controller.delta")

    if kind == "quadratic-linear":
        model = quadratic_reward(known_gain=float(rw["known_gain"]),
                                 y_range=rw["y_range"], theta_floor=rw["theta_floor"])
        theta_true = np.asarray(rw["theta_true"], dtype=float)
        if theta_true.shape != (model.dim,) or not np.all(np.isfinite(theta_true)):
            raise ConfigError("reward.theta_true needs one finite entry per model parameter")
        p = d["plant"]
        plant = LinearPlant(p["A"], p["B"], p["C"], p["x0"])
        xi0 = np.asarray(ctl["xi0"], dtype=float)
        lo, hi = model.y_range
        if plant.q != 1 or xi0.shape != (1,) or not lo <= xi0[0] <= hi:
            raise ConfigError("the quadratic reward needs one plant output and "
                              "one controller.xi0 inside reward.y_range")
        gains = design_gains(plant.A, plant.B, plant.C,
                             poles=ctl.get("poles"), K=ctl.get("K"))
        built = dict(plant=plant, gains=gains)
    else:
        model = pv_poly_reward(degree=_integer(rw["degree"], "reward.degree"),
                               v_range=rw["v_range"], v_scale=float(rw["v_scale"]),
                               v_shift=float(rw["v_shift"]))
        _algo(ctl["algo"])
        for name in ("u_max", "hc_step", "ic_step"):
            _positive(ctl[name], f"controller.{name}")
        if not 0 <= float(ctl["ic_deadband"]) < np.inf:
            raise ConfigError("controller.ic_deadband must be finite and nonnegative")
        lo, hi = model.y_range
        vlo, vhi = (float(v) for v in ctl["v_limits"])
        if vlo < 0 or not lo <= vlo < vhi <= hi:
            raise ConfigError("controller.v_limits must be nonnegative and sit inside "
                              "reward.v_range")
        v_init = float(ctl["v_init"])
        if not vlo <= v_init <= vhi:
            raise ConfigError("controller.v_init must lie inside controller.v_limits")
        d["plant"]["n_cells"] = _integer(d["plant"]["n_cells"], "plant.n_cells")
        params, profile = PvParams(**d["plant"]), EnvProfile(**d["profile"])
        params.check_temperatures(v for _, v in profile.temperature)
        env = profile_eval(profile, times := np.arange(horizon + 1) * dt)
        params.check_conditions(times, *env)
        built = dict(plant=params, env=env)

    n = _integer(ens["n"], "ensemble.n")
    if n > MAX_ESTIMATORS:
        raise ConfigError(f"ensemble.n must be at most {MAX_ESTIMATORS}, got {n}")
    low = _checked_args(n, ens["prior_low"], ens["prior_high"], ens["rate"])[0]
    if low.shape != (model.dim,):
        raise ConfigError(f"ensemble prior bounds need {model.dim} entries each "
                          "(one per model parameter)")

    return ScenarioConfig(kind=kind, data=d, seed=seed, horizon=horizon, dt=dt,
                          model=model, noise=NoiseSpec(float(d["noise"]["variance"])), **built)


def load_config(path) -> ScenarioConfig:
    """Read and validate a scenario JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
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


def _build_trace(names, columns) -> Trace:
    """Trace of the given columns, one sequence per name, in name order;
    a name given twice is a ``ValueError``."""
    values = {name: np.asarray(col, dtype=int if name in _INT_COLUMNS else float)
              for name, col in zip(names, columns, strict=True)}
    if len(values) < len(names):
        twice = next(name for name in names if names.count(name) > 1)
        raise ValueError(f"trace column {twice!r} is named twice")
    return Trace(columns=tuple(names), values=values)


def _start(cfg: ScenarioConfig, seeds) -> tuple[Ensemble, np.ndarray]:
    """The batched ensemble and the (S, ticks) measurement noise of the seeds."""
    ens_cfg = cfg.section("ensemble")
    inits, noise = [], []
    for seed in seeds:
        # one stream for the ensemble draw, one for the noise
        rng_init, rng_noise = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
        inits.append(init_ensemble(int(ens_cfg["n"]), ens_cfg["prior_low"],
                                   ens_cfg["prior_high"], ens_cfg["rate"], rng_init))
        noise.append(sample_noise(cfg.noise, rng_noise, cfg.horizon + 1))
    return Ensemble(np.stack([e.thetas for e in inits]), inits[0].rates), np.stack(noise)


class _Servo:
    """The linear plant under the servo law u = -Kx + (G + K Psi) xi, with
    one state x (S, n, 1) and one reference xi, ``ref`` (S,), per seed."""

    shared, tail, inputs = {}, ("err_track",), ()

    def __init__(self, cfg: ScenarioConfig, n_seeds: int):
        self.plant, self.model, gains = cfg.plant, cfg.model, cfg.gains
        self.feed, self.neg_K = gains.G + gains.K @ gains.Psi, -gains.K
        self.theta_true = np.asarray(cfg.section("reward")["theta_true"], dtype=float)
        self.x = np.tile(cfg.plant.x[:, None], (n_seeds, 1, 1))
        self.ref = np.repeat(np.asarray(cfg.section("controller")["xi0"], dtype=float), n_seeds)
        self.row = (*(f"x{i}" for i in range(cfg.plant.n)), "y", "xi", "u")

    def observe(self, k: int, noise: np.ndarray) -> np.ndarray:
        y = self.y = (self.plant.C @ self.x)[:, 0, 0]
        self.at_y = phi, known = self.model.unknown_basis(y), self.model.known_basis(y)
        return known + phi @ self.theta_true + noise

    def state(self) -> bytes:
        """What a tick starts from besides x and the estimates: the reference."""
        return self.ref.tobytes()

    def bases(self) -> tuple:
        """The regressor and the known offset at the output observed last, taken
        there once for the reward, then the regressor and its derivative at ``ref``."""
        return (*self.at_y, self.model.unknown_basis(self.ref), self.model.basis_jacobian(self.ref))

    def step(self, inc: np.ndarray, last: bool) -> tuple:
        x, xi, (lo, hi) = self.x, self.ref, self.model.y_range
        if last:
            u = np.zeros((len(x), 1, 1))
        else:
            self.ref = np.minimum(np.maximum(self.ref + inc, lo), hi)
            u = self.neg_K @ x + self.feed * self.ref[:, None, None]
            self.x = self.plant.A @ x + self.plant.B @ u
        return (*x[:, :, 0].T, self.y, xi, u[:, 0, 0], self.y - xi)


class _Panel:
    """The PV panel; its voltage (S,) is both its state x and the
    reference ``ref``.  hc and ic keep one tracker state per seed; ``__init__``
    picks the run's tracker once and slices its ticks from the config's ``env``."""

    tail, row = (), ("v", "u", "i", "p")

    def __init__(self, cfg: ScenarioConfig, n_seeds: int):
        ctl = cfg.section("controller")
        self.params, self.model, self.u_max = cfg.plant, cfg.model, float(ctl["u_max"])
        self.v_lo, self.v_hi = (float(v) for v in ctl["v_limits"])
        self.x = self.ref = np.full(n_seeds, float(ctl["v_init"]))
        self.hc = ctl["algo"] == "hc"
        start = (HcState(step=float(ctl["hc_step"])) if self.hc else
                 IcState(step=float(ctl["ic_step"]), deadband=float(ctl["ic_deadband"])))
        self.trackers = [start] * n_seeds
        # the environment of every tick, as the config evaluated it, and the oracle of
        # every distinct (irradiance, temperature) of the run in one batched solve
        irr, temp = self.inputs = [a[:cfg.horizon + 1] for a in cfg.env]
        if irr.size <= cfg.horizon or cfg.dt != float(cfg.section("run")["dt"]):  # a replace
            raise ConfigError(f"the config evaluated its profile at {irr.size} ticks of "
                              f"{cfg.section('run')['dt']} s: build it for this horizon and dt")
        self.env = list(zip(irr.tolist(), temp.tolist()))
        index = {}  # condition -> its place in the solve, in order of first tick
        at = [index.setdefault(cond, len(index)) for cond in self.env]
        v_mpp, p_max = mpp_oracle(cfg.plant, *np.array(list(index)).T)
        finite = np.isfinite(v_mpp) & np.isfinite(p_max)
        if np.count_nonzero(finite) < finite.size:
            first = int(np.argmin(finite))  # conditions are numbered by their first tick
            g, temp_c = list(index)[first]
            raise ConfigError(f"profile: the panel has no finite maximum power point at "
                              f"t = {at.index(first) * cfg.dt} s ({g} W/m^2, {temp_c} degC)")
        self.shared = {"irradiance": irr, "temperature": temp,
                       "v_mpp_oracle": v_mpp[at], "p_max_oracle": p_max[at]}

    def observe(self, k: int, noise: np.ndarray) -> np.ndarray:
        v = self.x
        self.i = pv_current(self.params, v, *self.env[k])
        self.p = v * self.i
        return self.p + noise

    def state(self) -> list:
        """What a tick starts from besides x (the reference) and the estimates:
        the trackers.  Their floats enter the increments only through comparisons
        and differences, which a zero's sign does not change, so equal records
        give equal ticks."""
        return self.trackers

    def bases(self) -> tuple:
        """As ``_Servo.bases``; the output is the reference, so one regressor serves both."""
        v, model = self.x, self.model
        phi = model.unknown_basis(v)
        return phi, model.known_basis(v), phi, model.basis_jacobian(v)

    def track(self, j_obs: np.ndarray) -> np.ndarray:
        """The hc or ic increment of every seed, (S,): hc reads the observed
        power, ic the voltage and current."""
        if self.hc:
            steps = map(hc_step, self.trackers, j_obs.tolist())
        else:
            steps = map(ic_step, self.trackers, self.x.tolist(), self.i.tolist())
        inc, self.trackers = zip(*steps)
        return np.array(inc)

    def step(self, inc: np.ndarray, last: bool) -> tuple:
        v = self.x
        u = np.zeros_like(v) if last else np.minimum(np.maximum(inc, -self.u_max), self.u_max)
        if not last:
            self.x = self.ref = np.minimum(np.maximum(v + u, self.v_lo), self.v_hi)
        return v, u, self.i, self.p


def _all_finite(a: np.ndarray) -> bool:
    """``np.isfinite(a).all()`` without the method's call overhead."""
    return np.count_nonzero(np.isfinite(a)) == a.size


def run_scenario(config: ScenarioConfig) -> Trace:
    """Simulate one scenario deterministically for its configured seed."""
    return _run(config, [config.seed])[0]


@np.errstate(all="ignore")  # the loop's checks report what turns non-finite, not numpy
def _run(cfg: ScenarioConfig, seeds: list[int]) -> list[Trace]:
    """Run every seed in one tick loop over a batch of ensembles and plants.
    When seeds go non-finite, the seeds before the first of them run again on
    their own, then the first's error is raised with its rows so far; no file is
    written.  numpy's floating-point warnings are off throughout, the panel's
    oracle solves included."""
    plant = (_Servo if cfg.kind == "quadratic-linear" else _Panel)(cfg, len(seeds))
    model, ctl = cfg.model, cfg.section("controller")
    delta, dual = float(ctl["delta"]), ctl.get("algo", "dcee") == "dcee"
    learn = ([f"theta_{s}_{i}" for s in ("mean", "std") for i in range(model.dim)]
             + ["r_mean", "p_explore", "grad_exploit_norm", "grad_explore_norm"]) if dual else []
    k_col = np.arange(cfg.horizon + 1)
    flag = {"contraction_ok": np.full(len(k_col), contraction_check(delta))} if dual else {}
    shared = {"k": k_col, "t": k_col * cfg.dt, **plant.shared, **flag}
    order = ("k", "t", *plant.row, "j_obs", *plant.shared, *learn, *plant.tail, *flag)
    # the columns written each tick come first, then the shared ones, written once
    written = ["j_obs", *plant.row, *plant.tail, *learn, *shared]
    n_tick = len(written) - len(shared)
    data = np.empty((len(written), len(seeds), len(k_col)))
    data[n_tick:] = np.array([*shared.values()], dtype=float)[:, None]
    learned = data[n_tick - len(learn):n_tick]  # what the estimators record
    ens, noise = _start(cfg, seeds)

    def trace(i: int, n_rows: int) -> Trace:
        cols = dict(zip(written, data[:, i, :n_rows]))
        return _build_trace(order, [cols[name] for name in order])

    def fail(finite: np.ndarray, k: int, n_rows: int, what: str) -> NumericalError:
        """The first non-finite seed's error with its rows so far, if the
        seeds before it run clean."""
        i = int(np.argmin(finite))
        if i:
            _run(cfg, seeds[:i])
        return NumericalError(f"{what} at step {k}", step=k, trace=trace(i, n_rows))

    # the ticks whose inputs (the bits of each seed's noise and of the environment)
    # differ from the tick before's, then the last tick, which is always computed
    bits = [a.view(np.int64).reshape(-1, len(k_col)) for a in (noise, *plant.inputs)]
    moved = np.logical_or.reduce([(b[:, 1:] != b[:, :-1]).any(axis=0) for b in bits])
    changes = iter([*(np.flatnonzero(moved) + 1).tolist(), cfg.horizon])
    # the starts (x bytes, plant state, estimates) of the last ticks since an input
    # change or a copy, newest first
    starts = deque(maxlen=REST_DEPTH)
    start, end = (plant.x.tobytes(), plant.state(), ens.thetas.tobytes()), next(changes)
    k = 0
    while k <= cfg.horizon:
        if k == end:  # the stored starts ran under other inputs
            starts.clear()
            end = next(changes, end)
        starts.appendleft(start)
        j_obs = plant.observe(k, noise[:, k])
        if not _all_finite(j_obs):  # no estimate can follow a non-finite observation
            raise fail(np.isfinite(j_obs), k, k, "reward observation became non-finite")
        if dual:
            phi, known, phi_ref, dphi_ref = plant.bases()
            ens = adapt(ens, phi, known, j_obs)
            centre, dev = moments(ens.thetas)
            try:
                ps = predict(ens, dev, phi_ref, dphi_ref, model)
            except DomainError as exc:  # the map refuses non-finite predicted estimates
                raise fail(~exc.rows.reshape(len(seeds), -1).any(axis=1), k, k,
                           "estimator ensemble diverged") from None
            g_exploit, g_explore = exploit_grad(plant.ref, ps.r_mean), ps.r_var_grad
            inc = -delta * (g_exploit + g_explore)
            learn_row = (*centre[:, 0].T, *spread(dev).T, ps.r_mean, ps.r_var,
                         np.abs(g_exploit), np.abs(g_explore))
        else:
            inc, learn_row = plant.track(j_obs), ()
        data[:n_tick, :, k] = (j_obs, *plant.step(inc, k == cfg.horizon), *learn_row)
        if learn and not _all_finite(learned[:, :, k]):
            raise fail(np.isfinite(learned[:, :, k]).all(axis=0), k, k,
                       "estimator ensemble diverged")
        if not _all_finite(plant.x):
            raise fail(np.isfinite(plant.x).reshape(len(seeds), -1).all(axis=1), k, k + 1,
                       "state became non-finite")
        # a start stored q ticks back closes an orbit whose rows repeat, in turn,
        # up to the next input change; x first, where a moving tick differs
        start = plant.x.tobytes(), plant.state(), ens.thetas.tobytes()
        if k < cfg.horizon and start in starts:
            q = starts.index(start) + 1
            m = (end - 1 - k) // q  # whole cycles before end
            if m:
                stop = k + 1 + m * q
                for r in range(q):
                    data[:n_tick, :, k + 1 + r:stop:q] = data[:n_tick, :, k - q + 1 + r, None]
                k = stop - 1
                # the stored starts would name ticks that the copy skipped
                starts.clear()
        k += 1
    return [trace(i, len(k_col)) for i in range(len(seeds))]


def run_seeds(config: ScenarioConfig, seeds) -> list[Trace]:
    """Run the same scenario under each seed, all seeds as one batch;
    traces in seed order, each the same as the seed's run alone."""
    seeds = [_seed(s) for s in seeds]
    return _run(config, seeds) if seeds else []


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
    energy, energy_max = float(_trapz(p, t)), float(_trapz(oracle, t))  # 0.0 under two rows
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
    shared = [(c.section("plant"), c.data.get("profile"), c.horizon, c.dt) for c in configs]
    if shared.count(shared[0]) < len(shared):
        raise ConfigError("compared scenarios must share plant, profile and horizon")
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


def emit_csv(trace: Trace, path) -> None:
    """Write the trace as unquoted, CRLF-ended rows (the bytes ``csv.writer``
    writes): the ``_INT_COLUMNS`` counters as integers, every other value with
    lossless float formatting (17 significant digits)."""
    row = ",".join("%d" if c in _INT_COLUMNS else "%.17g" for c in trace.columns) + "\r\n"
    columns = [np.asarray(trace.values[c], dtype=int if c in _INT_COLUMNS else float).tolist()
               for c in trace.columns]
    body = "".join(map(row.__mod__, zip(*columns)))
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(trace.columns) + "\r\n")
            fh.write(body)
    except OSError as exc:
        raise OSError(f"could not write trace to {path}: {exc}") from exc


def read_trace_csv(path) -> Trace:
    """Read back a trace written by ``emit_csv``; a file without a header
    line, a column named twice, a blank or ``#`` line, a row with a cell too
    many or too few, or a counter that is not an integer is a ``ValueError``."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise ValueError(f"trace file {path} is empty: no header line")
        lines = fh.read().splitlines()
    if not lines:
        return _build_trace(header, [()] * len(header))
    dtype = [("", int if name in _INT_COLUMNS else float) for name in header]
    # loadtxt skips blank lines, and warns when it finds nothing else
    try:
        rows = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None,
                          ndmin=1) if any(lines) else ()
    except ValueError as exc:
        raise ValueError(f"trace file {path}: {exc}") from exc
    if len(rows) != len(lines):
        raise ValueError(f"trace file {path} has a blank line")
    return _build_trace(header, [rows[f].copy() for f in rows.dtype.names])


def write_plot_script(csv_path, kind: str) -> str:
    """Emit a small gnuplot script next to the CSV (``t.gp`` for ``t.csv``,
    ``t.gp.gp`` for ``t.gp``); returns its path.  The curves are plotted against
    ``t`` by their header's column numbers; a missing header or column is a
    ``ValueError``.
    """
    base, ext = os.path.splitext(str(csv_path))
    script = f"{csv_path}.gp" if ext == ".gp" else base + ".gp"
    with open(csv_path, "r", newline="", encoding="utf-8") as fh:
        number = {name: i + 1 for i, name in enumerate(next(csv.reader(fh), []))}
    if kind == "quadratic-linear":
        curves = (("y", "y"), ("xi", "xi"), ("theta_mean_0", "theta mean"))
    else:
        curves = (("v", "v"), ("p", "p"), ("p_max_oracle", "p max"))
    missing = [name for name in ("t", *dict(curves)) if name not in number]
    if missing:
        raise ValueError(f"trace file {csv_path} has no header with column(s) {missing}")
    f = os.path.basename(str(csv_path))
    body = "\n".join([
        "set datafile separator ','",
        "set key autotitle columnhead",
        "set xlabel 't'",
        "plot " + ", ".join(f'"{f}" using {number["t"]}:{number[name]} with lines '
                            f'title "{title}"' for name, title in curves),
        "pause -1",
        "",
    ])
    with open(script, "w", encoding="utf-8") as fh:
        fh.write(body)
    return script
