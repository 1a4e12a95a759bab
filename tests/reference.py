"""Test helpers: the ensemble ops at outputs y, the reference ``predict``,
and a plain hc / ic loop.

``adapt`` and ``predict`` take the model's bases at the tick point, as the
loop evaluates them once per point; ``adapt_at`` and ``predict_at`` evaluate
them at y first, one output per batch entry (a one-element y for an
unbatched ensemble).  ``reference_predict`` is ``predict`` as it was before
its two spread sums became one reduction: it evaluates the bases itself,
keeps the sign in the derivative of the predicted estimates and reduces
r_var and the gradient's sum separately.  ``reference_mppt_run`` runs an
mppt config's hc or ic tracker, or its dual law, one tick after another
for its seed alone, computing every tick, as the run would without its
fast-forward over periodic orbits and its batching; each dual tick calls
the model's optimum map, which keeps no state.  ``reference_quadratic_run``
is the same plain loop for a quadratic-linear config; its plant is the
harness's ``_Servo`` for one seed, since a servo step on a one-dimensional
state rounds differently from the batched one.
"""

import numpy as np

from dcee import (adapt, contraction_check, exploit_grad, init_ensemble, moments, predict,
                  spread)
from dcee.ensemble import BeliefStats, _mean, _rows, _step
from dcee.harness import _Servo
from dcee.mppt_baselines import HcState, IcState, hc_step, ic_step
from dcee.pv import EnvProfile, mpp_oracle, profile_eval, pv_current
from dcee.reward import sample_noise


def bases(ens, y, model):
    """The regressor, the known offset and the regressor's derivative at y."""
    y = np.asarray(y, dtype=float).reshape(ens.thetas.shape[:-2])
    return model.unknown_basis(y), model.known_basis(y), model.basis_jacobian(y)


def adapt_at(ens, y, j_obs, model):
    phi, known, _ = bases(ens, y, model)
    return adapt(ens, phi, known, j_obs)


def predict_at(ens, dev, y, model):
    phi, _, dphi = bases(ens, y, model)
    return predict(ens, dev, phi, dphi, model)


def reference_predict(ens, dev, y_cand, model) -> BeliefStats:
    y = np.asarray(y_cand, dtype=float).reshape(ens.thetas.shape[:-2])
    phi, dphi = model.unknown_basis(y), model.basis_jacobian(y)
    phi_row, along = phi[..., None, :], dev @ phi[..., :, None]
    pred = _step(ens, along, phi_row)
    rows = _rows(pred)
    optima = model.optimum_map_batch(rows)
    r = optima.reshape(pred.shape[:-1])
    r_mean = _mean(r, -1)
    centred = r - r_mean[..., None]

    dpred = -(ens.rates[:, None] * (dphi[..., None, :] * along
                                    + phi_row * (dev @ dphi[..., :, None])))
    dr = np.einsum("nm,nm->n", model.optimum_jacobian(rows, optima), _rows(dpred))
    return BeliefStats(r_mean, _mean(centred ** 2, -1),
                       2.0 * _mean(centred * dr.reshape(r.shape), -1))


def _dual_tick(ens, model, delta, y, j_obs, ref):
    """One computed dual tick of one ensemble: adapt to the observation at y,
    take the moments, predict at the reference; the next estimates, the
    increment and the learned columns."""
    phi = model.unknown_basis(y)
    ens = adapt(ens, phi, model.known_basis(y), j_obs)
    centre, dev = moments(ens.thetas)
    ps = predict(ens, dev, model.unknown_basis(ref), model.basis_jacobian(ref), model)
    g_exploit = exploit_grad(ref, ps.r_mean)
    inc = -delta * (g_exploit + ps.r_var_grad)
    return ens, inc, (*centre[0], *spread(dev), ps.r_mean, ps.r_var, abs(g_exploit),
                      abs(ps.r_var_grad))


def _learned_names(model) -> list:
    return ([f"theta_{s}_{i}" for s in ("mean", "std") for i in range(model.dim)]
            + ["r_mean", "p_explore", "grad_exploit_norm", "grad_explore_norm"])


def reference_quadratic_run(cfg) -> dict:
    """The columns of a quadratic-linear run of the config at its seed, each
    tick computed: the servo observes its output, the ensemble adapts there,
    takes the moments and predicts at the reference, then the servo steps."""
    ens_cfg, model = cfg.section("ensemble"), cfg.model
    delta = float(cfg.section("controller")["delta"])
    rng_init, rng_noise = map(np.random.default_rng, np.random.SeedSequence(cfg.seed).spawn(2))
    ens = init_ensemble(int(ens_cfg["n"]), ens_cfg["prior_low"], ens_cfg["prior_high"],
                        ens_cfg["rate"], rng_init)
    noise = sample_noise(cfg.noise, rng_noise, cfg.horizon + 1)
    servo = _Servo(cfg, 1)
    names = ["k", "t", *servo.row, "j_obs", *_learned_names(model), "err_track", "contraction_ok"]
    rows = []
    for k in range(cfg.horizon + 1):
        j_obs = servo.observe(k, noise[k:k + 1])[0]
        ens, inc, learned = _dual_tick(ens, model, delta, servo.y[0], j_obs, servo.ref[0])
        *row, err = (c[0] for c in servo.step(np.array([inc]), k == cfg.horizon))
        rows.append((k, k * cfg.dt, *row, j_obs, *learned, err, contraction_check(delta)))
    return dict(zip(names, np.array(rows, dtype=float).T))


def reference_mppt_run(cfg) -> dict:
    """The columns of an mppt run of the config at its seed, each tick
    computed: observe the panel, step the tracker (hc, ic) or adapt, take the
    moments and predict, then clip and record."""
    ctl, model = cfg.section("controller"), cfg.model
    u_max, (lo, hi) = float(ctl["u_max"]), (float(v) for v in ctl["v_limits"])
    rng_init, rng_noise = map(np.random.default_rng, np.random.SeedSequence(cfg.seed).spawn(2))
    noise = sample_noise(cfg.noise, rng_noise, cfg.horizon + 1)
    names = ["k", "t", "v", "u", "i", "p", "j_obs",
             "irradiance", "temperature", "v_mpp_oracle", "p_max_oracle"]
    if ctl["algo"] == "hc":
        state = HcState(step=float(ctl["hc_step"]))
    elif ctl["algo"] == "ic":
        state = IcState(step=float(ctl["ic_step"]), deadband=float(ctl["ic_deadband"]))
    else:
        ens_cfg, delta = cfg.section("ensemble"), float(ctl["delta"])
        ens = init_ensemble(int(ens_cfg["n"]), ens_cfg["prior_low"], ens_cfg["prior_high"],
                            ens_cfg["rate"], rng_init)
        names += [*_learned_names(model), "contraction_ok"]
    rows, v = [], np.array([float(ctl["v_init"])])
    profile = EnvProfile(**cfg.section("profile"))
    for k in range(cfg.horizon + 1):
        env = profile_eval(profile, k * cfg.dt)
        i = pv_current(cfg.plant, v, *env)
        p = v * i
        j_obs = p + noise[k]
        learned = ()
        if ctl["algo"] == "hc":
            inc, state = hc_step(state, float(j_obs[0]))
        elif ctl["algo"] == "ic":
            inc, state = ic_step(state, float(v[0]), float(i[0]))
        else:
            ens, inc, learned = _dual_tick(ens, model, delta, v[0], j_obs[0], v[0])
            learned += (contraction_check(delta),)
        last = k == cfg.horizon
        u = np.zeros(1) if last else np.minimum(np.maximum(np.array([inc]), -u_max), u_max)
        rows.append((k, k * cfg.dt, v[0], u[0], i[0], p[0], j_obs[0],
                     *env, *mpp_oracle(cfg.plant, *env), *learned))
        if not last:
            v = np.minimum(np.maximum(v + u, lo), hi)
    return dict(zip(names, np.array(rows, dtype=float).T))
