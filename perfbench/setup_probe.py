"""Set-up time of one workload in a fresh interpreter, printed in seconds.

Times ``import dcee``, loading and validating the scenario config, and
building what the simulation loop builds before its first tick: the
reward model, the servo gains or the PV panel and profile, and the
estimator ensemble.  ``run.py`` starts this script several times per run
and reports the median as ``setup_s``.

    python3 perfbench/setup_probe.py quad-sweep --seed 7
    python3 perfbench/setup_probe.py mppt-baselines --config configs/mppt.json
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--config", default=None)
    args = parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

    import numpy as np

    import dcee
    from dcee import harness

    if args.workload == "mppt-baselines":
        import dcee.cli  # noqa: F401  (that workload enters through the CLI)

    if args.config:
        cfg = harness.load_config(args.config).with_updates(seed=args.seed)
    else:
        kind = "quadratic-linear" if args.workload == "quad-sweep" else "mppt"
        cfg = harness.config_from_dict(harness.builtin_config(kind))
        cfg = cfg.with_updates(seed=args.seed)

    rw, ctl = cfg.section("reward"), cfg.section("controller")
    if cfg.kind == "quadratic-linear":
        dcee.quadratic_reward(known_gain=float(rw["known_gain"]),
                              y_range=tuple(rw["y_range"]),
                              theta_floor=rw["theta_floor"])
        plant = cfg.section("plant")
        dcee.design_gains(np.asarray(plant["A"], dtype=float),
                          np.asarray(plant["B"], dtype=float),
                          np.asarray(plant["C"], dtype=float),
                          poles=ctl.get("poles"), K=ctl.get("K"))
    else:
        dcee.PvParams(**cfg.section("plant"))
        dcee.EnvProfile(**cfg.section("profile"))
        dcee.pv_poly_reward(degree=int(rw["degree"]), v_range=tuple(rw["v_range"]),
                            v_scale=float(rw["v_scale"]),
                            v_shift=float(rw.get("v_shift", 0.0)))
    ens = cfg.section("ensemble")
    rng_init = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(2)[0])
    dcee.init_ensemble(int(ens["n"]), ens["prior_low"], ens["prior_high"],
                       ens["rate"], rng_init)
    print(repr(time.perf_counter() - T0))


if __name__ == "__main__":
    main()
