"""Self-optimising control via dual exploration/exploitation gradients.

An ensemble of online estimators learns the parameters of an unknown
reward surface while quantifying its own uncertainty; the controller
descends the sum of a tracking term (distance to the believed optimum)
and an exploration term (spread of the predicted optima), so probing
arises from the belief itself rather than injected dither.  Includes an
output-regulation wrapper for linear plants, a photovoltaic maximum
power point tracking application with classical baselines, and a
reproducible simulation harness with CSV traces.
"""

from .dual import contraction_check, exploit_grad, explore_grad
from .ensemble import (BeliefStats, Ensemble, adapt, init_ensemble, moments, mse_bound,
                       predict, spread, stats)
from .errors import ConfigError, DomainError, NumericalError, RegulationError
from .harness import (Metrics, ScenarioConfig, Trace, builtin_config, compare,
                      compute_metrics, config_from_dict, emit_csv, load_config,
                      read_trace_csv, render_comparison, run_scenario, run_seeds,
                      write_plot_script)
from .mppt_baselines import HcState, IcState, hc_step, ic_step
from .pv import (EnvProfile, PvParams, mpp_oracle, open_circuit_voltage, profile_eval,
                 pv_current, pv_poly_reward)
from .reward import NoiseSpec, RewardModel, quadratic_reward, sample_noise
from .servo import LinearPlant, ServoGains, design_gains, solve_regulation, stabilizing_gain

__version__ = "0.1.0"
