"""Secrecy-outage modelling and optimization for movable-antenna downlinks."""

from .ascent import (
    ApgaResult,
    BisectionResult,
    OptimizerParams,
    apga_solve,
    bisection_outage_min,
    margin_grad_beamformer,
    margin_grad_positions,
    margin_objective,
    maximize_gamma_objective,
)
from .bench import (
    SchemeId,
    SweepSpec,
    base_config,
    emit_results,
    load_config,
    preset,
    read_results,
    run_scheme,
    run_sweep,
)
from .gammainc import inverse_lower_incomplete_gamma, lower_incomplete_gamma_reg
from .model import (
    FeasibleRegion,
    SystemConfig,
    eve_los_matrix,
    feasible_region,
    main_channel,
    mrt_beamformer,
    project_positions,
    random_feasible_positions,
    steering_vector,
)
from .outage import (
    EveLinkStats,
    GammaMoments,
    gamma_moments,
    link_stats,
    monte_carlo_outage,
    secrecy_outage_closed_form,
    sum_power_cdf,
)
from .surrogate import (
    LinearFitTable,
    default_table,
    fit_linear_surrogate,
    load_table,
    save_table,
    surrogate_lookup,
)
from .zf import (
    SingularSteeringError,
    bob_gain_loss,
    bob_gain_loss_grad,
    pgd_solve,
    zf_beamformer,
    zf_outage,
)

__version__ = "0.1.0"
