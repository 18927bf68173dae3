"""Characterization of linear optomechanical measurements.

Frequency-domain scattering matrices, output covariances, conditional
mechanical variance, and signal/meter transfer coefficients for a
catalog of measurement scenarios, with scans for optimal detection
frequencies and generalized standard quantum limits.
"""

from .core import (
    CQNC_LAYOUT,
    FOUR_MODE,
    BathSpec,
    LinearModel,
    ModeLayout,
    build_scattering,
    check_stable,
    cross_spectral_density,
    detected,
    input_covariance,
)
from .errors import (
    ConfigError,
    DegenerateMeter,
    NegativeLinewidth,
    NoBracket,
    SingularAtFrequency,
    TvmeterError,
    UnstableModel,
)
from .floquet import (
    FloquetDrift,
    decompose_drift,
    floquet_metrics,
    floquet_qnd_metrics_closed,
    floquet_vc,
    sideband_scattering,
)
from .levitation import (
    DualTweezerParams,
    TweezerParams,
    compound_signal_variances,
    dual_tweezer_metrics,
    dual_tweezer_threshold,
    qnd_modulation_frequency,
    reduced_metrics,
    reduced_vc,
    reduced_scattering,
    single_tweezer_qnd_model,
    single_tweezer_qnd_params,
    threshold_signal_variance,
)
from .metrics import (
    MeasurementFigures,
    Regime,
    classify_regime,
    conditional_variance,
    cqnc_conditional_variance,
    evaluate,
    measured_figures,
    vc_on_grid,
)
from .models import (
    CqncParams,
    DisplacementParams,
    ImperfectQndParams,
    c_sql,
    c_sql_resonant_approx,
    cooperativity_to_g,
    cqnc_model,
    detuning_rescaled_cooperativity,
    displacement_model,
    g_to_cooperativity,
    ideal_qnd_metrics,
    ideal_qnd_model,
    imperfect_qnd_model,
    nu_model_closed_metrics,
    qnd_cooperativity_threshold,
    xi_model_closed_metrics,
)
from .optimize import (
    ScanMinimum,
    SweepSpec,
    find_threshold,
    generalized_sql,
    golden_section,
    minimize_vc_over_frequency,
)
from .pulsed import (
    PulsedParams,
    measurement_gain,
    prepare_state_lyapunov,
    propagator,
    pulsed_covariances,
    pulsed_metrics,
)
from .scenarios import SCENARIOS, Scenario, with_parameter

__version__ = "0.1.0"
