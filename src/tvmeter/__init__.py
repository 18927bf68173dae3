"""Characterization of linear optomechanical measurements.

Frequency-domain scattering matrices, output covariances, conditional
mechanical variance, and signal/meter transfer coefficients for a
catalog of measurement scenarios, with scans for optimal detection
frequencies and generalized standard quantum limits.
"""

from .core import (
    CQNC_LAYOUT,
    DUAL_TWEEZER_LAYOUT,
    FOUR_MODE,
    BathSpec,
    LinearModel,
    ModeLayout,
    ScatteringMatrix,
    apply_detection_loss,
    build_scattering,
    check_stable,
    cross_spectral_density,
    extended_input_covariance,
    input_covariance,
    output_covariance,
    output_covariance_at,
)
from .errors import (
    DegenerateMeter,
    DegenerateRates,
    NegativeLinewidth,
    NoBracket,
    NonHermitianResult,
    QuadratureNonConvergence,
    SingularAtFrequency,
    TvmeterError,
    UnstableModel,
)
from .floquet import (
    FloquetDrift,
    decompose_drift,
    floquet_metrics,
    floquet_qnd_metrics_closed,
    floquet_scattering,
    floquet_vc,
    sideband_scattering,
)
from .levitation import (
    DualTweezerParams,
    TweezerParams,
    compound_signal_variances,
    dual_tweezer_metrics,
    dual_tweezer_model,
    dual_tweezer_threshold,
    qnd_modulation_frequency,
    reduced_metrics,
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
    equivalent_noises,
    evaluate,
    transfer_coefficients,
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
    PulsedState,
    gain_quadrature_check,
    measurement_gain,
    prepare_state_lyapunov,
    propagator,
    pulsed_covariances,
    pulsed_metrics,
    pulsed_state,
)

__version__ = "0.1.0"
