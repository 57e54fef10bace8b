"""Adiabatic-frame simulation of driven quantum systems.

Solves the time-dependent Bloch (matrix Riccati) equation for the wave
operator of a strongly driven finite-dimensional system by three independent
routes and certifies long-time leakage bounds from the measured distance of
the transformation to the identity.
"""

from .bloch import (
    BlochInitialCondition,
    EffectiveEvolutionPath,
    WaveOperatorPath,
    bloch_effective_evolution,
    closed_form_wave,
    custom_ic,
    effective_generator,
    identity_ic,
    integrate_riccati,
    radon_wave,
    riccati_rhs,
    stationary_ic,
    zeno_generator,
)
from .diagnostics import (
    LeakageReport,
    UnitarizedPath,
    distance_report,
    leakage,
    leakage_bound,
    unitarize,
    v_bound,
)
from .errors import (
    AmbiguousClustering,
    BadInitialCondition,
    BlochwaveError,
    BlowUp,
    BoundViolated,
    ConfigError,
    CrossingDetected,
    IntegratorFailure,
    IoError,
    NotSkewHermitian,
    OutOfRange,
    SingularBlock,
)
from .frame import (
    AdiabaticFrame,
    build_frame,
    factorization_defect,
    frozen_decomposition,
    intertwining_defect,
    kato_generator,
    transporter,
)
from .models import (
    GeneratorModel,
    landau_zener_model,
    load_tabulated_model,
    lz_asymptotic_amplitude,
    random_smooth_model,
    three_level_model,
)
from .operators import (
    SpectralDecomposition,
    block_project,
    decompose,
    match_labels,
    offblock_norm,
    spectral_norm,
)
from .propagation import PropagatorPath, propagate

__version__ = "0.1.0"
