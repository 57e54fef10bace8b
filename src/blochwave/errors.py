"""Exception hierarchy shared across the package.

Every error carries a machine-readable ``code`` used by the CLI when writing
run summaries, so batch sweeps can mark failed runs without parsing messages.
"""


class BlochwaveError(Exception):
    """Base class for all package errors."""

    code = "error"


class NotSkewHermitian(BlochwaveError):
    """A generator sample violates skew-Hermiticity beyond tolerance."""

    code = "not_skew_hermitian"


class CrossingDetected(BlochwaveError):
    """Two levels of the drift cross or merge where the adiabatic frame
    needs them apart, or eigenprojector label matching failed."""

    code = "crossing_detected"


class SingularBlock(BlochwaveError):
    """A block of an operator is singular (or ill-conditioned) where an
    inverse on that block is required."""

    code = "singular_block"


class AmbiguousClustering(BlochwaveError):
    """Eigenvalues of the full generator cannot be uniquely assigned to
    the strong generator's blocks; the coupling is too strong relative
    to the block gaps."""

    code = "ambiguous_clustering"


class IntegratorFailure(BlochwaveError):
    """The ODE integrator failed (step underflow or non-finite values)."""

    code = "integrator_failure"


class BlowUp(BlochwaveError):
    """The wave-operator solution left its invertibility region and would
    grow without bound."""

    code = "blow_up"


class BoundViolated(BlochwaveError):
    """A theorem-level inequality failed beyond numerical noise.  This is
    a defect signal (solver bug), never a warning."""

    code = "bound_violated"


class BadInitialCondition(BlochwaveError):
    """An initial transformation violates the conditions required by the
    construction that consumes it."""

    code = "bad_initial_condition"


class OutOfRange(BlochwaveError):
    """A scalar argument is outside the domain where the requested
    quantity is defined."""

    code = "out_of_range"


class ConfigError(BlochwaveError):
    """An experiment configuration failed to parse or validate."""

    code = "config_error"


class IoError(BlochwaveError):
    """A file the experiment needs could not be read or written."""

    code = "io_error"
