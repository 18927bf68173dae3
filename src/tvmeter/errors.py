"""Exception types raised by the solver and model builders."""


class TvmeterError(Exception):
    """Base class for all package-specific errors."""


class SingularAtFrequency(TvmeterError):
    """(A + iwI) is numerically singular; an undamped resonance sits at w."""

    def __init__(self, omega: float, rcond: float):
        self.omega = omega
        self.rcond = rcond
        super().__init__(
            f"drift matrix singular at omega={omega!r} (reciprocal condition {rcond:.3e})"
        )


class DegenerateMeter(TvmeterError):
    """Meter variance is (numerically) zero; conditioning is undefined."""


class UnstableModel(TvmeterError):
    """Drift matrix has an eigenvalue with nonnegative real part."""

    def __init__(self, max_real: float):
        self.max_real = max_real
        super().__init__(
            f"drift matrix is not strictly stable (max Re eigenvalue {max_real:.3e})"
        )


class NegativeLinewidth(TvmeterError):
    """Optically broadened mechanical linewidth came out nonpositive."""


class NoBracket(TvmeterError):
    """Threshold search endpoints do not straddle the requested level."""


class ConfigError(Exception):
    """Invalid run configuration (the CLI exits with code 2)."""
