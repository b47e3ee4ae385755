"""Exception types shared across the package."""


class SpdcpolError(Exception):
    """Base class for all spdcpol errors."""


class OutOfBandError(SpdcpolError, ValueError):
    """Wavelength outside a material's supported transparency band."""


class PhaseMatchingError(SpdcpolError):
    """No collinear degenerate phase-matching solution on [0, pi/2]."""


class QuadratureError(SpdcpolError):
    """The window kernel or adaptive Simpson missed its tolerance."""

    def __init__(self, message: str, achieved: float | None = None,
                 requested: float | None = None):
        super().__init__(message)
        self.achieved = achieved
        self.requested = requested


class UniformStateError(SpdcpolError):
    """The phase law is flat: the requested Bell state never appears off axis."""


class UndefinedVisibilityError(SpdcpolError):
    """Both coincidence integrals vanish; the visibility ratio is undefined."""


class StateInvariantError(SpdcpolError, ValueError):
    """A state vector or density matrix violates its defining invariants."""


class ConfigError(SpdcpolError):
    """Malformed or unresolvable material/scenario file.

    Carries the source path and 1-based line number where the problem was
    found, so the CLI can point at the offending line.
    """

    def __init__(self, message: str, path: str | None = None,
                 line: int | None = None):
        where = ""
        if path is not None and line is not None:
            where = f"{path}:{line}: "
        elif path is not None:
            where = f"{path}: "
        super().__init__(where + message)
        self.path = path
        self.line = line
