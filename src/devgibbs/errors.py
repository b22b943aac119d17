"""Exception types shared across the package."""


class DevgibbsError(Exception):
    """Base class for all package errors."""


class DomainError(DevgibbsError):
    """A point lies outside the map's domain."""


class ParameterError(DevgibbsError):
    """A map-family parameter is outside its admissible range."""


class SingularityError(DevgibbsError):
    """An orbit came within machine tolerance of the critical set.

    Carries the orbit index at which the hit occurred and the number of
    the start point whose orbit it was.
    """

    def __init__(self, message, index=None, point=None):
        super().__init__(message)
        self.index = index
        self.point = point


class EvaluationError(DevgibbsError):
    """An observable produced a non-finite value along an orbit.

    Carries the offending orbit index.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class CapabilityError(DevgibbsError):
    """The map does not support the requested operation (e.g. inverse branches)."""


class ConfigError(DevgibbsError):
    """Invalid experiment configuration.

    ``line`` is the 1-based line number in the config text when known.
    """

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class SamplingError(DevgibbsError):
    """A Monte Carlo sampling stage produced no usable samples."""


class HorizonError(DevgibbsError):
    """A scan exhausted its orbit horizon before the required event occurred."""


class RangeError(DevgibbsError):
    """A numeric computation left the representable range despite guards."""


class ImpossibleCoverError(DevgibbsError):
    """The requested mass cannot be covered by balls centered at the samples."""
