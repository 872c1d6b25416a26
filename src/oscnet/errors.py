"""Exception types shared across the package."""


class OscnetError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(OscnetError):
    """An operation received an argument outside its contract."""


class InvalidModelError(OscnetError):
    """Model or coupling data violates a structural invariant."""


class NumericalFailureError(OscnetError):
    """A LAPACK eigenvalue or singular value routine failed to converge."""


class UnsupportedConfigurationError(OscnetError):
    """The requested analysis does not apply to this configuration."""


class ConfigError(OscnetError):
    """A configuration file failed validation; carries every problem found."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
