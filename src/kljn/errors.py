"""Exception hierarchy shared by all kljn modules."""


class KljnError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(KljnError):
    """Invalid, unparsable or incomplete configuration."""


class InconsistentObservables(KljnError):
    """Measured observables violate the consistency identity or model."""


class NoPositiveRoot(KljnError):
    """No physical (positive) solution exists for the measurement."""


class AmbiguousRecovery(KljnError):
    """More than one physical solution survives the joint consistency check."""


class ModelMismatch(KljnError):
    """Observables are inconsistent with the assumed circuit model."""


class SingularSystem(KljnError):
    """Linear system has no unique solution for this resistor configuration."""


class InadmissibleTemperatures(KljnError):
    """Temperature solution exists but is unphysical (non-positive)."""

    def __init__(self, message, temperatures=None):
        super().__init__(message)
        self.temperatures = temperatures


class TraceTooShort(KljnError):
    """Trace cannot be segmented or band-resolved as requested."""


class KeyDisagreement(KljnError):
    """The two parties' measured views of a bit differ."""


class GridTooLarge(KljnError):
    """Requested enumeration exceeds the configured memory budget."""

    def __init__(self, message, required=None, budget=None):
        super().__init__(message)
        self.required = required
        self.budget = budget
