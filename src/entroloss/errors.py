"""Exception taxonomy for the entroloss package."""


class EntrolossError(Exception):
    """Base class for all package errors."""


class NonHermitianError(EntrolossError):
    """Matrix fails the Hermiticity tolerance."""


class ConvergenceFailureError(EntrolossError):
    """An iterative solver failed to converge."""


class NotPositiveError(EntrolossError):
    """Operator is not positive semidefinite within tolerance."""


class DimensionMismatchError(EntrolossError):
    """Operands have incompatible dimensions."""


class DimensionOverflowError(EntrolossError):
    """A requested object would exceed the configured dimension cap."""


class BadFactorizationError(EntrolossError):
    """Subsystem dimensions are missing or do not match the operator."""


class NotUnitaryError(EntrolossError):
    """Matrix is not unitary within tolerance."""


class InconsistentEnsembleError(EntrolossError):
    """Ensemble weights/members violate the ensemble invariants."""


class NotMajorizedError(EntrolossError):
    """The required majorization precondition does not hold."""


class FiniteTableLawError(EntrolossError):
    """The growth parameter is undefined for tabulated finite spectra."""


class LambdaBelowGError(EntrolossError):
    """Inverse temperature at or below the partition convergence threshold."""


class SupportEscapesTruncationError(EntrolossError):
    """State support is not contained in the Hamiltonian truncation."""


class QExceedsOneError(EntrolossError):
    """Sharp-sequence index too small: the mixing weight would exceed one."""


class NotAChannelError(EntrolossError):
    """Operation is not trace preserving where a channel is required."""


class TraceIncreasingError(EntrolossError):
    """Kraus set is not trace non-increasing within tolerance."""


class InvalidPOVMError(EntrolossError):
    """POVM elements are not positive or do not resolve the identity."""


class InvalidParameterError(EntrolossError, ValueError):
    """A size or a channel or Hamiltonian parameter is out of range."""


class NotPureError(EntrolossError):
    """A pure state was required."""


class IncompatiblePurificationError(EntrolossError):
    """The state cannot be lifted to a Schmidt-form purification: it is not diagonal or is already lifted."""


class FunctionalUndefinedError(EntrolossError):
    """The functional could not be evaluated on a sequence element."""


class UnknownSuiteError(EntrolossError):
    """No suite is registered under the requested identifier."""


class ConfigError(EntrolossError):
    """Run configuration failed validation."""


class SuiteFailureError(EntrolossError):
    """One or more suite checks failed."""


class MissingArtifactsError(EntrolossError):
    """Consolidated report requested but no suite outputs were found."""
