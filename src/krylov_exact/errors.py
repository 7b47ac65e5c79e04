"""Exception types raised across the package.

Every error carries a human-readable message naming the offending
quantity (parameter, index, matrix entry) so that CLI reports and test
failures stay diagnosable.
"""


class KrylovExactError(Exception):
    """Base class for all package-specific errors."""


class ModeError(KrylovExactError):
    """Operation not available in the active numeric mode, or mixed-mode values."""


class MissingParameter(KrylovExactError):
    """A required system parameter was not supplied."""


class ParameterOutOfRange(KrylovExactError):
    """A parameter violates its documented inequality."""


class PositivityViolation(KrylovExactError):
    """B, D, or an A*C product fails its positivity requirement at a named point."""


class IndexOutOfRange(KrylovExactError):
    """Level or lattice index outside the system's range."""


class NotFiniteSystem(KrylovExactError):
    """Operation requires one of the ten finite-dimensional systems."""


class NotInfiniteSystem(KrylovExactError):
    """Operation requires one of the six thermal (infinite) systems."""


class NegativeUnderSquareRoot(KrylovExactError):
    """A matrix element square root received a negative argument."""


class DimensionMismatch(KrylovExactError):
    """Operands have incompatible shapes."""


class BasisMismatch(KrylovExactError):
    """Inner product variant does not match the operator representation."""


class ZeroEta(KrylovExactError):
    """The seed operator has zero norm."""


class TruncationTooSmall(KrylovExactError):
    """Requested truncation cannot hold the needed matrix elements."""


class NonUnitMuZero(KrylovExactError):
    """Moment table does not start with mu_0 = 1."""


class AsymmetricMoments(KrylovExactError):
    """An odd moment is nonzero, so the moment functional is not symmetric."""


class NegativeBSquared(KrylovExactError):
    """Moment sequence is not positive definite beyond the stop point."""


class DegenerateChain(KrylovExactError):
    """Closed-form b_3 is undefined because the chain already terminated."""


class TailNotConvergent(KrylovExactError):
    """Thermal series truncation rule could not certify the tail bound."""


class ClosureViolated(KrylovExactError):
    """The double-commutator residual is not a polynomial of the Hamiltonian."""


class DegenerateFrequencies(KrylovExactError):
    """The Heisenberg frequencies are complex: R_1^2 + 4 R_0 < 0 at a spectral point."""


class ComplexAmplitude(KrylovExactError):
    """A chain amplitude kept a non-negligible imaginary part."""


class MirrorAsymmetry(KrylovExactError):
    """A mirror pair of the eta support does not cancel in cross-parity inner
    products, or H, eta or the weights of a band are not mirror images
    under the metric, so the Lanczos chain would need diagonal
    coefficients a_n."""


class NonFiniteValue(KrylovExactError):
    """An infinite or NaN bigreal value where a finite one is required."""


class EigenNotConverged(KrylovExactError):
    """The implicit QL iteration did not isolate an eigenvalue within its sweep budget."""
