"""Exception types shared across the package.

``exit_code`` is what the command line front end returns when the error
escapes: 2 for invalid configuration, 3 for numeric/domain failures.
"""


class JonqError(Exception):
    exit_code = 3


class ResonantParameter(JonqError):
    """Frequency (or rotation angle) indistinguishable from a rational with
    denominator <= 64."""

    exit_code = 2


class RadiusOne(JonqError):
    """Normalized cocycle requested on the unit circle, where the square-root
    normalization is undefined."""

    exit_code = 2


class Overflow(JonqError):
    """A closed-form bound G, over every phase, on the Frobenius norm of
    the matrices the kernel multiplies (``_kernels_py.generator_bounds``;
    the jonquieres_b matrices for btilde, so its largest radius is theirs,
    about 1.4e75) lies outside [1e-150, 2e150], or an orbit left the
    floating-point range."""


class SingularFactor(JonqError):
    """A factor in an inverse-iterate product is numerically singular (``step``
    is its index), or a forward product vanished (``step`` is None)."""

    def __init__(self, step, message=""):
        self.step = step
        super().__init__(message or f"singular cocycle factor at step {step}")


class IndeterminateAction(JonqError):
    """Moebius action evaluated at a projective kernel direction of a
    singular matrix (numerator and denominator both vanish)."""


class IndeterminatePoint(JonqError):
    """The map was applied exactly at its indeterminacy point (-1, alpha)."""


class SideCrossing(JonqError):
    """A finite-difference window straddles ln(rho) = 0 for a generator
    family whose radius profile is non-smooth (or undefined) there; the
    arguments alone fix the window, so it is a configuration error."""

    exit_code = 2


class SmallDivisor(JonqError):
    """Siegel-type resonance: a linearization divisor fell below the floor."""

    def __init__(self, order, magnitude):
        self.order = order
        self.magnitude = magnitude
        super().__init__(
            f"small divisor at order {order}: |divisor| = {magnitude:.3e}"
        )


class SpecializationMismatch(JonqError):
    """Two random exact specializations produced different degree sequences."""


class ZeroComponent(JonqError):
    """A component of a composed map vanished identically (degenerate
    specialization)."""


class InsufficientPoints(JonqError):
    """Too few orbit points to support the requested box-counting ladder."""
