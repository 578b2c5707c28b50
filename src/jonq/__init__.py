"""Lyapunov exponents, quantized acceleration, linearization and exact
degree growth for a family of fibered birational maps and the 2x2
quasiperiodic cocycles they generate."""

__version__ = "0.1.0"

# the kernels are the NumPy ones in ``_kernels_py`` (see ``backend``)
BACKEND = "python"

__all__ = ["BACKEND", "__version__"]
