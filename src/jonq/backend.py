"""The kernel module the library calls: the NumPy kernels."""

from . import _kernels_py as kernels

BACKEND = "python"

__all__ = ["kernels", "BACKEND"]
