"""The NumPy half of the package: the kernels and every module that runs
on them.

``import jonq``, the ``jonq.cli`` parser, ``jonq degree`` and ``jonq
linearize`` load only the pure-Python half (``algebra``, ``errors``,
``degree``, ``linearize``).  The NumPy commands import this module, which
loads the whole NumPy half at once.  It loads ``linearize`` too, so that a
tracer which imports this module before wrapping finds every module a
command runs.
"""

from . import _kernels_py as kernels
from . import accel, cocycle, linearize, maps

__all__ = ["kernels", "accel", "cocycle", "linearize", "maps"]
