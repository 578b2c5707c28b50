"""The NumPy half of the package: the kernels and every module that runs
on them.

``import jonq``, the ``jonq.cli`` parser and ``jonq degree`` load only the
pure-Python half (``algebra``, ``errors``, ``degree``).  The numeric
commands import this module, which loads the whole NumPy half at once.
"""

from . import _kernels_py as kernels
from . import accel, cocycle, linearize, maps

__all__ = ["kernels", "accel", "cocycle", "linearize", "maps"]
