"""The NumPy half of the package: the kernels and every module that runs
on them.

``import jonq``, the ``jonq.cli`` parser, ``jonq degree`` and ``jonq
linearize`` load only the pure-Python half (``algebra``, ``errors``,
``degree``, ``linearize``).  The NumPy commands import this module, which
loads the whole NumPy half at once.  It loads ``linearize`` too, so that a
tracer which imports this module before wrapping finds every module a
command runs.

``_kernels_py``, ``cocycle`` and ``accel`` bind NumPy lazily
(``_lazy.np``), so they load it when a kernel first runs: ``import
jonq.accel`` and the segmented fit, which runs on Python floats, run
without NumPy.  ``maps`` imports NumPy itself, so importing this module
loads it.
"""

from . import _kernels_py as kernels
from . import accel, cocycle, linearize, maps

__all__ = ["kernels", "accel", "cocycle", "linearize", "maps"]
