"""Every NumPy module of the package, loaded at once: the kernels and every
module that runs on them.

The CLI does not import this module: each command imports only the
modules it runs (see ``jonq.cli``).  A tracer imports it before wrapping,
so that it finds loaded every module a command can run; it loads
``linearize`` too for that reason.

``_kernels_py``, ``cocycle`` and ``accel`` bind NumPy lazily
(``_lazy.np``), so they load it when a kernel first runs: ``import
jonq.accel`` and the segmented fit, which runs on Python floats, run
without NumPy.  ``maps`` imports NumPy itself, so importing this module
loads it.
"""

from . import _kernels_py as kernels
from . import accel, cocycle, linearize, maps

__all__ = ["kernels", "accel", "cocycle", "linearize", "maps"]
