"""Every NumPy module of the package, loaded at once: the kernels and every
module that runs on them.

The CLI does not import this module: each command imports only the
modules it runs (see ``jonq.cli``).  A tracer imports it before wrapping,
so that it finds loaded every module a command can run; it loads
``linearize`` too for that reason.

``_kernels_py``, ``cocycle``, ``accel`` and ``maps`` bind NumPy lazily
(``_lazy.np``), so they load it when they first use it: importing this
module, and the segmented fit, which runs on Python floats, run without
NumPy.
"""

from . import _kernels_py as kernels
from . import accel, cocycle, linearize, maps

__all__ = ["kernels", "accel", "cocycle", "linearize", "maps"]
