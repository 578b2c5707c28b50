"""The package's one NumPy binding, read by ``_kernels_py``, ``cocycle``,
``accel``, ``maps`` and the ``orbit`` command.

``np`` is NumPy loaded lazily: importing this module finds NumPy but does
not run it, and the first attribute read of ``np`` imports it.  So every
module of the package imports without NumPy, and what runs on Python
floats alone (the segmented fit) runs without it; a kernel loads NumPy
when it first runs.  When NumPy is already imported, ``np`` is that module.
"""

import importlib.util
import sys


def _lazy_import(name: str):
    """The module ``name``, executed on its first attribute read (the
    ``importlib.util.LazyLoader`` recipe)."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


np = _lazy_import("numpy")
