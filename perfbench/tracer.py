"""Run a jonq entry point with spans recorded around its public functions.

    python3 perfbench/tracer.py OUT jonq.cli ARGS...
    python3 perfbench/tracer.py OUT perfbench/fit.py ARGS...

Each traced function is replaced wherever a jonq module holds it, so calls
through names imported with ``from ... import`` are recorded too.  A span is
``[name, start, end, parent, work]``: perf_counter seconds, the index of the
enclosing span (or None) and the work counted from the call's arguments.
The spans are written to OUT as JSON when the entry point ends; stdout and
the exit code are the entry point's own.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import runpy
import sys
import time

# module -> functions, named "<module>.<function>" in the spans
TRACED = {
    "kernels": ("cocycle_sums", "orbit_points"),
    "cocycle": ("lyapunov", "lyapunov_phase_values"),
    "accel": ("acceleration_at", "regularity_check", "lyapunov_profile",
              "piecewise_affine_fit"),
    "maps": ("orbit", "classify_orbit_closure", "boxcount_rank"),
    "degree": ("degree_sequence", "iterate_degrees", "compose"),
    "linearize": ("solve_coefficients", "conjugacy_equations", "residual_norms"),
}


def _work(name: str, signature, args: tuple, kwargs: dict, result) -> dict:
    # the kernels may be compiled, so their (positional) arguments are
    # read by position
    if name == "kernels.cocycle_sums":
        thetas, n = args[7], args[8]
        return {"steps": len(thetas) * int(n)}
    if name == "kernels.orbit_points":
        return {"points": int(result[3]) if result is not None else 0}
    if name not in ("maps.boxcount_rank", "maps.orbit", "cocycle.lyapunov_phase_values"):
        return {}
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    args = bound.arguments
    if name == "maps.boxcount_rank":
        return {"points": len(args["x"])}
    if name == "maps.orbit":
        return {"points": int(args["n"])}
    if name == "cocycle.lyapunov_phase_values":
        spec = args["spec"]
        return {"radius": [spec.kind, spec.rho, args["n"], args["samples"], args["seed"]]}


class Tracer:
    """Spans of one process, kept in memory until `dump`."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        signature = None if name.startswith("kernels.") else inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append([name, time.perf_counter(), None, parent, {}])
            self._open.append(index)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.spans[index][2] = time.perf_counter()
                self._open.pop()
                self.spans[index][4] = _work(name, signature, args, kwargs, result)

        return traced

    def install(self) -> None:
        from jonq.backend import kernels

        modules = [m for n, m in sys.modules.items() if n == "jonq" or n.startswith("jonq.")]
        for short, names in TRACED.items():
            owner = kernels if short == "kernels" else importlib.import_module(f"jonq.{short}")
            for fn_name in names:
                original = getattr(owner, fn_name)
                wrapper = self.wrap(f"{short}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


def main(argv: list[str]) -> int:
    out, target, *args = argv
    import jonq.cli

    tracer = Tracer()
    tracer.install()
    try:
        if target == "jonq.cli":
            return jonq.cli.main(args)
        sys.argv = [target, *args]
        try:
            runpy.run_path(target, run_name="__main__")
        except SystemExit as exc:
            if exc.code is None or isinstance(exc.code, int):
                return exc.code or 0
            return 1
        return 0
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
