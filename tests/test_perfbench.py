"""The library names the benchmark's tracer relies on, and what the tracer
records on a short run of each entry point."""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from jonq.backend import kernels

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
FIT = ROOT / "perfbench" / "fit.py"
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
FAST = ["--n", "400", "--samples", "4", "--seed", "1"]
PROFILE = ["lyapunov", "--s-min", "-1.5", "--s-max", "1.5", "--s-steps", "7", *FAST]

# a short run of each subcommand and of fit.py: (target, arguments, the
# layers that must record a span)
TRACED_RUNS = {
    "lyapunov": ("jonq.cli", ["lyapunov", "--s-steps", "3", *FAST],
                 {"kernels.cocycle_sums"}),
    "accel": ("jonq.cli", ["accel", "--kind", "btilde", "--rho", "2.0", *FAST],
              {"kernels.cocycle_sums"}),
    "orbit": ("jonq.cli", ["orbit", "--n", "50"], {"maps.orbit", "kernels.orbit_points"}),
    "classify": ("jonq.cli", ["classify", "--n", "20000"],
                 {"maps.classify_orbit_closure", "maps.boxcount_rank",
                  "kernels.orbit_points"}),
    "linearize": ("jonq.cli", ["linearize", "--order", "8"],
                  {"linearize.solve_coefficients", "linearize.residual_norms"}),
    "degree": ("jonq.cli", ["degree", "--max-n", "6"], set()),
    "fit": (str(FIT), [], {"accel.piecewise_affine_fit"}),
}


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(short, name) for short, names in tracer.TRACED.items() for name in names]


@pytest.mark.parametrize("short,name", traced_names())
def test_traced_name_exists(short, name):
    owner = kernels if short == "kernels" else importlib.import_module(f"jonq.{short}")
    assert callable(getattr(owner, name))


def test_cocycle_sums_positions():
    # the tracer counts steps from thetas (position 7) and n (position 8)
    params = list(inspect.signature(kernels.cocycle_sums).parameters)
    assert params[7] == "thetas" and params[8] == "n"


def _run(command, stdin=None):
    proc = subprocess.run(command, input=stdin, capture_output=True, env=ENV, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


@pytest.fixture(scope="module")
def profile_csv():
    """The `jonq lyapunov` output that fit.py reads."""
    return _run([sys.executable, "-m", "jonq.cli", *PROFILE])


@pytest.mark.parametrize("run", TRACED_RUNS)
def test_tracer_keeps_stdout_and_records_each_layer(run, profile_csv, tmp_path):
    target, args, layers = TRACED_RUNS[run]
    stdin = profile_csv if run == "fit" else None
    entry = [sys.executable, "-m", "jonq.cli"] if target == "jonq.cli" else [sys.executable, target]
    plain = _run([*entry, *args], stdin)
    trace = tmp_path / "trace.json"
    traced = _run([sys.executable, str(TRACER), str(trace), target, *args], stdin)
    assert traced == plain
    recorded = {span[0] for span in json.loads(trace.read_text())["spans"]}
    assert layers <= recorded, f"no span in {sorted(layers - recorded)}"
