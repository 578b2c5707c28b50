"""The jonq benchmark: one workload, measured end to end or traced by layer.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run it from the root of a jonq source checkout; the program under test is
the CLI in ./src, run as `python3 -m jonq.cli`.  The load is a closed loop
with one client: this process starts the operations of a pass one after
another, each in a fresh interpreter, because a CLI user pays the import and
sympy-cache costs on every invocation.  The operations and their reference
checks are in ops.py.

--trace 0 repeats untraced passes while the next one is expected to end
within --seconds (at least one pass) and reports the end-to-end metrics.
--trace 1 runs one untraced pass and then traced passes (two when they fit
in TRACED_RUN_BUDGET_S) and reports the per-layer metrics from the spans
that tracer.py records.  Both print the run environment first and the
result as the last line of stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from ops import CLI, Op, judge, self_test, workload_ops, WORKLOADS
from tracer import TRACED

RUN_START = time.monotonic()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench_state"
TRACER = HERE / "tracer.py"
PROBE = HERE / "probe.py"

SETUP_PROBES = 5
IMPORTTIME_PROBES = 3
OP_TIMEOUT_S = 150.0
# no pass starts that is expected to end later than this after start-up
RUN_BUDGET_S = 150.0
TRACED_RUN_BUDGET_S = 120.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END_UNITS = {
    "wall_s": "s",
    "work_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "fail_rate": "ratio",
}
SPAN_NAMES = tuple(f"{module}.{fn}" for module, fns in TRACED.items() for fn in fns)
# the CLI never calls lyapunov_profile, so its self time is always 0
NO_SELF_TIME = ("accel.lyapunov_profile",)
ACCEL_SPANS = ("accel.acceleration_at", "accel.regularity_check")


@dataclass
class Finished:
    returncode: int
    stdout: bytes
    stderr: bytes
    wall: float
    maxrss_mb: float


def run_process(cmd: list[str], env: dict, stdin: bytes | None = None,
                timeout: float = OP_TIMEOUT_S) -> Finished:
    """Run cmd to completion, reading its output without threads, and
    return its wall time and peak RSS as well as its output."""
    start = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env,
        stdin=subprocess.DEVNULL if stdin is None else subprocess.PIPE,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks = {out_fd: [], err_fd: []}
    status = None
    try:
        if stdin is not None:
            try:
                proc.stdin.write(stdin)
                proc.stdin.close()
            except BrokenPipeError:
                pass
        killed = False
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            sel.register(proc.stderr, selectors.EVENT_READ)
            while sel.get_map():
                wait = None if killed else max(0.0, start + timeout - time.monotonic())
                events = sel.select(wait)
                if not events and not killed:
                    proc.kill()
                    killed = True
                for key, _ in events:
                    data = os.read(key.fd, 1 << 20)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        sel.unregister(key.fileobj)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - start
    finally:
        if status is None:
            proc.kill()
            os.waitpid(proc.pid, 0)
        for pipe in (proc.stdin, proc.stdout, proc.stderr):
            if pipe is not None:
                pipe.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Finished(proc.returncode, b"".join(chunks[out_fd]), b"".join(chunks[err_fd]),
                    wall, usage.ru_maxrss / 1024)


class ReproStore:
    """What earlier runs of the same code printed and counted, by operation.

    A differing stdout digest or traced count for the same operation is a
    reproducibility failure, within a run and across runs in a checkout.
    """

    def __init__(self, path: Path, code: str):
        self.path = path
        self.code = code
        self.entries: dict = {}
        try:
            doc = json.loads(path.read_text())
        except (FileNotFoundError, ValueError):
            return
        if doc.get("code") == code:
            self.entries = doc["ops"]

    def same(self, key: str, what: str, value) -> bool:
        entry = self.entries.setdefault(key, {})
        if what in entry:
            return entry[what] == value
        entry[what] = value
        return True

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"code": self.code, "ops": self.entries}))
        os.replace(tmp, self.path)


def layer_totals(spans: list) -> tuple[dict, dict]:
    """(counts, self seconds) by layer metric name, from one process's spans."""
    counts: dict = {}
    self_s: dict = {}
    children_s = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children_s[parent] += end - start
    distinct = set()
    for i, (name, start, end, parent, work) in enumerate(spans):
        counts[f"{name}.calls"] = counts.get(f"{name}.calls", 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - children_s[i]
        for key, value in work.items():
            if key != "radius":
                counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
                continue
            ancestor = parent
            while ancestor is not None and spans[ancestor][0] not in ACCEL_SPANS:
                ancestor = spans[ancestor][3]
            if ancestor is not None:
                counts["accel.radius_evals"] = counts.get("accel.radius_evals", 0) + 1
                distinct.add(tuple(value))
    if distinct:
        counts["accel.radius_evals_distinct"] = len(distinct)
    return counts, self_s


@dataclass
class Pass:
    traced: bool
    wall: float = 0.0
    units: int = 0
    attempted: int = 0
    failed: int = 0
    wrong: bool = False  # an operation exited 0 and its output was wrong
    errors: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    output_bytes: int = 0
    counts: dict = field(default_factory=dict)
    self_s: dict = field(default_factory=dict)
    log: list = field(default_factory=list)


def _add(total: dict, part: dict) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0) + value


def _command(op: Op, trace_file: Path | None) -> list[str]:
    if trace_file is not None:
        return [sys.executable, str(TRACER), str(trace_file), op.target, *op.args]
    if op.target == CLI:
        return [sys.executable, "-m", CLI, *op.args]
    return [sys.executable, op.target, *op.args]


def run_pass(ops: list[Op], env: dict, repro: ReproStore, traced: bool) -> Pass:
    result = Pass(traced=traced)
    stdout_of: dict = {}
    keys = {}
    for op in ops:
        keys[op.name] = " ".join((op.target, *op.args))
        if op.stdin_from is not None:
            keys[op.name] += " < " + keys[op.stdin_from]
        result.attempted += 1
        entry = {"op": op.name}
        result.log.append(entry)
        stdin = None
        if op.stdin_from is not None:
            stdin = stdout_of.get(op.stdin_from)
            if stdin is None:
                result.failed += 1
                entry["failed"] = f"no input: {op.stdin_from} failed"
                continue
        trace_file = STATE / "trace.json" if traced else None
        if trace_file is not None and trace_file.exists():
            trace_file.unlink()
        done = run_process(_command(op, trace_file), env, stdin)
        result.wall += done.wall
        result.peak_rss_mb = max(result.peak_rss_mb, done.maxrss_mb)
        result.output_bytes += len(done.stdout)
        err, reason = judge(op, done.returncode, done.stdout)
        if reason is None and not repro.same(keys[op.name], "stdout",
                                             hashlib.sha256(done.stdout).hexdigest()):
            reason = "stdout differs from an earlier run of the same code and inputs"
        if trace_file is not None:
            try:
                spans = json.loads(trace_file.read_text())["spans"]
                trace_file.unlink()
            except (FileNotFoundError, ValueError):
                spans = None
                reason = reason or "no trace written"
            if spans is not None:
                counts, self_s = layer_totals(spans)
                _add(result.counts, counts)
                _add(result.self_s, self_s)
                if not repro.same(keys[op.name], "counts", counts):
                    reason = reason or "traced counts differ from an earlier traced run"
        entry.update(wall_s=done.wall, rc=done.returncode, err=err)
        if err is not None:
            result.errors.append(err)
        if reason is None:
            result.units += op.units
            stdout_of[op.name] = done.stdout
            continue
        result.failed += 1
        result.wrong = result.wrong or done.returncode == 0
        stderr_tail = done.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
        entry["failed"] = reason + "".join(f" ({line})" for line in stderr_tail)
    return result


def _jeffreys_fail_rate(p: Pass) -> float:
    # posterior-mean failure probability per operation under a Jeffreys
    # prior, (failed + 1/2) / (attempted + 1): never 0, so a ratio against
    # the parent's value is always defined
    return (p.failed + 0.5) / (p.attempted + 1)


def end_to_end_metrics(passes: list[Pass], setup: list[float]) -> dict:
    return {
        "wall_s": statistics.median(p.wall for p in passes),
        "work_per_s": sum(p.units for p in passes) / sum(p.wall for p in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
        "fail_rate": statistics.fmean(_jeffreys_fail_rate(p) for p in passes),
    }


def per_layer_metrics(untraced: Pass, traced: list[Pass], import_s: list[float],
                      sympy_s: list[float]) -> dict:
    def seconds(name):
        return statistics.median(p.self_s.get(name, 0.0) for p in traced)

    counts = traced[0].counts
    metrics: dict = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (counts.get(f"{name}.calls", 0), "count")
        if name not in NO_SELF_TIME:
            metrics[f"{name}.self_s"] = (seconds(name), "s")
    for name, work in (("kernels.cocycle_sums", "steps"), ("kernels.orbit_points", "points")):
        amount = counts.get(f"{name}.{work}", 0)
        busy = seconds(name)
        metrics[f"{name}.{work}"] = (amount, "count")
        metrics[f"{name}.{work}_per_s"] = (amount / busy if busy > 0 else 0.0, "1/s")
    for name in ("maps.boxcount_rank.points", "maps.orbit.points",
                 "accel.radius_evals", "accel.radius_evals_distinct"):
        metrics[name] = (counts.get(name, 0), "count")
    evals = counts.get("accel.radius_evals", 0)
    metrics["accel.distinct_ratio"] = (
        counts.get("accel.radius_evals_distinct", 0) / evals if evals else 0.0, "ratio")
    metrics["cli.output_bytes"] = (traced[0].output_bytes, "bytes")
    metrics["cli.import_s"] = (statistics.median(import_s), "s")
    metrics["degree.sympy_import_s"] = (statistics.median(sympy_s), "s")
    metrics["trace.overhead_s"] = (
        statistics.median(p.wall for p in traced) - untraced.wall, "s")
    metrics["err_ratio"] = (
        statistics.median(max(p.errors, default=0.0) for p in (untraced, *traced)), "ratio")
    return metrics


def _setup_import_s(stderr: bytes, module: str) -> float:
    """Cumulative import time of `module` during a probe's set-up, from its
    `-X importtime` output; 0 when set-up did not import it."""
    for line in stderr.decode("utf-8", "replace").splitlines():
        if line == "set-up done":
            return 0.0
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) / 1e6
    raise ValueError("probe printed no set-up mark")


def setup_probes(env: dict) -> tuple[list[float], list[float], dict]:
    """Set-up seconds and in-process import seconds of SETUP_PROBES probes,
    and the versions the last one reported."""
    setup, imports, info = [], [], {}
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        done = run_process([sys.executable, str(PROBE)], env)
        if done.returncode != 0:
            raise RuntimeError("set-up probe failed: " + done.stderr.decode("utf-8", "replace"))
        info = json.loads(done.stdout)
        setup.append(info.pop("done") - start)
        imports.append(info.pop("import_s"))
    return setup, imports, info


def _source_digest(versions: dict) -> str:
    digest = hashlib.sha256(json.dumps([sys.version, versions], sort_keys=True).encode())
    for base in (ROOT / "src" / "jonq", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.decode().strip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that the reference checks reject bad outputs, then exit")
    args = parser.parse_args(argv)
    # turn a termination request into SystemExit, so the running operation
    # is killed and reaped on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    problems = self_test()
    for problem in problems:
        print(f"self-test: {problem}", file=sys.stderr)
    if args.self_test or problems:
        print("self-test: " + ("FAIL" if problems else "ok"))
        return 1 if problems else 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "jonq" / "cli.py").is_file():
        print(f"error: no jonq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    STATE.mkdir(exist_ok=True)
    ops = workload_ops(args.workload, args.seed)

    # in a fresh checkout the first probe also writes the bytecode caches;
    # the median leaves it out
    setup, import_s, versions = setup_probes(env)
    code = _source_digest(versions)
    print(json.dumps({"env": {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), **versions,
        "git_commit": _git_commit(), "source_sha256": code,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "platform": platform.platform(),
    }}), flush=True)

    repro = ReproStore(STATE / "repro.json", code)
    if args.trace:
        sympy_s = []
        for _ in range(IMPORTTIME_PROBES):
            done = run_process([sys.executable, "-X", "importtime", str(PROBE)], env)
            sympy_s.append(_setup_import_s(done.stderr, "sympy"))
        untraced = run_pass(ops, env, repro, traced=False)
        traced = [run_pass(ops, env, repro, traced=True)]
        if time.monotonic() - RUN_START + traced[0].wall <= TRACED_RUN_BUDGET_S:
            traced.append(run_pass(ops, env, repro, traced=True))
        passes = [untraced, *traced]
        metrics = per_layer_metrics(untraced, traced, import_s, sympy_s)
        counts_repeat = all(p.counts == traced[0].counts for p in traced)
    else:
        passes = []
        measure_start = time.monotonic()
        while True:
            passes.append(run_pass(ops, env, repro, traced=False))
            now = time.monotonic()
            last = passes[-1].wall
            if now - measure_start + last > args.seconds or now - RUN_START + last > RUN_BUDGET_S:
                break
        metrics = {name: (value, END_TO_END_UNITS[name])
                   for name, value in end_to_end_metrics(passes, setup).items()}
        counts_repeat = True
    repro.save()

    for i, p in enumerate(passes):
        print(json.dumps({"pass": i, "traced": p.traced, "wall_s": p.wall, "ops": p.log}))
    result = {
        "correct": counts_repeat and not any(p.wrong for p in passes),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
