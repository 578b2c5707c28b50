"""The four workloads of the jonq benchmark and the reference check of each
operation.

An operation is one fresh-interpreter invocation: either the `jonq` CLI or
`perfbench/fit.py`, which fits the exponent profile that the preceding
`jonq lyapunov` call printed.  Inputs depend only on the workload seed.
Every check returns the operation's worst error as a share of its acceptance
tolerance, and raises `CheckFailed` when the output is wrong.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
import random
import re
from dataclasses import dataclass
from typing import Callable

CLI = "jonq.cli"
FIT = "perfbench/fit.py"

# ln rho grid of the sweep: both sides of 0, with 0 itself on the grid
S_MIN, S_MAX, S_STEPS = -1.5, 1.5, 7
S_GRID = tuple(S_MIN + i * (S_MAX - S_MIN) / (S_STEPS - 1) for i in range(S_STEPS))

# (kind, rho, nearest integer of the acceleration)
ACCEL_CASES = (("btilde", 0.5, 0), ("btilde", 2.0, 0), ("jonquieres_b", 2.0, -1))

CLASSIFY_N = 200_000
CLASSIFY_MODULUS = 1e-3
CLASSIFY_RANKS = {"f": 2, "g": 1}
ORBIT_N = 100_000

DEGREES = (2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7)
DEGREE_MAX_NS = (8, 12)
LINEARIZE_ORDERS = (12, 40)

# acceptance tolerances
TOL_L = 0.02
TOL_FIT = 0.05
TOL_ACCEL = 0.05
TOL_CONFIDENCE = 0.1
TOL_RESIDUAL = 1e-10


class CheckFailed(Exception):
    """An operation's output disagrees with its reference."""


@dataclass(frozen=True)
class Op:
    """One invocation of a workload pass.

    ``units`` is the verified work the operation adds when it passes;
    ``stdin_from`` names the earlier operation whose stdout is fed to this
    one's stdin.
    """

    name: str
    target: str
    args: tuple
    units: int
    check: Callable[[str], float]
    stdin_from: str | None = None


_NONFINITE = re.compile(r"(?i)(?<![a-z_])(nan|inf|infinity)(?![a-z_])")


def judge(op: Op, returncode: int, stdout: bytes) -> tuple[float | None, str | None]:
    """(error ratio, failure reason) of one finished operation.

    The reason is None when the operation passed.  The error ratio is None
    when the output could not be checked at all.
    """
    if returncode != 0:
        return None, f"exit code {returncode}"
    try:
        text = stdout.decode("utf-8")
    except UnicodeDecodeError:
        return None, "output is not UTF-8"
    bad = _NONFINITE.search(text)
    if bad:
        return None, f"non-finite value {bad.group(0)!r} in output"
    try:
        err = op.check(text)
    except CheckFailed as exc:
        return None, str(exc)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return None, f"malformed output: {type(exc).__name__}: {exc}"
    if not err <= 1.0:
        return err, f"error {err:.3g} x tolerance"
    return err, None


def _csv_rows(text: str) -> list[dict]:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# config: "):
        raise CheckFailed("missing config line")
    return list(csv.DictReader(lines[1:]))


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def check_profile(text: str) -> float:
    """`jonq lyapunov` rows against max(0, ln rho)."""
    rows = _csv_rows(text)
    _expect(len(rows) == S_STEPS, f"{len(rows)} rows, want {S_STEPS}")
    worst = 0.0
    for row, s in zip(rows, S_GRID):
        _expect(abs(float(row["ln_rho"]) - s) <= 1e-12, f"ln_rho {row['ln_rho']} off grid")
        worst = max(worst, abs(float(row["L"]) - max(0.0, s)) / TOL_L)
    return worst


def check_fit(text: str) -> float:
    """One breakpoint at ln rho = 0, slopes 0 then 1."""
    fit = json.loads(text)
    bps, slopes = fit["breakpoints"], fit["slopes"]
    _expect(len(bps) == 1 and len(slopes) == 2, f"breakpoints {bps}, slopes {slopes}")
    return max(abs(bps[0]), abs(slopes[0]), abs(slopes[1] - 1.0)) / TOL_FIT


def _check_accel(nearest: int) -> Callable[[str], float]:
    def check(text: str) -> float:
        rows = _csv_rows(text)
        _expect(len(rows) == 1, f"{len(rows)} rows, want 1")
        row = rows[0]
        _expect(int(row["nearest_integer"]) == nearest,
                f"nearest integer {row['nearest_integer']}, want {nearest}")
        _expect(row["regular_flag"] == "1", f"regular_flag {row['regular_flag']}, want 1")
        omega = float(row["omega"])
        _expect(abs(abs(omega - nearest) - float(row["distance"])) <= 1e-12,
                "distance disagrees with omega")
        return abs(omega - nearest) / TOL_ACCEL
    return check


def _check_classify(rank: int) -> Callable[[str], float]:
    def check(text: str) -> float:
        doc = json.loads(text)
        _expect(doc["rank"] == rank, f"rank {doc['rank']}, want {rank}")
        return (1.0 - doc["confidence"]) / TOL_CONFIDENCE
    return check


def _check_orbit(y0: complex) -> Callable[[str], float]:
    """n + 1 finite rows with a constant fiber modulus |y| = |y0|."""
    def check(text: str) -> float:
        rows = _csv_rows(text)
        _expect(len(rows) == ORBIT_N + 1, f"{len(rows)} rows, want {ORBIT_N + 1}")
        for k, row in enumerate(rows):
            _expect(int(row["step"]) == k, f"row {k} has step {row['step']}")
            _expect(abs(float(row["y_abs"]) - abs(y0)) <= 1e-9 * abs(y0),
                    f"|y| drifted to {row['y_abs']} at step {k}")
        return 0.0
    return check


def _check_degree(max_n: int) -> Callable[[str], float]:
    def check(text: str) -> float:
        degrees = json.loads(text)["degrees"]
        _expect(degrees == list(DEGREES[:max_n]), f"degrees {degrees}")
        return 0.0
    return check


def _check_linearize(order: int) -> Callable[[str], float]:
    def check(text: str) -> float:
        doc = json.loads(text)
        _expect(doc["config"]["order"] == order, f"order {doc['config']['order']}")
        residuals = doc["residuals"]
        _expect(len(residuals) == 3, f"{len(residuals)} residuals, want 3")
        return max(abs(r) for r in residuals) / TOL_RESIDUAL
    return check


def _complex_arg(z: complex) -> str:
    return f"{z.real!r}{z.imag:+}j"


def _sweep(seed: int, rng: random.Random) -> list[Op]:
    profile = Op(
        "lyapunov", CLI,
        ("lyapunov", "--kind", "jonquieres_b", "--s-min", str(S_MIN), "--s-max",
         str(S_MAX), "--s-steps", str(S_STEPS), "--seed", str(seed)),
        S_STEPS, check_profile,
    )
    return [profile, Op("fit", FIT, (), 0, check_fit, stdin_from="lyapunov")]


def _accel(seed: int, rng: random.Random) -> list[Op]:
    return [
        Op(f"accel {kind} {rho}", CLI,
           ("accel", "--kind", kind, "--rho", str(rho), "--seed", str(seed)),
           1, _check_accel(nearest))
        for kind, rho, nearest in ACCEL_CASES
    ]


def _orbits(seed: int, rng: random.Random) -> list[Op]:
    ops = []
    for which, rank in CLASSIFY_RANKS.items():
        x0, y0 = (cmath.rect(CLASSIFY_MODULUS, rng.uniform(0.0, 2 * math.pi)) for _ in "xy")
        ops.append(Op(
            f"classify {which}", CLI,
            ("classify", "--map", which, f"--x0={_complex_arg(x0)}",
             f"--y0={_complex_arg(y0)}", "--n", str(CLASSIFY_N), "--seed", str(seed)),
            CLASSIFY_N, _check_classify(rank),
        ))
    # the CLI's default start point
    ops.append(Op("orbit", CLI, ("orbit", "--n", str(ORBIT_N), "--seed", str(seed)),
                  ORBIT_N, _check_orbit(0.01 + 0j)))
    return ops


def _exact(seed: int, rng: random.Random) -> list[Op]:
    ops = [
        Op(f"degree {n}", CLI, ("degree", "--max-n", str(n), "--seed", str(seed)),
           n, _check_degree(n))
        for n in DEGREE_MAX_NS
    ]
    ops += [
        Op(f"linearize {order}", CLI, ("linearize", "--order", str(order)),
           order, _check_linearize(order))
        for order in LINEARIZE_ORDERS
    ]
    return ops


WORKLOADS = {"sweep": _sweep, "accel": _accel, "orbits": _orbits, "exact": _exact}


def workload_ops(name: str, seed: int) -> list[Op]:
    """The operations of one pass of workload ``name`` for ``seed``."""
    return WORKLOADS[name](seed, random.Random(seed))


def self_test() -> list[str]:
    """Problems found by feeding the checkers known-bad and known-good
    outputs; empty when the checkers behave."""
    problems = []
    profile = _sweep(0, random.Random(0))[0]
    rows = ["# config: {}", "kind,ln_rho,L"]
    rows += [f"jonquieres_b,{s!r},{max(0.0, s)!r}" for s in S_GRID]
    good_csv = "\n".join(rows) + "\n"
    nan_csv = good_csv.replace(f",{max(0.0, S_GRID[-1])!r}\n", ",nan\n")
    degree = _exact(0, random.Random(0))[0]
    good_deg = json.dumps({"degrees": list(DEGREES[:8])})
    wrong_deg = json.dumps({"degrees": [2, 2, 3, 3, 4, 4, 5, 6]})
    cases = [
        ("good profile", profile, 0, good_csv, True),
        ("NaN row", profile, 0, nan_csv, False),
        ("good degrees", degree, 0, good_deg, True),
        ("wrong degree sequence", degree, 0, wrong_deg, False),
        ("wrong exit code", degree, 2, good_deg, False),
    ]
    for label, op, code, text, should_pass in cases:
        _, reason = judge(op, code, text.encode())
        if (reason is None) != should_pass:
            problems.append(f"{label}: judged {'pass' if reason is None else reason}")
    return problems
