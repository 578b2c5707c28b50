"""Command-line front end: one subcommand per experiment, deterministic
seeding, CSV/JSON output for plotting and verification.

Every output embeds the resolved run configuration and the library
version, so rerunning an embedded configuration on the same machine and
NumPy build reproduces the file byte-for-byte.  Exit codes: 0 success
(also when the reader of stdout closes it early), 2 invalid
configuration, 3 numeric/domain failure.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import json
import math
import os
import sys
from fractions import Fraction

from . import BACKEND, __version__
from .algebra import DEFAULT_ALPHA_ANGLE, DEFAULT_H, GOLDEN_FREQ, KINDS, MapParams
from .errors import JonqError

# Each command imports only the modules it runs, when it runs: ``cocycle``
# and ``accel`` for ``lyapunov`` and ``accel``, ``maps`` for ``orbit`` and
# ``classify``, ``linearize`` and ``degree`` for their own commands.  So the
# parser starts on ``algebra`` and ``errors`` alone.  The kernels,
# ``cocycle``, ``accel`` and ``maps`` load NumPy when they first use it.
# ``jonq degree`` and ``jonq linearize`` are pure Python, so they start
# without NumPy.  A tracer imports ``backend``, which loads every module a
# command can run, before it wraps them.

CSV_EOL = "\n"
# the part size is the threshold: _rows_document makes a CSV in parts of
# at least FORK_ROWS // 2 rows, one per usable CPU, so below FORK_ROWS rows
# in one part, in process.  On a 2-CPU x86 host, timing the orbit's cells
# and text in process, two parts beat one in 32% of alternating runs at
# 1,000 rows, 75% at 2,000, 64-84% at 3,000 to 10,000 and 95% at 1e5 rows
# (482 -> 345 ms)
FORK_ROWS = 4000


def _config(args) -> dict:
    """The run configuration: every parsed argument except --out."""
    cfg = {k: v for k, v in vars(args).items() if k not in ("command", "out")}
    return {"version": __version__, "backend": BACKEND, "subcommand": args.command, **cfg}


def _emit(path: str | None, text: str) -> None:
    if path in (None, "-"):
        if sys.stdout is None:
            # started with fd 1 closed: no reader, as for a closed pipe
            return
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader closed stdout early, which is no failure of the
            # run; what is still buffered goes to devnull, so the flush at
            # interpreter exit cannot raise again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _rows_document(args, header: list[str], count: int, cells, **extra) -> str:
    """``count`` rows, whose columns ``cells(lo, hi)`` makes for rows lo to
    hi, zipped into JSON row objects under "rows" next to ``extra``, or as
    CSV (which leaves ``extra`` out): the config line, the header and a
    line per row, each cell as ``str``, as ``--format`` asks.  The CSV is
    made in contiguous row ranges, one per usable CPU, side by side, each
    making its own cells and lines by the same code; only an orbit CSV is
    long enough to run more than one (degree's rows are its steps, 12 at
    the documented maximum)."""
    if args.format == "json":
        rows = [dict(zip(header, r)) for r in zip(*cells(0, count))]
        return _json_document(args, {"rows": rows, **extra})
    # a non-finite argument raises ValueError here: a configuration error
    config = json.dumps(_config(args), sort_keys=True, separators=(",", ":"),
                        allow_nan=False)
    from ._fork import fork_map, ranges

    def lines(r):
        rows = map(",".join, zip(*(map(str, c) for c in cells(*r))))
        # each line with its end, so an empty range adds nothing
        return CSV_EOL.join([*rows, ""])

    parts = fork_map(lines, ranges(count, FORK_ROWS // 2))
    return "".join(["# config: " + config + CSV_EOL, ",".join(header) + CSV_EOL, *parts])


def _json_document(args, payload: dict) -> str:
    doc = {"config": _config(args), **payload}
    try:
        text = json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1,
                          allow_nan=False)
    except ValueError as exc:
        # NaN and Infinity are not JSON: a non-finite result is a numeric error
        raise FloatingPointError(f"non-finite value in the JSON output ({exc})") from exc
    return text + "\n"


def finite(text: str, parse=float):
    """``parse(text)`` (float or complex) if it is finite: every number the
    command line reads goes through here, so NaN and infinity are
    configuration errors (exit 2)."""
    value = parse(text)
    if not cmath.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _parse_complex(text: str) -> complex:
    return finite(text.replace(" ", ""), complex)


def _parse_matrix(text: str) -> list[list[complex]]:
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != 4:
        raise ValueError("matrix needs 4 comma-separated complex entries")
    a, b, c, d = (_parse_complex(p) for p in parts)
    return [[a, b], [c, d]]


def _build_spec(args, rho: float):
    """The spec template, validated at ``rho``: the first radius that runs."""
    from . import cocycle

    for option, value, reader in (("--energy", args.energy, "schrodinger"),
                                  ("--potential", args.potential, "schrodinger"),
                                  ("--const", args.const, "constant")):
        # the config line records every option, so one that the kind does
        # not read keeps its default
        if value and args.kind != reader:
            raise ValueError(f"{option} is not read by kind {args.kind}")
    kw = dict(
        kind=args.kind,
        rho=rho,
        freq=args.freq,
        alpha=cmath.exp(2j * math.pi * args.alpha_angle),
    )
    if args.kind == "schrodinger":
        kw["energy"] = args.energy
        kw["potential"] = tuple(
            finite(t) for t in args.potential.split(",") if t.strip()
        ) if args.potential else ()
    if args.kind == "constant":
        if not args.const:
            raise ValueError("--const is required for kind constant")
        kw["matrix"] = _parse_matrix(args.const)
    return cocycle.CocycleSpec(**kw)


def _s_grid(args) -> list[tuple[float, float]]:
    """(ln rho, rho) pairs: a given --rho is used as it is, grid points
    take rho = exp(s)."""
    from . import accel

    if args.rho is not None:
        if not args.rho > 0.0:
            raise ValueError(f"--rho must be positive, got {args.rho!r}")
        return [(math.log(args.rho), args.rho)]
    if args.s_steps < 1:
        raise ValueError("--s-steps must be at least 1")
    if args.s_steps == 1:
        grid = [args.s_min]
    else:
        step = (args.s_max - args.s_min) / (args.s_steps - 1)
        grid = [args.s_min + i * step for i in range(args.s_steps)]
    return [(s, accel.radius_at(s, "--s-min/--s-max")) for s in grid]


def _cmd_lyapunov(args) -> str:
    from . import cocycle

    grid = _s_grid(args)
    spec = _build_spec(args, grid[0][1])
    estimates = cocycle.lyapunov_many(
        spec, [rho for _, rho in grid], args.n, args.samples, args.seed
    )
    rows = [
        [args.kind, args.alpha_angle, args.freq, rho, s, est.value,
         est.stderr, est.half_n_value, est.total_error, args.n, args.samples,
         args.seed]
        for (s, rho), est in zip(grid, estimates)
    ]
    header = ["kind", "alpha_angle", "freq", "rho", "ln_rho", "L", "stderr",
              "half_n_L", "total_error", "n", "samples", "seed"]
    return _rows_document(args, header, len(rows), lambda lo, hi: zip(*rows[lo:hi]))


def _cmd_accel(args) -> str:
    from . import accel

    grid = _s_grid(args)
    spec = _build_spec(args, grid[0][1])
    windows = accel.acceleration_windows(
        spec, [rho for _, rho in grid], h=args.h, n=args.n,
        samples=args.samples, seed=args.seed,
    )
    rows = [
        [rho, est.omega, est.nearest_integer, est.distance,
         reg.left_slope, reg.right_slope, int(reg.regular), est.stderr, est.h]
        for (_, rho), (est, reg) in zip(grid, windows)
    ]
    # h_used is the window's step h on every row
    header = ["rho", "omega", "nearest_integer", "distance", "left_slope",
              "right_slope", "regular_flag", "stderr", "h_used"]
    return _rows_document(args, header, len(rows), lambda lo, hi: zip(*rows[lo:hi]))


def _orbit_start(args):
    """The map parameters and the start point of ``orbit`` and ``classify``."""
    from . import maps

    params = maps.MapParams.from_angles(args.alpha_angle, args.freq)
    q = maps.PointP1xC(x=_parse_complex(args.x0), y=_parse_complex(args.y0))
    return params, q


def _cmd_orbit(args) -> str:
    from . import maps
    from ._lazy import np

    rec = maps.orbit(*_orbit_start(args), args.n, dist_tol=args.dist_tol)
    # at infinity the CSV writes inf, 0.0 and the JSON null, null
    at_infinity = (None, None) if args.format == "json" else (math.inf, 0.0)

    def cells(lo, hi):
        u, finite_x, y = rec.u[lo:hi], rec.finite[lo:hi], rec.y[lo:hi]
        return [
            range(lo, hi),
            np.where(finite_x, u.real, at_infinity[0]).tolist(),
            np.where(finite_x, u.imag, at_infinity[1]).tolist(),
            finite_x.astype(int).tolist(),
            y.real.tolist(),
            y.imag.tolist(),
            # Python's abs, not np.abs: the two differ in the last bit
            list(map(abs, y.tolist())),
        ]

    header = ["step", "x_re", "x_im", "x_finite", "y_re", "y_im", "y_abs"]
    return _rows_document(args, header, len(rec.u), cells,
                          indeterminacy_hits=list(rec.indeterminacy_hits),
                          escaped=rec.escaped)


def _cmd_classify(args) -> str:
    from . import maps

    cls = maps.classify_orbit_closure(*_orbit_start(args), args.n, which=args.map)
    payload = {
        "rank": cls.rank,
        "confidence": cls.confidence,
        "slopes": list(cls.slopes),
        "window": list(cls.window),
        "counts": list(cls.counts),
    }
    return _json_document(args, payload)


def _cmd_linearize(args) -> str:
    from . import linearize

    params = MapParams.from_angles(args.alpha_angle, args.freq)
    coeffs = linearize.solve_coefficients(
        params, args.order, divisor_floor=args.divisor_floor
    )
    payload = linearize.coeffs_to_json(coeffs)
    payload["residuals"] = list(coeffs.residuals)
    # the estimate over the first N // 2 orders too, to show how it moves
    for key, order in (("radius_estimate", args.order),
                       ("radius_estimate_half", args.order // 2)):
        payload[key] = linearize.estimate_radius(coeffs, order) if order >= 8 else None
    return _json_document(args, payload)


def _cmd_degree(args) -> str:
    from . import degree as degree_mod

    try:
        vals = [Fraction(t) for t in args.specialize.split(",")] if args.specialize else []
    except ZeroDivisionError:  # 1/0 is a configuration error, not a numeric one
        raise ValueError(f"--specialize {args.specialize!r} has a zero denominator") from None
    if len(vals) % 2:
        raise ValueError("--specialize needs pairs a1,b1[,a2,b2]")
    # a single pair is cross-checked against a random one
    degs, pairs = degree_mod.certified_degrees(
        args.max_n, seed=args.seed,
        specializations=[tuple(vals[i : i + 2]) for i in range(0, len(vals), 2)],
    )
    if args.format == "csv":
        return _rows_document(args, ["n", "degree"], len(degs),
                              lambda lo, hi: [range(lo + 1, hi + 1), degs[lo:hi]])
    report = degree_mod.growth_classify(degs)
    payload = dataclasses.asdict(report)
    # the (alpha, beta) pairs that certified the sequence, as exact strings
    payload["specializations"] = [[str(Fraction(a)), str(Fraction(b))] for a, b in pairs]
    return _json_document(args, payload)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jonq",
        description="Lyapunov exponents, quantized acceleration, orbits and "
        "degree growth for a family of fibered birational maps",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, rho_grid=True):
        p.add_argument("--alpha-angle", type=finite, default=DEFAULT_ALPHA_ANGLE)
        p.add_argument("--freq", type=finite, default=GOLDEN_FREQ)
        p.add_argument("--n", type=int, default=20000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default="-")
        if rho_grid:
            p.add_argument("--samples", type=int, default=64)
            p.add_argument("--rho", type=finite, default=None)
            p.add_argument("--s-min", type=finite, default=-2.0)
            p.add_argument("--s-max", type=finite, default=2.0)
            p.add_argument("--s-steps", type=int, default=41)
            p.add_argument("--kind", choices=KINDS, default="jonquieres_b")
            p.add_argument("--energy", type=finite, default=0.0)
            p.add_argument("--potential", default="")
            p.add_argument("--const", default="")
            p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("lyapunov", help="exponent estimates over a radius grid")
    add_common(p)

    p = sub.add_parser("accel", help="acceleration and regularity per radius")
    add_common(p)
    p.add_argument("--h", type=finite, default=DEFAULT_H)
    # 40 steps: no row and no +-h window at ln rho = 0
    p.set_defaults(kind="btilde", s_steps=40)

    p = sub.add_parser("orbit", help="map orbit with indeterminacy tracking")
    add_common(p, rho_grid=False)
    p.add_argument("--x0", default="0.01+0j")
    p.add_argument("--y0", default="0.01+0j")
    p.add_argument("--dist-tol", type=finite, default=1e-8)
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("classify", help="orbit-closure rank by box counting")
    add_common(p, rho_grid=False)
    p.add_argument("--x0", default="0.001+0j")
    p.add_argument("--y0", default="0.001+0j")
    p.add_argument("--map", choices=["f", "g", "f2"], default="f")
    p.set_defaults(n=200000)

    p = sub.add_parser("linearize", help="conjugacy series of the inverted square map")
    p.add_argument("--alpha-angle", type=finite, default=DEFAULT_ALPHA_ANGLE)
    p.add_argument("--freq", type=finite, default=GOLDEN_FREQ)
    p.add_argument("--order", type=int, default=12)
    p.add_argument("--divisor-floor", type=finite, default=1e-8)
    p.add_argument("--out", default="-")

    p = sub.add_parser("degree", help="exact degree growth of the family")
    p.add_argument("--max-n", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--specialize", default="")
    p.add_argument("--format", choices=["csv", "json"], default="json")
    p.add_argument("--out", default="-")

    return parser


_COMMANDS = {
    "lyapunov": _cmd_lyapunov,
    "accel": _cmd_accel,
    "orbit": _cmd_orbit,
    "classify": _cmd_classify,
    "linearize": _cmd_linearize,
    "degree": _cmd_degree,
}


def _join_option_values(argv: list[str]) -> list[str]:
    """Write ``--name VALUE`` as ``--name=VALUE`` for every option but
    --help and --version (every other option takes a value): argparse reads
    a separate value that starts with "-" (-1e-3, -1+0j, -3,2) as an
    option."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        value = argv[i + 1] if i + 1 < len(argv) else "--"
        if (tok.startswith("--") and "=" not in tok and tok not in ("--help", "--version")
                and not value.startswith("--")):
            tok = f"{tok}={value}"
            i += 1
        out.append(tok)
        i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_option_values(sys.argv[1:] if argv is None else argv))
    try:
        text = _COMMANDS[args.command](args)
    except JonqError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    _emit(args.out, text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
