"""Fit the segmented piecewise-affine profile to `jonq lyapunov` CSV output.

    python3 -m jonq.cli lyapunov --kind jonquieres_b ... | python3 perfbench/fit.py

Prints the breakpoints and slopes as JSON.
"""

import csv
import json
import sys

from jonq import accel
from jonq.cocycle import LyapunovEstimate

# the acceptance suite's pinned penalty
PENALTY = 1e-6


def main() -> int:
    lines = [line for line in sys.stdin.read().splitlines() if not line.startswith("#")]
    points = tuple(
        (float(row["ln_rho"]),
         LyapunovEstimate(value=float(row["L"]), n=int(row["n"]), samples=int(row["samples"]),
                          half_n_value=float(row["half_n_L"]), stderr=float(row["stderr"])))
        for row in csv.DictReader(lines)
    )
    profile = accel.LyapunovProfile(points=points, spec_template=None)
    fit = accel.piecewise_affine_fit(profile, penalty=PENALTY)
    json.dump({"breakpoints": fit.breakpoints, "slopes": fit.slopes,
               "max_residual": fit.max_residual}, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
