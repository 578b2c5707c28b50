import csv
import json
import math
import subprocess
import sys

import pytest

import jonq._fork as fork_mod
import jonq.cli as cli_mod
import jonq.degree as degree_mod
import jonq.linearize as linearize_mod
from jonq.cli import FORK_ROWS, _config, _csv_document, build_parser, main

FAST = ["--n", "400", "--samples", "4", "--seed", "1"]


def run(tmp_path, name, argv):
    out = tmp_path / name
    rc = main(argv + ["--out", str(out)])
    return rc, out


def strict_json(text):
    """json.loads that rejects the NaN, Infinity and -Infinity tokens."""
    def reject(token):
        raise ValueError(f"non-JSON token {token}")

    return json.loads(text, parse_constant=reject)


class TestLyapunovCommand:
    def test_single_rho_csv(self, tmp_path):
        rc, out = run(
            tmp_path, "a.csv",
            ["lyapunov", "--kind", "jonquieres_b", "--rho", "4.0"] + FAST,
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# config: ")
        cfg = json.loads(lines[0][len("# config: "):])
        assert cfg["kind"] == "jonquieres_b" and cfg["seed"] == 1
        header = lines[1].split(",")
        assert header == ["kind", "alpha_angle", "freq", "rho", "ln_rho", "L",
                          "stderr", "half_n_L", "total_error", "n", "samples",
                          "seed"]
        row = lines[2].split(",")
        assert float(row[3]) == 4.0
        assert abs(float(row[5]) - math.log(4)) < 0.05
        # total_error = stderr + |L - half_n_L|
        L, stderr, half_l, total = (float(v) for v in row[5:9])
        assert total == stderr + abs(L - half_l)

    @pytest.mark.parametrize("rho,cell", [("1e75", "1e+75"), ("3.0", "3.0")])
    def test_requested_rho_is_exact(self, tmp_path, rho, cell):
        # the row is computed at the radius given, not at exp(log(rho))
        rc, out = run(
            tmp_path, "r.csv",
            ["lyapunov", "--kind", "jonquieres_b", "--rho", rho,
             "--n", "200", "--samples", "2"],
        )
        assert rc == 0
        row = out.read_text().splitlines()[2].split(",")
        assert row[3] == cell
        assert row[4] == repr(math.log(float(rho)))

    def test_sweep_row_count(self, tmp_path):
        rc, out = run(
            tmp_path, "b.csv",
            ["lyapunov", "--kind", "jonquieres_b", "--s-min", "-1", "--s-max", "1",
             "--s-steps", "5"] + FAST,
        )
        assert rc == 0
        assert len(out.read_text().splitlines()) == 2 + 5

    def test_byte_reproducibility(self, tmp_path):
        argv = ["lyapunov", "--kind", "btilde", "--rho", "2.0"] + FAST
        _, out1 = run(tmp_path, "c1.csv", argv)
        _, out2 = run(tmp_path, "c2.csv", argv)
        assert out1.read_bytes() == out2.read_bytes()

    def test_btilde_unit_radius_is_config_error(self, tmp_path):
        rc, _ = run(tmp_path, "d.csv",
                    ["lyapunov", "--kind", "btilde", "--rho", "1.0"] + FAST)
        assert rc == 2

    def test_btilde_grid_off_unit_radius(self, tmp_path):
        # the spec template is validated at the first grid radius, not at 1
        rc, out = run(tmp_path, "d2.csv",
                      ["lyapunov", "--kind", "btilde", "--s-min", "0.5", "--s-max", "1",
                       "--s-steps", "2", "--n", "100", "--samples", "2"])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 2 + 2

    def test_resonant_freq_is_config_error(self, tmp_path):
        rc, _ = run(tmp_path, "e.csv",
                    ["lyapunov", "--kind", "jonquieres_b", "--rho", "2.0",
                     "--freq", "0.5"] + FAST)
        assert rc == 2

    @pytest.mark.parametrize(
        "rho", ["0.9999999", "1.0000001", "0.9999999999999999", "1.0000000000000002"]
    )
    def test_radius_next_to_one_runs(self, tmp_path, rho):
        # 1 +- 1e-7 and one ulp either side: the square-root branch is
        # defined off the unit circle, and L(btilde) = 0 there (Theorem A)
        rc, out = run(tmp_path, "e2.csv",
                      ["lyapunov", "--kind", "btilde", "--rho", rho,
                       "--n", "20000", "--samples", "16"])
        assert rc == 0
        (row,) = csv.DictReader(out.read_text().splitlines()[1:])
        assert row["rho"] == rho
        assert abs(float(row["L"])) <= 3 * float(row["total_error"])

    def test_btilde_at_a_near_resonant_freq_runs(self, tmp_path):
        # at freq = 0.5 + 1e-11 the normalized product's |det p| falls to
        # 1e-17 or to 0 at most phases, so btilde's log-norm there comes
        # from the direct log-det sum, not from -1/2 ln|det p|
        rc, out = run(tmp_path, "e4.csv",
                      ["lyapunov", "--kind", "btilde", "--rho", "2", "--freq",
                       "0.50000000001", "--n", "2000"])
        assert rc == 0
        (row,) = csv.DictReader(out.read_text().splitlines()[1:])
        assert all(math.isfinite(float(row[name]))
                   for name in ("L", "stderr", "half_n_L", "total_error"))

    def test_vanishing_product_is_numeric_error(self, capsys):
        # [[0, 1], [0, 0]] squares to zero: no NaN row is written
        rc = main(["lyapunov", "--kind", "constant", "--const", "0,1,0,0",
                   "--rho", "1", "--n", "400", "--samples", "4"])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err.startswith("error: SingularFactor: ")
        assert "rho=1.0" in captured.err
        assert captured.err.count("\n") == 1

    def test_overflow_names_the_radius(self, capsys):
        # the grid is ln rho = 0, 200, 400; only exp(400) = 5.2e173 fails
        rc = main(["lyapunov", "--kind", "diagonal_power", "--s-min", "0",
                   "--s-max", "400", "--s-steps", "3", "--n", "100", "--samples", "2"])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err.startswith("error: Overflow: ")
        assert f"rho={math.exp(400.0)!r}" in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("kind,rho", [
        ("btilde", "1e100"), ("btilde", "1e160"), ("jonquieres_b", "1e80"),
        ("jonquieres_a", "1e200"), ("diagonal_power", "1e-200"),
    ])
    def test_generator_overflow_is_one_line(self, kind, rho):
        # btilde's kernel multiplies the jonquieres_b matrices, of norm
        # about rho^2, so it stops where jonquieres_b does (about 1.4e75),
        # before any kernel step or NumPy warning.  The line prints the
        # norm bound, finite past the float range too
        bound = {"1e100": "1.000e+200", "1e160": "1.000e+320", "1e80": "1.000e+160",
                 "1e200": "1.000e+200", "1e-200": "1.000e+200"}[rho]
        proc = subprocess.run(
            [sys.executable, "-m", "jonq.cli", "lyapunov", "--kind", kind,
             "--rho", rho, "--n", "100", "--samples", "2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: Overflow: ")
        assert f"rho={float(rho)!r}" in proc.stderr
        assert f"generator norm bound {bound} outside" in proc.stderr
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("extra,bound", [
        # no --potential: V = |E|, past the float range when squared
        (["--energy", "1e200"], "1.000e+200"),
        # |E| + |a0| itself passes the float range
        (["--energy", "1.5e308", "--potential", "1.5e308"], "3.000e+308"),
    ], ids=["no-potential", "sum-past-range"])
    def test_schrodinger_overflow_is_one_line(self, extra, bound):
        proc = subprocess.run(
            [sys.executable, "-m", "jonq.cli", "lyapunov", "--kind", "schrodinger",
             "--rho", "2", "--n", "100", "--samples", "2"] + extra,
            capture_output=True, text=True,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == (f"error: Overflow: generator norm bound {bound}"
                               " outside [1e-150, 2e150] at rho=2.0\n")

    def test_one_kernel_call_for_the_grid(self, tmp_path, kernel_calls):
        rc, out = run(tmp_path, "grid.csv",
                      ["lyapunov", "--kind", "jonquieres_b", "--s-steps", "7"] + FAST)
        assert rc == 0
        assert len(out.read_text().splitlines()) == 2 + 7
        (call,) = kernel_calls
        assert len(set(call[2].tolist())) == 7 and len(call[7]) == 7 * 4


class TestAccelCommand:
    def test_columns_and_values(self, tmp_path):
        from jonq.accel import DEFAULT_H

        rc, out = run(
            tmp_path, "f.csv",
            ["accel", "--kind", "diagonal_power", "--rho", "1.0",
             "--n", "2000", "--samples", "8", "--seed", "0"],
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[1].split(",") == ["rho", "omega", "nearest_integer",
                                       "distance", "left_slope", "right_slope",
                                       "regular_flag", "stderr", "h_used"]
        row = lines[2].split(",")
        assert abs(float(row[1]) - 1.0) < 0.05
        assert int(row[2]) == 1
        assert row[6] == "0"  # kinked at rho = 1: not regular
        assert 0.0 <= float(row[7]) < 0.05
        assert float(row[8]) == DEFAULT_H  # h_used is h, at every row

    def test_requested_rho_is_exact(self, tmp_path):
        rc, out = run(
            tmp_path, "f2.csv",
            ["accel", "--kind", "diagonal_power", "--rho", "3.0",
             "--n", "400", "--samples", "4"],
        )
        assert rc == 0
        assert out.read_text().splitlines()[2].split(",")[0] == "3.0"

    def test_one_kernel_call_for_the_grid(self, tmp_path, kernel_calls):
        # three rows 0.25 apart: their +-h windows share no radius
        rc, out = run(tmp_path, "f3.csv",
                      ["accel", "--kind", "btilde", "--s-min", "0.5", "--s-max", "1",
                       "--s-steps", "3"] + FAST)
        assert rc == 0
        assert len(out.read_text().splitlines()) == 2 + 3
        (call,) = kernel_calls
        rho, thetas = call[2], call[7]
        assert len(set(rho.tolist())) == 3 * 3 and len(thetas) == 3 * 3 * 4

    def test_btilde_grid_off_unit_radius(self, tmp_path):
        rc, out = run(tmp_path, "f4.csv",
                      ["accel", "--s-min", "0.5", "--s-max", "1", "--s-steps", "2",
                       "--n", "100", "--samples", "2"])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 2 + 2

    def test_default_grid_runs(self, tmp_path):
        # 40 points on [-2, 2]: no row at ln rho = 0, no window across it
        from jonq.accel import DEFAULT_H

        rc, out = run(tmp_path, "f5.csv", ["accel", "--n", "200", "--samples", "4"])
        assert rc == 0
        rows = [l.split(",") for l in out.read_text().splitlines()[2:]]
        assert len(rows) == 40
        assert min(abs(math.log(float(row[0]))) for row in rows) > 2 * DEFAULT_H

    def test_straddling_window_is_config_error(self, tmp_path, capsys):
        # ln 1.01 = 0.00995, so the window [s - h, s + h] contains 0
        rc, _ = run(tmp_path, "f6.csv", ["accel", "--rho", "1.01"] + FAST)
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: SideCrossing: ")

    @pytest.mark.parametrize("rho,h", [("1", "1e-300"), ("3", "1e-17")])
    def test_window_below_float_resolution_is_config_error(self, rho, h):
        # exp(+-1e-300) rounds to 1.0 and ln 3 -+ 1e-17 to ln 3, so the
        # window would compare a radius with itself
        proc = subprocess.run(
            [sys.executable, "-m", "jonq.cli", "accel", "--kind", "jonquieres_b",
             "--rho", rho, "--h", h, "--n", "200", "--samples", "4"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"error: invalid configuration: h = {float(h)!r} ")
        assert proc.stderr.count("\n") == 1

    def test_reproducible(self, tmp_path):
        argv = ["accel", "--kind", "btilde", "--rho", "2.0",
                "--n", "1000", "--samples", "8", "--seed", "5"]
        _, out1 = run(tmp_path, "g1.csv", argv)
        _, out2 = run(tmp_path, "g2.csv", argv)
        assert out1.read_bytes() == out2.read_bytes()


class TestOrbitCommand:
    def test_rows_and_constant_modulus(self, tmp_path):
        rc, out = run(
            tmp_path, "h.csv",
            ["orbit", "--x0", "0.01+0j", "--y0", "0.01+0j", "--n", "50"],
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        rows = [l.split(",") for l in lines[2:]]
        assert len(rows) == 51
        mods = {row[6] for row in rows}
        assert all(abs(float(m) - 0.01) < 1e-12 for m in mods)

    def test_passage_through_infinity(self, tmp_path):
        # start mapped exactly onto x = -1, so step 2 is at infinity
        import cmath

        from jonq.algebra import DEFAULT_ALPHA_ANGLE

        alpha = cmath.exp(2j * math.pi * DEFAULT_ALPHA_ANGLE)
        y0 = 0.5 + 0j
        x0 = -(1.0 + y0) / (1.0 + alpha)
        argv = ["orbit", f"--x0={x0.real}{x0.imag:+}j", "--y0", "0.5+0j", "--n", "4"]
        rc, out = run(tmp_path, "i.csv", argv)
        assert rc == 0
        rows = [l.split(",") for l in out.read_text().splitlines()[2:]]
        finite_flags = [row[3] for row in rows]
        assert "0" in finite_flags
        # the CSV writes inf at infinity, the JSON null
        assert all(row[1] == "inf" for row in rows if row[3] == "0")
        rc, out = run(tmp_path, "i.json", argv + ["--format", "json"])
        assert rc == 0
        doc_rows = strict_json(out.read_text())["rows"]
        assert [row["x_finite"] for row in doc_rows] == [int(f) for f in finite_flags]
        for row in doc_rows:
            if not row["x_finite"]:
                assert row["x_re"] is None and row["x_im"] is None
            else:
                assert math.isfinite(row["x_re"]) and math.isfinite(row["x_im"])

    def test_negative_dist_tol_is_config_error(self, capsys):
        rc = main(["orbit", "--n", "3", "--dist-tol=-1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: invalid configuration: dist_tol ")

    def test_overflow_is_numeric_error(self, capsys):
        rc = main(["orbit", "--x0=1.7e308+1.7e308j", "--y0", "0.5+0j", "--n", "3"])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err.startswith("error: Overflow: ")

    @pytest.mark.parametrize("cpus,rows,parts", [
        (2, FORK_ROWS - 1, None), (2, FORK_ROWS, 2), (2, FORK_ROWS + 1, 2),
        (3, FORK_ROWS, 2), (3, 3 * (FORK_ROWS // 2), 3), (3, 3 * (FORK_ROWS // 2) + 1, 3),
    ])
    def test_split_rows_equal_the_serial_document(self, tmp_path, monkeypatch,
                                                 cpus, rows, parts):
        # the start is mapped exactly onto x = -1, so step 2 is at infinity
        # and writes inf, 0.0; the rows are formatted in ``parts`` parts
        # at FORK_ROWS rows or more
        import cmath

        from jonq.algebra import DEFAULT_ALPHA_ANGLE

        alpha = cmath.exp(2j * math.pi * DEFAULT_ALPHA_ANGLE)
        x0 = -1.5 / (1.0 + alpha)
        argv = ["orbit", f"--x0={x0.real}{x0.imag:+}j", "--y0", "0.5+0j",
                "--n", str(rows - 1)]
        with monkeypatch.context() as serial:
            serial.setattr(cli_mod, "FORK_ROWS", math.inf)
            rc, want = run(tmp_path, "serial.csv", argv)
        assert rc == 0
        lines = want.read_text().splitlines()
        assert len(lines) == rows + 2 and lines[4].startswith("2,inf,0.0,0,")
        counts = []
        fork_map = fork_mod.fork_map

        def counting(fn, split):
            counts.append(len(split))
            return fork_map(fn, split)

        monkeypatch.setattr(fork_mod, "fork_map", counting)
        monkeypatch.setattr(fork_mod, "usable_cpus", lambda: cpus)
        rc, got = run(tmp_path, "split.csv", argv)
        assert rc == 0
        assert counts == ([] if parts is None else [parts])
        assert got.read_bytes() == want.read_bytes()

    def test_closed_stdout_exits_zero(self):
        # the CSV of 1e5 steps is larger than a pipe buffer, so the write
        # meets the read end closed
        proc = subprocess.Popen(
            [sys.executable, "-m", "jonq.cli", "orbit", "--n", "100000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        try:
            _, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
        assert proc.returncode == 0
        assert err == b""


class TestClassifyCommand:
    def test_circle_domain_json(self, tmp_path):
        rc, out = run(
            tmp_path, "j.json",
            ["classify", "--map", "g", "--x0", "0.001+0j", "--y0", "0.001+0j",
             "--n", "50000"],
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["rank"] == 1
        assert doc["confidence"] >= 0.9
        assert doc["config"]["map"] == "g"


@pytest.mark.parametrize("argv", [
    ["orbit", "--x0", "-1+0j", "--n", "4"],
    ["orbit", "--x0", "-0.3-0.2j", "--y0", "-0.5+0j", "--n", "6", "--format", "json"],
    ["classify", "--map", "g", "--x0", "-0.001+0j", "--y0", "-0.001+0j", "--n", "50000"],
    ["lyapunov", "--s-min", "-1e-3", "--s-max", "1e-3", "--s-steps", "3"],
    ["accel", "--alpha-angle", "-1e-1", "--rho", "2"],
    ["lyapunov", "--kind", "constant", "--const", "-1,0,0,-1", "--rho", "1"],
    ["degree", "--specialize", "-3,2"],
    ["degree", "--out", "-"],
])
def test_separate_and_joined_start_points_agree(argv, capsys):
    # a value that starts with "-" may follow any option but --help and
    # --version as its own token
    assert main(argv) == 0
    separate = capsys.readouterr().out
    joined = []
    for tok in argv:
        last = joined[-1] if joined else ""
        if last.startswith("--") and "=" not in last and last not in ("--help", "--version"):
            tok = f"{joined.pop()}={tok}"
        joined.append(tok)
    assert main(joined) == 0
    assert capsys.readouterr().out == separate
    assert separate


class TestLinearizeCommand:
    def test_coefficient_export(self, tmp_path):
        rc, out = run(tmp_path, "k.json", ["linearize", "--order", "8"])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["N"] == 8
        alpha = complex(*doc["alpha"])
        beta = complex(*doc["beta"])
        b1 = beta * (1.0 + alpha) / (1.0 - beta)
        assert abs(complex(*doc["b"][1]) - b1) < 1e-12
        assert max(doc["residuals"]) <= 1e-10

    def test_near_resonant_is_numeric_error(self, tmp_path):
        rc, _ = run(
            tmp_path, "l.json",
            ["linearize", "--order", "8", "--freq", str(1.0 / 7.0 + 1e-11)],
        )
        assert rc == 3

    def test_residuals_computed_once(self, monkeypatch, capsys):
        # the solver's post-condition norms are the ones printed
        returned = []
        original = linearize_mod.residual_norms
        monkeypatch.setattr(linearize_mod, "residual_norms",
                            lambda coeffs: returned.append(original(coeffs)) or returned[-1])
        assert main(["linearize", "--order", "12"]) == 0
        assert len(returned) == 1
        assert strict_json(capsys.readouterr().out)["residuals"] == list(returned[0])

    def test_nan_in_json_is_numeric_error(self, monkeypatch, capsys):
        # no JSON document carries a NaN or Infinity token under exit 0
        monkeypatch.setattr(linearize_mod, "residual_norms",
                            lambda coeffs: (math.nan, 0.0, 0.0))
        rc = main(["linearize", "--order", "4"])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err.startswith("error: FloatingPointError: non-finite value")

    def test_leaves_numpy_out(self, tmp_path):
        # the conjugacy series are tuples of Python complex numbers, so
        # `jonq linearize` starts without the NumPy half of the package
        code = (
            "import sys, jonq.cli; "
            "rc = jonq.cli.main(['linearize', '--order', '12', '--out', sys.argv[1]]); "
            "print(rc, 'numpy' in sys.modules)"
        )
        out = tmp_path / "l.json"
        proc = subprocess.run([sys.executable, "-c", code, str(out)],
                              capture_output=True, text=True)
        assert proc.stdout == "0 False\n"
        assert json.loads(out.read_text())["N"] == 12

    def test_module_import_leaves_numpy_out(self):
        code = "import sys, jonq.linearize; print('numpy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == "False\n"


class TestDegreeCommand:
    def test_growth_json(self, tmp_path):
        rc, out = run(tmp_path, "m.json", ["degree", "--max-n", "6"])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["degrees"] == [2, 2, 3, 3, 4, 4]
        assert doc["growth_class"] == "Linear"

    def test_csv_row_per_step(self, tmp_path):
        rc, out = run(tmp_path, "n.csv", ["degree", "--max-n", "6", "--format", "csv"])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "n,degree"
        assert len(lines) == 2 + 6

    def test_csv_below_the_classify_minimum(self, tmp_path):
        # CSV prints the degrees alone, so it needs no growth classification
        rc, out = run(tmp_path, "n4.csv", ["degree", "--max-n", "4", "--format", "csv"])
        assert rc == 0
        assert out.read_text().splitlines()[2:] == ["1,2", "2,2", "3,3", "4,3"]

    def test_json_lists_specializations(self, tmp_path):
        # the pairs that certified the sequence, as exact strings
        rc, out = run(tmp_path, "s.json",
                      ["degree", "--max-n", "6", "--specialize", "7/3,-2/5,3,5"])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["degrees"] == [2, 2, 3, 3, 4, 4]
        assert doc["specializations"] == [["7/3", "-2/5"], ["3", "5"]]

    def test_leaves_sympy_out(self, tmp_path):
        # the fiber path is exact without sympy; only the composition
        # oracle imports it.  It uses no NumPy either, so the command
        # starts without the NumPy half of the package
        code = (
            "import sys, jonq.cli; "
            "rc = jonq.cli.main(['degree', '--max-n', '12', '--out', sys.argv[1]]); "
            "print(rc, 'sympy' in sys.modules, 'numpy' in sys.modules)"
        )
        out = tmp_path / "t.json"
        proc = subprocess.run([sys.executable, "-c", code, str(out)],
                              capture_output=True, text=True)
        assert proc.stdout == "0 False False\n"
        assert json.loads(out.read_text())["degrees"][-1] == 7

    def test_degenerate_specialization_is_numeric_error(self, tmp_path):
        rc, _ = run(tmp_path, "o.json",
                    ["degree", "--max-n", "4", "--specialize", "3,0"])
        assert rc == 3

    def test_zero_denominator_is_config_error(self, capsys):
        assert main(["degree", "--specialize", "1/0,2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: invalid configuration: ")

    def test_documented_maximum(self, tmp_path):
        # the documented maximum, --max-n 12, must finish with exit 0
        rc, out = run(tmp_path, "p.json", ["degree", "--max-n", "12"])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["degrees"] == [2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7]

    def test_arithmetic_error_is_numeric_error(self, tmp_path, monkeypatch, capsys):
        def overflow(*args, **kwargs):
            raise ArithmeticError("coefficient size exceeded the desk-scale guard")

        monkeypatch.setattr(degree_mod, "certified_degrees", overflow)
        rc, out = run(tmp_path, "q.json", ["degree", "--max-n", "4"])
        assert rc == 3
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ArithmeticError: ")


class TestParser:
    def test_config_holds_every_argument_but_out(self):
        parser = build_parser()
        (sub,) = [a for a in parser._actions if a.dest == "command"]
        for name, subparser in sub.choices.items():
            dests = {a.dest for a in subparser._actions} - {"help", "out"}
            cfg = _config(parser.parse_args([name]))
            assert set(cfg) == dests | {"version", "backend", "subcommand"}, name
            assert cfg["subcommand"] == name

    def test_rerunning_the_config_reproduces_the_run(self, tmp_path):
        argv = ["accel", "--kind", "schrodinger", "--energy", "2.5",
                "--potential", "0,1", "--rho", "1.5", "--n", "200", "--samples", "2"]
        rc, out = run(tmp_path, "u.csv", argv)
        assert rc == 0
        text = out.read_text()
        cfg = json.loads(text.splitlines()[0][len("# config: "):])
        rerun = [cfg["subcommand"]]
        for key, value in cfg.items():
            if key not in ("version", "backend", "subcommand") and value is not None:
                rerun += ["--" + key.replace("_", "-"), str(value)]
        rc, again = run(tmp_path, "v.csv", rerun)
        assert rc == 0
        assert again.read_text() == text

    @pytest.mark.parametrize("argv", [
        ["linearize", "--alpha-angle", "nan"],
        ["orbit", "--dist-tol", "nan", "--n", "3"],
        ["lyapunov", "--rho", "2", "--energy", "nan", "--n", "200", "--samples", "4"],
        ["accel", "--kind", "jonquieres_b", "--rho", "2", "--s-max", "inf", "--n", "200",
         "--samples", "4"],
        ["orbit", "--x0", "nan+0j", "--n", "3"],
        ["lyapunov", "--kind", "schrodinger", "--potential", "0,inf", "--rho", "2",
         "--n", "200", "--samples", "4"],
        ["lyapunov", "--kind", "constant", "--const", "1,0,0,nan", "--rho", "2",
         "--n", "200", "--samples", "4"],
    ], ids=["alpha-angle", "dist-tol", "energy", "s-max", "x0", "potential", "const"])
    def test_non_finite_number_is_config_error(self, argv, capsys):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects the option itself
            rc = exc.code
        assert rc == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command,kind,extra", [
        ("lyapunov", "jonquieres_b", ["--potential", "nonsense"]),
        ("lyapunov", "jonquieres_b", ["--const", "garbage"]),
        # not finite, and not read either
        ("lyapunov", "jonquieres_b", ["--potential", "0,inf"]),
        ("lyapunov", "jonquieres_a", ["--energy", "1.5"]),
        ("accel", "btilde", ["--energy", "-2"]),
        ("lyapunov", "diagonal_power", ["--potential", "0,1"]),
        ("lyapunov", "schrodinger", ["--const", "1,0,0,1"]),
        ("lyapunov", "constant", ["--const", "2,1,1,1", "--energy", "3"]),
    ])
    def test_option_the_kind_does_not_read_is_config_error(self, command, kind, extra,
                                                          capsys):
        # the config line would record the option as if the run had used it
        rc = main([command, "--kind", kind, "--rho", "2", "--n", "200", "--samples", "4",
                   *extra])
        assert rc == 2
        out, err = capsys.readouterr()
        option = extra[-2]
        assert out == ""
        assert err == f"error: invalid configuration: {option} is not read by kind {kind}\n"

    @pytest.mark.parametrize("argv,setting", [
        (["accel", "--kind", "diagonal_power", "--rho", "2", "--h", "1000", "--n", "200",
          "--samples", "4"], "h = 1000.0"),
        (["lyapunov", "--s-max", "1000", "--s-steps", "2", "--n", "100", "--samples", "2"],
         "--s-min/--s-max"),
        (["lyapunov", "--rho", "0", "--n", "100", "--samples", "2"], "--rho"),
        (["lyapunov", "--rho", "-1", "--n", "100", "--samples", "2"], "--rho"),
    ], ids=["accel-h", "s-max", "rho-zero", "rho-negative"])
    def test_out_of_range_radius_is_config_error(self, argv, setting, capsys):
        # exp(s) past the float range, or a radius <= 0, names its setting
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: invalid configuration: ")
        assert setting in captured.err

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_split_columns_equal_the_serial_document(self, monkeypatch, cpus):
        # a list, a tuple and a range, as the other commands pass their
        # columns; at 5,999 rows 3 CPUs make 2 parts, at 6,000 rows 3
        args = build_parser().parse_args(["lyapunov"])
        for count in (3 * (FORK_ROWS // 2) - 1, 3 * (FORK_ROWS // 2)):
            columns = [range(count), tuple(i / 7 for i in range(count)),
                       [math.inf if i % 1000 == 2 else -0.0 for i in range(count)]]
            with monkeypatch.context() as serial:
                serial.setattr(cli_mod, "FORK_ROWS", math.inf)
                want = _csv_document(args, ["a", "b", "c"], columns)
            with monkeypatch.context() as split:
                split.setattr(fork_mod, "usable_cpus", lambda: cpus)
                assert _csv_document(args, ["a", "b", "c"], columns) == want
            assert want.count("\n") == count + 2 and ",inf\n" in want

    def test_csv_config_line_rejects_non_finite(self):
        args = build_parser().parse_args(["orbit"])
        args.dist_tol = math.nan
        with pytest.raises(ValueError):
            _csv_document(args, ["step"], [])

    def test_unknown_flag_exits_two(self):
        proc = subprocess.run(
            [sys.executable, "-m", "jonq.cli", "lyapunov", "--nope"],
            capture_output=True,
        )
        assert proc.returncode == 2

    def test_version_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "jonq.cli", "--version"], capture_output=True
        )
        assert proc.returncode == 0

    def test_import_leaves_sympy_out(self):
        # only `degree` needs sympy, so the other subcommands do not pay for
        # it; only the numeric commands need NumPy, and they import it when
        # they run
        code = ("import sys, jonq.cli; jonq.cli.build_parser(); "
                "print('sympy' in sys.modules, 'numpy' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == "False False\n"

    @pytest.mark.parametrize("argv,absent", [
        (["accel", "--rho", "2", "--n", "200", "--samples", "4"],
         ["degree", "maps", "linearize", "backend", "_fork"]),
        (["lyapunov", "--s-steps", "3", "--n", "200", "--samples", "4"],
         ["degree", "maps", "linearize", "backend", "_fork"]),
        (["orbit", "--n", "50"], ["accel", "linearize", "degree", "_fork"]),
        (["classify", "--n", "20000"], ["accel", "linearize", "degree", "_fork"]),
        ([], ["degree", "_fork"]),
        (["degree", "--max-n", "6", "--format", "csv"], ["maps", "cocycle", "_fork"]),
        (["linearize", "--order", "12"], ["maps", "cocycle", "_fork"]),
    ])
    def test_command_loads_only_what_it_runs(self, tmp_path, argv, absent):
        # each command imports its own modules when it runs; with no
        # command, only ``import jonq.cli`` runs.  The fork helper loads
        # only for a long orbit CSV or a wide kernel batch
        code = (
            "import sys, jonq.cli; argv = sys.argv[2:]; "
            "rc = jonq.cli.main(argv + ['--out', sys.argv[1]]) if argv else 0; "
            "print(rc, sorted(m for m in sys.modules if m.startswith('jonq.')))"
        )
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out"), *argv],
                              capture_output=True, text=True)
        rc, modules = proc.stdout.split(" ", 1)
        assert rc == "0", proc.stderr
        assert not {f"jonq.{name}" for name in absent} & set(eval(modules))

    def test_package_import_leaves_numpy_out(self):
        code = "import sys, jonq; print(jonq.BACKEND, 'numpy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == "python False\n"
