"""End-to-end CLI behavior: flags, config files, exit codes, and output
formats."""

import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from hexpack.cli import main
from hexpack.lattice import read_field_csv
from hexpack.spiral import SpiralParams, spiral_field
from hexpack.lattice import ScalarField, Window, write_field_csv


@pytest.fixture()
def runner():
    return CliRunner()


def run(runner, *args):
    return runner.invoke(main, [str(a) for a in args], catch_exceptions=False)


def write_spiral(runner, path, x, y, window="-4:4,-4:4", r0=1.0):
    result = run(runner, "spiral", "--r0", r0, "--x", x, "--y", y,
                 "--window", window, "--out", path)
    assert result.exit_code == 0, result.output
    return path


class TestSpiralCommand:
    def test_writes_field(self, runner, tmp_path):
        out = tmp_path / "u.csv"
        result = run(runner, "spiral", "--r0", 1, "--x", 1.2, "--y", 0.9,
                     "--window", "-10:10,-10:10", "--out", out)
        assert result.exit_code == 0
        field = read_field_csv(out.read_text())
        assert field.window == Window(-10, 10, -10, 10)
        expected = spiral_field(SpiralParams(1.0, 1.2, 0.9), field.window)
        assert field == expected

    def test_unit_ratios_give_constant_field(self, runner, tmp_path):
        out = tmp_path / "c.csv"
        write_spiral(runner, out, 1, 1)
        field = read_field_csv(out.read_text())
        assert float(field.values.max()) == 0.0 == float(field.values.min())

    def test_zero_ratio_exits_2_naming_flag(self, runner, tmp_path):
        result = run(runner, "spiral", "--x", 0, "--y", 1,
                     "--window", "-2:2,-2:2", "--out", tmp_path / "u.csv")
        assert result.exit_code == 2
        assert "--x" in result.output

    def test_missing_required_flag(self, runner, tmp_path):
        result = run(runner, "spiral", "--x", 1.2, "--y", 0.9, "--out", tmp_path / "u.csv")
        assert result.exit_code == 2
        assert "--window" in result.output

    def test_bad_window_syntax(self, runner, tmp_path):
        result = run(runner, "spiral", "--x", 1.2, "--y", 0.9,
                     "--window", "oops", "--out", tmp_path / "u.csv")
        assert result.exit_code == 2


class TestSolveCommand:
    def test_solves_spiral_boundary_from_zero(self, runner, tmp_path):
        src = write_spiral(runner, tmp_path / "u.csv", 1.2, 0.85)
        out = tmp_path / "solved.csv"
        result = run(runner, "solve", "--in", src, "--out", out, "--init", "zero")
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["converged"] is True
        assert report["final_defect"] <= 1e-10
        solved = read_field_csv(out.read_text())
        exact = read_field_csv((tmp_path / "u.csv").read_text())
        gap = float(abs(solved.values - exact.values).max())
        assert gap <= 1e-8

    def test_already_solved_input_is_a_fixed_point(self, runner, tmp_path):
        src = write_spiral(runner, tmp_path / "u.csv", 1.1, 0.95)
        out = tmp_path / "solved.csv"
        result = run(runner, "solve", "--in", src, "--out", out)
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["iterations"] <= 1

    def test_non_convergence_exits_3_with_partial_field(self, runner, tmp_path):
        src = write_spiral(runner, tmp_path / "u.csv", 1.3, 0.8)
        out = tmp_path / "partial.csv"
        result = run(runner, "solve", "--in", src, "--out", out,
                     "--init", "zero", "--max-iter", 1)
        assert result.exit_code == 3
        report = json.loads(result.output)
        assert report["converged"] is False
        assert report["iterations"] == 1
        partial = read_field_csv(out.read_text())
        assert partial.window == Window(-4, 4, -4, 4)

    def test_large_boundary_jump_exits_cleanly(self, runner, tmp_path):
        # neighbor log radii 800 apart: exp of the difference overflows
        src = tmp_path / "jump.csv"
        field = ScalarField.constant(Window(-3, 3, -3, 3), 0.0)
        field[(3, 0)] = 800.0
        src.write_text(write_field_csv(field))
        out = tmp_path / "s.csv"
        result = run(runner, "solve", "--in", src, "--out", out, "--init", "keep")
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["converged"] is True
        for mode in ("gauss-seidel", "newton"):
            for init in ("harmonic", "keep", "zero"):
                result = run(runner, "solve", "--in", src, "--out", out,
                             "--mode", mode, "--init", init)
                assert result.exit_code in (0, 3), (mode, init, result.output)

    def test_missing_input_file(self, runner, tmp_path):
        result = run(runner, "solve", "--in", tmp_path / "nope.csv",
                     "--out", tmp_path / "x.csv")
        assert result.exit_code == 2

    def test_no_interior_vertices_is_an_input_error(self, runner, tmp_path):
        src = write_spiral(runner, tmp_path / "thin.csv", 1.1, 1.0, window="0:5,0:1")
        result = run(runner, "solve", "--in", src, "--out", tmp_path / "x.csv")
        assert result.exit_code == 2
        assert "interior" in result.output


class TestVerifyCommand:
    def test_spiral_diagnostics(self, runner, tmp_path):
        src = write_spiral(runner, tmp_path / "u.csv", 1.2, 0.9)
        result = run(runner, "verify", "--in", src)
        assert result.exit_code == 0
        diag = json.loads(result.output)
        assert diag["classification"] == "spiral"
        assert diag["max_defect"] <= 1e-11
        assert 0.0 < diag["min_eta"] <= diag["max_eta"] < 2.0
        assert diag["max_harmonic_residual"] <= 1e-11
        assert diag["min_d1_ratio"] == pytest.approx(1.2, abs=1e-12)
        assert diag["k1"] == pytest.approx(math.log(1.2), abs=1e-12)
        assert diag["k2"] == pytest.approx(math.log(0.9), abs=1e-12)

    def test_constant_field_is_regular(self, runner, tmp_path):
        src = write_spiral(runner, tmp_path / "c.csv", 1, 1)
        diag = json.loads(run(runner, "verify", "--in", src).output)
        assert diag["classification"] == "regular"
        assert diag["min_d1_ratio"] == pytest.approx(1.0, abs=1e-14)

    def test_perturbed_field_is_other(self, runner, tmp_path):
        src = tmp_path / "u.csv"
        write_spiral(runner, src, 1.1, 0.9)
        field = read_field_csv(src.read_text())
        field[(0, 0)] = field[(0, 0)] + 0.1
        from hexpack.lattice import write_field_csv

        src.write_text(write_field_csv(field))
        diag = json.loads(run(runner, "verify", "--in", src).output)
        assert diag["classification"] == "other"
        assert diag["max_defect"] > 0.0
        assert diag["spread"] > 0.0

    def test_ratio_bound_above_float_range(self, runner, tmp_path):
        # every ratio r(m+1, n) / r(m, n) is exp(800)
        field = ScalarField(Window(0, 1, 0, 1), [[0.0, 800.0], [-800.0, 0.0]])
        src = tmp_path / "u.csv"
        src.write_text(write_field_csv(field))
        result = run(runner, "verify", "--in", src)
        assert result.exit_code == 0
        assert json.loads(result.output)["min_d1_ratio"] == math.inf


class TestRenderCommand:
    def test_regular_field_svg(self, runner, tmp_path):
        src = write_spiral(runner, tmp_path / "c.csv", 1, 1, window="-2:2,-2:2")
        out = tmp_path / "fig.svg"
        result = run(runner, "render", "--in", src, "--out", out)
        assert result.exit_code == 0
        svg = out.read_text()
        assert svg.count("<circle") == 25
        assert svg.count('r="1.0"') == 25

    def test_spiral_field_svg_geometric_radii(self, runner, tmp_path):
        import re

        src = write_spiral(runner, tmp_path / "u.csv", 1.2, 0.9, window="-2:2,-2:2")
        out = tmp_path / "fig.svg"
        assert run(runner, "render", "--in", src, "--out", out).exit_code == 0
        radii = [float(r) for r in re.findall(r'r="([^"]+)"', out.read_text())]
        # 25 circles emitted in (m, n) order: 5 per m-column
        columns = [radii[i * 5: (i + 1) * 5] for i in range(5)]
        for a, b in zip(columns, columns[1:]):
            for ra, rb in zip(a, b):
                assert rb / ra == pytest.approx(1.2, rel=1e-12)

    def test_missing_input_exits_2(self, runner, tmp_path):
        result = run(runner, "render", "--in", tmp_path / "nope.csv",
                     "--out", tmp_path / "fig.svg")
        assert result.exit_code == 2

    def test_unsolved_field_exits_2(self, runner, tmp_path):
        src = tmp_path / "u.csv"
        write_spiral(runner, src, 1.1, 0.9)
        field = read_field_csv(src.read_text())
        field[(0, 0)] = field[(0, 0)] + 0.5
        from hexpack.lattice import write_field_csv

        src.write_text(write_field_csv(field))
        result = run(runner, "render", "--in", src, "--out", tmp_path / "fig.svg")
        assert result.exit_code == 2

    def test_byte_identical_across_runs(self, runner, tmp_path):
        src = write_spiral(runner, tmp_path / "u.csv", 1.15, 0.9, window="-3:3,-3:3")
        out1 = tmp_path / "a.svg"
        out2 = tmp_path / "b.svg"
        run(runner, "render", "--in", src, "--out", out1, "--color-map", "log-radius")
        run(runner, "render", "--in", src, "--out", out2, "--color-map", "log-radius")
        assert out1.read_bytes() == out2.read_bytes()

    def test_base_flag_moves_the_development(self, runner, tmp_path):
        src = write_spiral(runner, tmp_path / "c.csv", 1, 1, window="-2:2,-2:2")
        out_a = tmp_path / "a.svg"
        out_b = tmp_path / "b.svg"
        run(runner, "render", "--in", src, "--out", out_a)
        result = run(runner, "render", "--in", src, "--out", out_b, "--base", "1,1")
        assert result.exit_code == 0
        # different anchor vertex, different circle coordinates
        assert out_a.read_bytes() != out_b.read_bytes()

    def test_residual_color_map(self, runner, tmp_path):
        src = write_spiral(runner, tmp_path / "u.csv", 1.1, 0.95, window="-4:4,-4:4")
        out = tmp_path / "res.svg"
        result = run(runner, "render", "--in", src, "--out", out,
                     "--color-map", "residual")
        assert result.exit_code == 0
        assert out.read_text().count("<circle") == 81


    @pytest.mark.parametrize("value, base", [(0.0, "100,100"), (800.0, None), (-800.0, None),
                                             (-745.0, None), (-740.0, None)])
    def test_undevelopable_input_exits_2(self, runner, tmp_path, value, base):
        # a base vertex outside the window, and radii exp(u) that overflow,
        # underflow to zero or fall in the subnormal range
        src = tmp_path / "c.csv"
        src.write_text(write_field_csv(ScalarField.constant(Window(-4, 4, -4, 4), value)))
        extra = ["--base", base] if base else []
        result = run(runner, "render", "--in", src, "--out", tmp_path / "fig.svg", *extra)
        assert result.exit_code == 2
        assert ("(100, 100)" if base else "(-4, -4)") in result.output


def test_overflowing_tangency_distance_exits_2(runner, tmp_path):
    # every radius exp(709.5) is finite, but the sum of two is not
    src = tmp_path / "c.csv"
    src.write_text(write_field_csv(ScalarField.constant(Window(-4, 4, -4, 4), 709.5)))
    result = run(runner, "render", "--in", src, "--out", tmp_path / "fig.svg")
    assert result.exit_code == 2
    assert "(-4, -4)" in result.output


def test_bounding_box_past_float_range_exits_2(runner, tmp_path):
    # every radius exp(707) and every centre is finite, but the box the
    # circles span is wider than the float range
    src = tmp_path / "c.csv"
    src.write_text(write_field_csv(ScalarField.constant(Window(-4, 4, -4, 4), 707.0)))
    out = tmp_path / "fig.svg"
    result = run(runner, "render", "--in", src, "--out", out)
    assert result.exit_code == 2
    assert "bounding box" in result.output
    assert not out.exists()


@pytest.mark.parametrize("window", ["0:4,0:0", "0:0,-2:2"])
def test_one_row_or_column_window_exits_2(runner, tmp_path, window):
    src = write_spiral(runner, tmp_path / "u.csv", 1.2, 0.9, window=window)
    out = tmp_path / "fig.svg"
    result = run(runner, "render", "--in", src, "--out", out)
    assert result.exit_code == 2
    assert "two rows" in result.output
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "verify", "harmonic", "render", "walk"])
def test_header_claiming_a_huge_window_exits_2(runner, tmp_path, command):
    src = tmp_path / "huge.csv"
    src.write_text("# window 0 9999999999 0 0\n1.0\n")
    out = tmp_path / "out.txt"
    extra = ["--out", out] if command in ("solve", "harmonic", "render") else []
    result = run(runner, command, "--in", src, *extra)
    assert result.exit_code == 2
    assert "row 0 has 1 cells" in result.output
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "verify", "harmonic", "render", "walk"])
def test_values_near_the_float_range_exit_2(runner, tmp_path, command):
    # log radii of +-1e308 overflow the angle kernels' differences
    signs = np.where(np.indices((5, 5)).sum(axis=0) % 2, -1.0, 1.0)
    src = tmp_path / "u.csv"
    src.write_text(write_field_csv(ScalarField(Window(-2, 2, -2, 2), 1e308 * signs)))
    out = tmp_path / "out.txt"
    extra = ["--out", out] if command in ("solve", "harmonic", "render") else []
    result = run(runner, command, "--in", src, *extra)
    assert result.exit_code == 2
    assert "(-2, -2)" in result.output
    assert not out.exists()


@pytest.mark.parametrize("command", ["harmonic", "verify", "walk"])
def test_underflowing_edge_weight_exits_2(runner, tmp_path, command):
    field = ScalarField.constant(Window(-4, 4, -4, 4), 0.0)
    field[(0, 0)] = 4000.0
    src = tmp_path / "u.csv"
    src.write_text(write_field_csv(field))
    extra = ["--out", tmp_path / "w.csv"] if command == "harmonic" else []
    result = run(runner, command, "--in", src, *extra)
    assert result.exit_code == 2
    assert "edge weight on" in result.output


class TestWalkCommand:
    def test_two_step_calibration(self, runner, tmp_path):
        src = write_spiral(runner, tmp_path / "c.csv", 1, 1, window="-5:5,-5:5")
        result = run(runner, "walk", "--in", src, "--start", "0,0",
                     "--steps", 2, "--trials", 100000, "--seed", 1)
        assert result.exit_code == 0
        report = json.loads(result.output)
        sigma = math.sqrt((1 / 6) * (5 / 6) / 100000)
        assert abs(report["frequency"] - 1 / 6) <= 3 * sigma
        assert report["censored"] == 0

    def test_single_step_never_returns(self, runner, tmp_path):
        src = write_spiral(runner, tmp_path / "c.csv", 1, 1, window="-4:4,-4:4")
        report = json.loads(run(runner, "walk", "--in", src, "--steps", 1,
                                "--trials", 2000, "--seed", 3).output)
        assert report["frequency"] == 0.0

    def test_deterministic_output(self, runner, tmp_path):
        src = write_spiral(runner, tmp_path / "c.csv", 1, 1, window="-4:4,-4:4")
        args = ["walk", "--in", src, "--steps", 5, "--trials", 5000, "--seed", 11]
        out1 = run(runner, *args).output
        out2 = run(runner, *args).output
        assert out1 == out2

    def test_start_outside_window(self, runner, tmp_path):
        src = write_spiral(runner, tmp_path / "c.csv", 1, 1, window="-2:2,-2:2")
        result = run(runner, "walk", "--in", src, "--start", "9,9", "--steps", 2)
        assert result.exit_code == 2

    def test_negative_seed_exits_2(self, runner, tmp_path):
        src = write_spiral(runner, tmp_path / "c.csv", 1, 1, window="-2:2,-2:2")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -5}))
        for extra in (["--seed", -5], ["--config", cfg]):
            result = run(runner, "walk", "--in", src, "--steps", 2, *extra)
            assert result.exit_code == 2
            assert "--seed" in result.output


@pytest.mark.parametrize("command", ["spiral", "harmonic"])
def test_unwritable_out_exits_2(runner, tmp_path, command):
    src = write_spiral(runner, tmp_path / "c.csv", 1, 1, window="-2:2,-2:2")
    args = (["--in", src] if command == "harmonic"
            else ["--x", 1, "--y", 1, "--window", "-2:2,-2:2"])
    for out in (tmp_path, tmp_path / "missing" / "out.csv"):
        result = run(runner, command, *args, "--out", out)
        assert result.exit_code == 2
        assert str(out) in result.output


class TestHarmonicCommand:
    def test_weights_csv(self, runner, tmp_path):
        src = write_spiral(runner, tmp_path / "c.csv", 1, 1, window="-3:3,-3:3")
        out = tmp_path / "weights.csv"
        result = run(runner, "harmonic", "--in", src, "--out", out)
        assert result.exit_code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "m1,n1,m2,n2,eta"
        assert len(lines) > 1
        for line in lines[1:]:
            assert float(line.split(",")[-1]) == pytest.approx(1 / math.sqrt(3), abs=1e-13)


class TestConfigFile:
    def test_config_supplies_values(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "u.csv"
        cfg.write_text(json.dumps({
            "r0": 1.0, "x": 1.2, "y": 0.9,
            "window": "-3:3,-3:3", "out": str(out),
        }))
        result = run(runner, "spiral", "--config", cfg)
        assert result.exit_code == 0
        assert read_field_csv(out.read_text()).window == Window(-3, 3, -3, 3)

    def test_flags_override_config(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "u.csv"
        cfg.write_text(json.dumps({
            "r0": 1.0, "x": 5.0, "y": 0.9,
            "window": "-2:2,-2:2", "out": str(out),
        }))
        result = run(runner, "spiral", "--config", cfg, "--x", 1.5)
        assert result.exit_code == 0
        field = read_field_csv(out.read_text())
        assert field[(1, 0)] - field[(0, 0)] == pytest.approx(math.log(1.5), abs=1e-12)

    def test_unknown_key_rejected(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"x": 1.2, "speed": 9}))
        result = run(runner, "spiral", "--config", cfg, "--y", 1.0,
                     "--window", "-2:2,-2:2", "--out", tmp_path / "u.csv")
        assert result.exit_code == 2
        assert "speed" in result.output

    def test_config_on_solve_command(self, runner, tmp_path):
        src = write_spiral(runner, tmp_path / "u.csv", 1.15, 0.9)
        out = tmp_path / "solved.csv"
        cfg = tmp_path / "solve.json"
        cfg.write_text(json.dumps({
            "in_path": str(src), "out": str(out),
            "tol": 1e-9, "mode": "newton", "init": "zero",
        }))
        result = run(runner, "solve", "--config", cfg)
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["converged"] is True
        assert report["final_defect"] <= 1e-9

    def test_config_rejects_bad_json(self, runner, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        result = run(runner, "spiral", "--config", cfg)
        assert result.exit_code == 2

    def test_config_values_of_the_wrong_json_type_rejected(self, runner, tmp_path):
        flags = {"x": 1.2, "y": 0.9, "window": "-2:2,-2:2", "out": "u.csv"}
        with runner.isolated_filesystem(temp_dir=tmp_path):
            for key, value in (("x", None), ("x", [1]), ("out", None), ("window", {"m": 1})):
                Path("cfg.json").write_text(json.dumps({key: value}))
                args = [a for k, v in flags.items() if k != key for a in (f"--{k}", v)]
                result = run(runner, "spiral", "--config", "cfg.json", *args)
                assert result.exit_code == 2
                assert repr(key) in result.output
            assert not Path("None").exists()
            assert not Path("u.csv").exists()

    def test_fractional_integer_values_rejected(self, runner, tmp_path):
        src = write_spiral(runner, tmp_path / "u.csv", 1.2, 0.9)
        for command, key, value, extra in (
            ("walk", "steps", 2.7, []),
            ("solve", "max_iter", 1e300, ["--out", tmp_path / "s.csv"]),
        ):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: value}))
            result = run(runner, command, "--in", src, "--config", cfg, *extra)
            assert result.exit_code == 2
            assert repr(key) in result.output
        assert not (tmp_path / "s.csv").exists()


class TestGroupOptions:
    def test_help_lists_flags_and_defaults(self, runner):
        result = run(runner, "solve", "--help")
        assert result.exit_code == 0
        for flag in ("--in", "--out", "--tol", "--max-iter", "--mode", "--init", "--config"):
            assert flag in result.output
        assert "1e-10" in result.output
        assert "gauss-seidel" in result.output

    def test_invalid_option_objects_exit_2(self, runner, tmp_path):
        src = write_spiral(runner, tmp_path / "u.csv", 1.1, 1.0, window="-3:3,-3:3")
        assert run(runner, "verify", "--in", src, "--order", 1).exit_code == 2
        assert run(runner, "solve", "--in", src, "--out", tmp_path / "s.csv",
                   "--max-iter", 0).exit_code == 2
        assert run(runner, "solve", "--in", src, "--out", tmp_path / "s.csv",
                   "--mode", "jacobi").exit_code == 2
        assert run(runner, "render", "--in", src, "--out", tmp_path / "f.svg",
                   "--stroke-width", 0).exit_code == 2

    def test_order_is_capped_at_1024(self, runner, tmp_path):
        src = write_spiral(runner, tmp_path / "u.csv", 1.1, 1.0, window="-2:2,-2:2")
        assert run(runner, "verify", "--in", src, "--order", 1024).exit_code == 0
        for command, extra in (("verify", []), ("walk", []),
                               ("harmonic", ["--out", tmp_path / "w.csv"]),
                               ("render", ["--out", tmp_path / "f.svg"])):
            result = run(runner, command, "--in", src, "--order", 1025, *extra)
            assert result.exit_code == 2
            assert "--order" in result.output


# scipy serves only the solver's sparse factor, so it loads on the first
# solve and not before.  Each check runs in a fresh interpreter, because
# this one has long since loaded scipy.
SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code, cwd):
    result = subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True,
                            text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def _jumps_between_neighbors():
    rng = np.random.default_rng(4)
    width = int(rng.integers(4, 6))
    amplitude = rng.uniform(800, 2000)
    values = rng.uniform(-amplitude, amplitude, size=(width, width))
    return ScalarField(Window(0, width - 1, 0, width - 1), values)


def _random_boundary(h, amplitude, seed):
    values = np.random.default_rng([h, amplitude, seed]).uniform(
        -amplitude, amplitude, size=(2 * h + 1, 2 * h + 1))
    return ScalarField(Window(-h, h, -h, h), values)


@pytest.mark.parametrize("field", [
    # jumps of ~1400 between neighbors: a colour solve's Newton step f/slope
    # overflows where the slope is near 0, and bisection takes over
    pytest.param(_jumps_between_neighbors, id="colour-step-overflow"),
    # a Newton step of ~1e308 overflows its slope along the step
    pytest.param(lambda: _random_boundary(2, 1500, 34), id="slope-overflow"),
    # an infinite Newton step makes its slope NaN
    pytest.param(lambda: _random_boundary(3, 300, 15), id="slope-nan"),
    # after an accepted step to |u| ~ 1e60, log radii ~1e19 apart overflow a face partial
    pytest.param(lambda: _random_boundary(3, 1500, 24), id="partial-overflow"),
])
def test_solve_writes_nothing_to_stderr(tmp_path, field):
    src = tmp_path / "u.csv"
    src.write_text(write_field_csv(field()))
    result = subprocess.run(
        [sys.executable, "-W", "default", "-m", "hexpack.cli", "solve", "--in", str(src),
         "--out", str(tmp_path / "s.csv"), "--init", "keep"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert result.returncode == 0
    assert json.loads(result.stdout)["converged"] is True
    assert result.stderr == ""


@pytest.mark.parametrize("window, expected", [
    (Window(0, 0, 0, 0), dict.fromkeys([
        "max_defect", "min_eta", "max_eta", "max_harmonic_residual", "min_d1_ratio",
        "classification", "k1", "k2", "spread"])),
    (Window(0, 2, 0, 2), {
        "max_defect": 0.0, "min_eta": 0.5660686433932378, "max_eta": 0.5741691568875003,
        "max_harmonic_residual": None, "min_d1_ratio": 1.2, "classification": "spiral",
        "k1": 0.1823215567939546, "k2": -0.16251892949777494, "spread": None}),
    (Window(0, 6, 0, 0), {
        "max_defect": None, "min_eta": None, "max_eta": None, "max_harmonic_residual": None,
        "min_d1_ratio": 1.2, "classification": None, "k1": None, "k2": None, "spread": None}),
])
def test_verify_without_residuals_prints_null(tmp_path, window, expected):
    # windows too small for a harmonic residual, and two for any edge weight
    src = tmp_path / "u.csv"
    src.write_text(write_field_csv(spiral_field(SpiralParams(1.0, 1.2, 0.85), window)))
    result = subprocess.run(
        [sys.executable, "-W", "error", "-m", "hexpack.cli", "verify", "--in", str(src)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    diag = json.loads(result.stdout)
    assert list(diag) == list(expected)
    assert diag == {k: v if v is None or isinstance(v, str) else pytest.approx(v, rel=1e-12)
                    for k, v in expected.items()}


class TestScipyLoadsOnlyToSolve:
    def test_import_leaves_scipy_unloaded(self, tmp_path):
        code = ("import json, sys\nimport hexpack, hexpack.cli\n"
                "print(json.dumps([hexpack.__file__, 'scipy' in sys.modules]))")
        path, loaded = run_fresh(code, tmp_path)
        assert Path(path).resolve().parent == SRC / "hexpack"
        assert not loaded

    def test_only_solve_loads_scipy(self, tmp_path):
        code = textwrap.dedent("""\
            import json, sys
            from click.testing import CliRunner
            from hexpack.cli import main
            runner, steps = CliRunner(), []
            for args in (
                    "spiral --r0 1 --x 1.2 --y 0.9 --window -4:4,-4:4 --out u.csv",
                    "verify --in u.csv --order 8",
                    "harmonic --in u.csv --out w.csv --order 8",
                    "render --in u.csv --out f.svg --color-map d1u --order 8",
                    "walk --in u.csv --steps 2 --trials 100 --seed 1 --order 8",
                    "solve --in u.csv --out s.csv --init zero"):
                result = runner.invoke(main, args.split())
                steps.append([args.split()[0], result.exit_code, "scipy" in sys.modules])
            print(json.dumps(steps))
        """)
        steps = run_fresh(code, tmp_path)
        assert [name for name, _, _ in steps] == [
            "spiral", "verify", "harmonic", "render", "walk", "solve"]
        assert all(status == 0 for _, status, _ in steps), steps
        assert [loaded for _, _, loaded in steps] == [False] * 5 + [True]


# Fuzzed CLI contract: every command exits 0, 2 or 3 and raises nothing but
# SystemExit.  Sizes stay small so that the examples run in seconds:
# --order <= 64 or the bound 1024 and 1025 past it, --steps <= 5, --trials
# <= 100, --max-iter <= 50, windows up to 7x7.  Valid values come first:
# hypothesis draws and shrinks towards them, so that the examples reach the
# commands' work, not only their checks.
FUZZ_FLOATS = st.sampled_from(
    ["1", "0.5", "1.2", "1e-12", "0", "-1", "inf", "-inf", "nan", "x"])
FUZZ_WINDOWS = st.sampled_from(
    ["-2:2,-2:2", "0:3,-1:1", "0:0,0:0", "3:1,0:2", "a:b,0:1", "1,2", ""])
FUZZ_VERTICES = st.sampled_from(["0,0", "1,1", "9,9", "-1,0", "a", "1,2,3", ""])
FUZZ_OUTS = st.one_of(st.just("out.txt"), st.sampled_from([".", "missing/out.txt"]))
FUZZ_INS = st.one_of(st.just("u.csv"), st.sampled_from(["missing.csv", "."]))


def fuzz_ints(low, high):
    return st.one_of(st.integers(low, high), st.integers(-3, high)).map(str)


FUZZ_ORDERS = st.one_of(fuzz_ints(2, 64), st.sampled_from(["1024", "1025"]))


FUZZ_FLAGS = {
    "spiral": {"--r0": FUZZ_FLOATS, "--x": FUZZ_FLOATS, "--y": FUZZ_FLOATS,
               "--window": FUZZ_WINDOWS, "--out": FUZZ_OUTS},
    "solve": {"--in": FUZZ_INS, "--out": FUZZ_OUTS, "--tol": FUZZ_FLOATS,
              "--max-iter": fuzz_ints(1, 50),
              "--mode": st.sampled_from(["gauss-seidel", "newton", "jacobi"]),
              "--init": st.sampled_from(["harmonic", "keep", "zero", "none"])},
    "verify": {"--in": FUZZ_INS, "--order": FUZZ_ORDERS, "--tol": FUZZ_FLOATS},
    "harmonic": {"--in": FUZZ_INS, "--out": FUZZ_OUTS, "--order": FUZZ_ORDERS},
    "render": {"--in": FUZZ_INS, "--out": FUZZ_OUTS, "--stroke-width": FUZZ_FLOATS,
               "--color-map": st.sampled_from(["uniform", "log-radius", "d1u", "residual", "x"]),
               "--padding": FUZZ_FLOATS, "--base": FUZZ_VERTICES, "--order": FUZZ_ORDERS},
    "walk": {"--in": FUZZ_INS, "--start": FUZZ_VERTICES, "--steps": fuzz_ints(0, 5),
             "--trials": fuzz_ints(1, 100), "--seed": fuzz_ints(0, 10),
             "--order": FUZZ_ORDERS},
}
FUZZ_CONFIG_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 5), st.floats(-10, 10),
    st.sampled_from([math.inf, -math.inf, math.nan]),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
FUZZ_FIELD_VALUES = st.one_of(
    st.sampled_from([0.0, 3.0, -3.0, 800.0, -800.0, 1e300, -1e300, 1e308, -1e308,
                     sys.float_info.max, -sys.float_info.max]), st.floats(-3, 3))


@st.composite
def fuzzed_fields(draw):
    m_count, n_count = (draw(st.sampled_from([5, 7, 3, 2, 1])) for _ in range(2))
    m_min, n_min = (draw(st.sampled_from([-2, -3, -4, -1, 0])) for _ in range(2))
    window = Window(m_min, m_min + m_count - 1, n_min, n_min + n_count - 1)
    size = m_count * n_count
    values = draw(st.one_of(FUZZ_FIELD_VALUES.map(lambda value: [value] * size),
                            st.lists(FUZZ_FIELD_VALUES, min_size=size, max_size=size)))
    return ScalarField(window, np.reshape(values, (n_count, m_count)))


def config_key(flag):
    return "in_path" if flag == "--in" else flag[2:].replace("-", "_")


@given(command=st.sampled_from(sorted(FUZZ_FLAGS)), field=fuzzed_fields(), data=st.data())
@settings(max_examples=100, derandomize=True, deadline=None)
def test_fuzzed_cli_exits_0_2_or_3(command, field, data):
    args, config = [command], {}
    for flag, values in FUZZ_FLAGS[command].items():
        source = data.draw(st.sampled_from(["flag", "flag", "flag", "config", "absent"]))
        if source == "flag":
            args += [flag, data.draw(values)]
        elif source == "config":
            config[config_key(flag)] = data.draw(st.one_of(values, values, FUZZ_CONFIG_VALUES))
    if data.draw(st.sampled_from([False, False, False, True])):
        config.update(data.draw(st.dictionaries(st.just("speed"), FUZZ_CONFIG_VALUES)))
    runner = CliRunner()
    with runner.isolated_filesystem():
        Path("u.csv").write_text(write_field_csv(field))
        if config:
            Path("cfg.json").write_text(json.dumps(config))
            args += ["--config", "cfg.json"]
        result = runner.invoke(main, args, catch_exceptions=True)
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        args, config, repr(result.exception))
    assert result.exit_code in (0, 2, 3), (args, config, result.output)
