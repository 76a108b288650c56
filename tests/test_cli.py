"""End-to-end CLI behavior: flags, config files, exit codes, and output
formats."""

import json
import math

import pytest
from click.testing import CliRunner

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


    @pytest.mark.parametrize("value, base", [(0.0, "100,100"), (800.0, None), (-800.0, None)])
    def test_undevelopable_input_exits_2(self, runner, tmp_path, value, base):
        # a base vertex outside the window, and radii exp(u) that overflow
        # or underflow to zero
        src = tmp_path / "c.csv"
        src.write_text(write_field_csv(ScalarField.constant(Window(-4, 4, -4, 4), value)))
        extra = ["--base", base] if base else []
        result = run(runner, "render", "--in", src, "--out", tmp_path / "fig.svg", *extra)
        assert result.exit_code == 2
        assert ("(100, 100)" if base else "(-4, -4)") in result.output


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
