"""Workloads of the hexpack benchmark: the seeded input of a run, the CLI
command sequence of one pipeline, and the checks on every command's output.

A run draws one input from its seed and repeats that input's pipeline for
as long as the run lasts, so repeats must give identical outputs.  Every
check recomputes what it needs with numpy from the files the CLI wrote; no
check compares bits across commits, because a vectorized rewrite may move
the last bits of a result.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi

# `solve --tol` default, the largest angle defect a solved field may keep.
SOLVE_TOL = 1e-10
# Our own six-angle sum rounds differently from the solver's; a few ulp of
# 2*pi, far below SOLVE_TOL.
DEFECT_SLACK = 1e-13
# Distance allowed between a field solved from a spiral boundary and the
# generating spiral, and between verify's k1/k2 and ln x / ln y.
SPIRAL_TOL = 1e-8
# Exact-formula comparisons (generated field, SVG radii) across commits.
FORMULA_RTOL = 1e-12

# Half-widths of the square windows; the self-check and the untimed warm-up
# shrink them.
HALF_WIDTH = {"readme-gs": 10, "spiral-61": 30, "random-81": 40}
TINY_HALF_WIDTH = 4


class CheckFailed(Exception):
    """A command's output is wrong."""


@dataclass
class Step:
    """One CLI command of a pipeline and the check on its output."""

    name: str
    args: list[str]
    check: Callable[[str], None]


@dataclass
class Case:
    """The seeded input of one run and the pipeline that processes it."""

    params: dict
    steps: list[Step] = field(default_factory=list)
    # Outputs of the first repeat, which later repeats must reproduce.
    first_outputs: dict = field(default_factory=dict)

    def same_as_first(self, key: str, value) -> None:
        first = self.first_outputs.setdefault(key, value)
        if value != first:
            raise CheckFailed(f"{key} differs from the first repeat of this input")


def window_arg(half: int) -> str:
    return f"{-half}:{half},{-half}:{half}"


# --- numpy reference computations -------------------------------------------

def read_field(path: Path) -> np.ndarray:
    """Field CSV as an array indexed [n - n_min, m - m_min]."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if header[:2] != ["#", "window"]:
            raise CheckFailed(f"{path.name}: no window header")
        m_min, m_max, n_min, n_max = (int(x) for x in header[2:6])
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    if rows.shape != (n_max - n_min + 1, m_max - m_min + 1):
        raise CheckFailed(f"{path.name}: shape {rows.shape} does not match its header")
    return rows[::-1]


def write_field(path: Path, values: np.ndarray, half: int) -> None:
    """Write a field in the CLI's CSV format (rows from n_max down)."""
    lines = [f"# window {-half} {half} {-half} {half}"]
    lines += [",".join(f"{x:.16e}" for x in row) for row in values[::-1]]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def max_angle_defect(u: np.ndarray) -> float:
    """Largest |2*pi - angle sum| over the interior, in the half-angle form
    theta = 2 atan(exp((x1 + x2 - log(1 + e^x1 + e^x2)) / 2))."""
    c = u[1:-1, 1:-1]
    # Neighbours (1,0), (0,1), (-1,1), (-1,0), (0,-1), (1,-1), counterclockwise.
    ring = [u[1:-1, 2:], u[2:, 1:-1], u[2:, :-2], u[1:-1, :-2], u[:-2, 1:-1], u[:-2, 2:]]
    total = np.zeros_like(c)
    for k in range(6):
        x1 = ring[k] - c
        x2 = ring[(k + 1) % 6] - c
        ell = np.logaddexp(0.0, np.logaddexp(x1, x2))
        total += 2.0 * np.arctan(np.exp(0.5 * (x1 + x2 - ell)))
    return float(np.max(np.abs(TWO_PI - total)))


def spiral_values(x: float, y: float, half: int) -> np.ndarray:
    """ln r0 + m ln x + n ln y with r0 = 1, indexed [n, m]."""
    idx = np.arange(-half, half + 1, dtype=float)
    return math.log(x) * idx[None, :] + math.log(y) * idx[:, None]


def expected_edge_count(half: int) -> int:
    """Edges whose two faces and their m-translates fit in the window: for
    an M x N window, E edges need m+2 and n+-1 inside, NE edges m-1 and m+2,
    NW edges m-1 and m+1."""
    m = n = 2 * half + 1
    return (m - 2) * (n - 2) + (m - 3) * (n - 1) + (m - 2) * (n - 1)


# --- checks --------------------------------------------------------------------

def check_close(name: str, got: np.ndarray, want: np.ndarray, atol: float) -> None:
    err = float(np.max(np.abs(got - want)))
    if not err <= atol:
        raise CheckFailed(f"{name}: off by {err:.3e} (allowed {atol:.0e})")


def formula_atol(values: np.ndarray) -> float:
    return FORMULA_RTOL * max(1.0, float(np.abs(values).max()))


def check_field_written(path: Path, want: np.ndarray) -> Callable[[str], None]:
    def check(_stdout: str) -> None:
        check_close(path.name, read_field(path), want, formula_atol(want))
    return check


def check_solve(out: Path, given: np.ndarray, spiral: np.ndarray | None) -> Callable[[str], None]:
    """Report converged, defect within tolerance by our own count, boundary
    kept, and, for spiral boundaries, the generating spiral recovered."""
    def check(stdout: str) -> None:
        report = json.loads(stdout)
        if report.get("converged") is not True:
            raise CheckFailed(f"solve did not converge: {report}")
        u = read_field(out)
        defect = max_angle_defect(u)
        if not defect <= SOLVE_TOL + DEFECT_SLACK:
            raise CheckFailed(f"solved field keeps angle defect {defect:.3e}")
        inner = np.ones(u.shape, dtype=bool)
        inner[1:-1, 1:-1] = False
        check_close("solved boundary", u[inner], given[inner], formula_atol(given))
        if spiral is not None:
            check_close("solved field vs spiral", u, spiral, SPIRAL_TOL)
    return check


def check_verify(x: float, y: float) -> Callable[[str], None]:
    def check(stdout: str) -> None:
        diag = json.loads(stdout)
        if diag.get("classification") != "spiral":
            raise CheckFailed(f"verify classified the field as {diag.get('classification')!r}")
        for key, want in (("k1", math.log(x)), ("k2", math.log(y))):
            if not abs(diag[key] - want) <= SPIRAL_TOL:
                raise CheckFailed(f"verify {key}={diag[key]!r}, want {want!r}")
        if not diag["max_defect"] <= SOLVE_TOL + DEFECT_SLACK:
            raise CheckFailed(f"verify max_defect {diag['max_defect']!r}")
    return check


def check_weights(path: Path, half: int) -> Callable[[str], None]:
    def check(_stdout: str) -> None:
        lines = path.read_text(encoding="utf-8").splitlines()
        if lines[0] != "m1,n1,m2,n2,eta":
            raise CheckFailed(f"{path.name}: header {lines[0]!r}")
        etas = np.array([float(line.rsplit(",", 1)[1]) for line in lines[1:]])
        want = expected_edge_count(half)
        if len(etas) != want:
            raise CheckFailed(f"{path.name}: {len(etas)} edges, want {want}")
        if not (np.all(etas > 0.0) and np.all(etas < 2.0)):
            raise CheckFailed(f"{path.name}: eta outside (0, 2)")
    return check


_RADIUS = re.compile(r'<circle [^>]*\br="([^"]+)"')


def check_svg(case: Case, path: Path, solved: Path) -> Callable[[str], None]:
    """One circle per window vertex, in vertex order (m, then n), with
    r = exp(u); the bytes repeat exactly within a run."""
    def check(_stdout: str) -> None:
        data = path.read_bytes()
        case.same_as_first("svg", data)
        radii = np.array([float(r) for r in _RADIUS.findall(data.decode("utf-8"))])
        want = np.exp(read_field(solved).T.ravel())
        if radii.shape != want.shape:
            raise CheckFailed(f"{path.name}: {radii.size} circles, want {want.size}")
        err = float(np.max(np.abs(radii / want - 1.0)))
        if not err <= FORMULA_RTOL:
            raise CheckFailed(f"{path.name}: radius off exp(u) by {err:.3e} (relative)")
    return check


def check_walk(case: Case, trials: int) -> Callable[[str], None]:
    def check(stdout: str) -> None:
        case.same_as_first("walk", stdout)
        rep = json.loads(stdout)
        if rep["trials"] != trials or rep["returned"] + rep["censored"] > trials:
            raise CheckFailed(f"walk report inconsistent: {rep}")
        if not 0.0 <= rep["frequency"] <= 1.0:
            raise CheckFailed(f"walk frequency {rep['frequency']!r}")
    return check


# --- workloads -----------------------------------------------------------------

def _spiral_case(workload: str, rng: np.random.Generator, work: Path, half: int) -> Case:
    x = float(rng.uniform(1.15, 1.25))
    y = float(rng.uniform(0.80, 0.90))
    case = Case({"window": window_arg(half), "x": x, "y": y})
    spiral = spiral_values(x, y, half)
    u, solved, weights, svg = (str(work / f)
                               for f in ("u.csv", "solved.csv", "weights.csv", "packing.svg"))
    win = window_arg(half)
    if workload == "readme-gs":
        # The README's sequence, verbatim but for the drawn x and y.
        solve_args = ["--init", "zero"]
        color_map = "log-radius"
        walk_args = ["--in", u, "--start", "0,0", "--steps", "2", "--trials", "100000",
                     "--seed", "1"]
        trials = 100000
    else:
        solve_args = ["--mode", "newton", "--init", "zero"]
        color_map = "residual"
        walk_seed = int(rng.integers(0, 2**31))
        case.params["walk_seed"] = walk_seed
        walk_args = ["--in", solved, "--start", "0,0", "--steps", "100", "--trials", "10000",
                     "--seed", str(walk_seed)]
        trials = 10000
    case.steps = [
        Step("spiral", ["spiral", "--r0", "1", "--x", repr(x), "--y", repr(y), "--window", win,
                        "--out", u], check_field_written(Path(u), spiral)),
        Step("solve", ["solve", "--in", u, "--out", solved, *solve_args],
             check_solve(Path(solved), spiral, spiral)),
        Step("verify", ["verify", "--in", solved], check_verify(x, y)),
        Step("harmonic", ["harmonic", "--in", solved, "--out", weights],
             check_weights(Path(weights), half)),
        Step("render", ["render", "--in", solved, "--out", svg, "--color-map", color_map],
             check_svg(case, Path(svg), Path(solved))),
        Step("walk", ["walk", *walk_args], check_walk(case, trials)),
    ]
    return case


def _random_case(rng: np.random.Generator, work: Path, half: int) -> Case:
    amplitude = float(rng.uniform(2.0, 10.0))
    size = 2 * half + 1
    given = rng.uniform(-amplitude, amplitude, size=(size, size))
    given[1:-1, 1:-1] = 0.0
    boundary, solved, svg = (work / f for f in ("boundary.csv", "solved.csv", "packing.svg"))
    write_field(boundary, given, half)
    case = Case({"window": window_arg(half), "A": amplitude})
    case.steps = [
        Step("solve", ["solve", "--in", str(boundary), "--out", str(solved), "--mode", "newton"],
             check_solve(solved, given, None)),
        Step("render", ["render", "--in", str(solved), "--out", str(svg),
                        "--color-map", "log-radius"], check_svg(case, svg, solved)),
    ]
    return case


def make_case(workload: str, seed: int, work: Path, half: int | None = None) -> Case:
    """The input a run with this seed processes, written under ``work``."""
    rng = np.random.default_rng([seed, list(HALF_WIDTH).index(workload)])
    half = HALF_WIDTH[workload] if half is None else half
    if workload == "random-81":
        return _random_case(rng, work, half)
    return _spiral_case(workload, rng, work, half)
