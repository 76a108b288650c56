"""Check that two hexpack source trees give byte-identical CLI outputs on
the benchmark's inputs.

    python tools/same_outputs.py PARENT CHANGE

For each workload of ``perfbench/workloads.py`` and seeds 1-3, the case
that ``make_case`` draws is built in a fresh directory per tree, and its
commands run one by one as ``python -m hexpack.cli ...`` with
``PYTHONPATH=<tree>/src``.  Commands that no workload runs follow: a
``render --base`` at the window's upper right corner, a ``render
--color-map d1u --base`` at its upper left corner, and on the
``readme-gs`` window (larger ones take minutes) a ``solve --mode
gauss-seidel``.  The "exact step" case solves three inputs whose
conjugate gradients miss, so that each solve takes the exact step: the
7x7 boundary of log radii 0 and +-300 of
``test_newton_resumes_after_a_gauss_seidel_fallback``, from its harmonic
start, and with ``--init keep`` two 4x4 fields, one whose exact step
finds the Hessian singular and the finite climbing step of
``TestNewtonWithoutAStep``; all three then fall back to Gauss-Seidel
sweeps.  The "large window"
case runs ``solve``, ``render``, ``render --color-map residual`` and
``harmonic`` on the 201x201 window of the spiral x = 1.001, y = 0.999
with uniform +-1 noise on its bottom row and a zero interior, so that
the SVGs span more than one block of circles.  The "noisy weights" case
solves ``random-81`` seed 1's boundary, then runs ``harmonic``,
``verify``, ``walk`` and ``render --color-map residual`` on the solved
field: none of its faces has a short step, so every weight takes the
Gauss-Legendre sum, which the spiral workloads never reach.  The "input
errors" case writes a 5x5 spiral, then runs 13 invocations that exit 2
on their input:
a missing field CSV (``solve``, ``render``), a ``nan`` cell (``verify``,
``walk``), a window without interior (``solve``), ``--max-iter 0``, a
``--start`` (``walk``) and a ``--base`` (``render``) outside the window,
a negative ``--stroke-width``, an unwritable ``--out`` (``harmonic``), a
missing ``--in`` and a missing ``--config`` file.  One more case runs
``--help`` and each command's ``--help``.  The exit codes, stdout and
stderr (with the directory's path replaced) and every file left in the
directory must be equal byte for byte.  Prints one line per case and
exits 1 on any difference.  An output whose two versions differ only in
their numbers (the same text between them and as many numbers) gets one
more line with the largest absolute and relative difference of those
numbers.  A closing line gives each tree's ``src/`` line count (the
lines of its ``.py`` files); it does not change the exit status.
``perfbench/`` is only imported, never written to.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path

import numpy as np

sys.dont_write_bytecode = True  # leaves no __pycache__ under perfbench/
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

SEEDS = (1, 2, 3)
COMMANDS = ("spiral", "solve", "verify", "harmonic", "render", "walk")
NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
# The boundary log radii, in units of 300, of a 7x7 window in vertex order
# (n, then m), and two 4x4 fields, row i at n = i: the exact-step inputs.
BOUNDARY_300 = (0, 1, 1, -1, -1, -1, 0, 1, 1, 1, 1, 0, 1, -1, -1, 0, 0, 0, 0, 1, 0, 0, 0, -1)
FIELDS_4X4 = (((500, 0, -500, 1000), (1000, 500, -500, 0), (0, -1000, -1000, 0),
               (0, -500, -500, -1000)),
              ((1000, 0, -500, 500), (500, -1000, -1000, -500), (500, -1000, -1000, 1000),
               (-500, 1000, 500, 0)))
LARGE_HALF_WIDTH = 100


def numeric_difference(old: bytes, new: bytes) -> tuple[float, float] | None:
    """The largest absolute and relative difference between the numbers of
    two outputs that differ in nothing else, else None.  The relative
    difference of two numbers is taken against the larger magnitude."""
    old_text, new_text = NUMBER.split(old), NUMBER.split(new)
    if old_text != new_text:  # also unequal when the counts of numbers differ
        return None
    a = [float(x) for x in NUMBER.findall(old)]
    b = [float(x) for x in NUMBER.findall(new)]
    diffs = [(abs(x - y), abs(x - y) / max(abs(x), abs(y))) for x, y in zip(a, b) if x != y]
    return max((d for d, _ in diffs), default=0.0), max((r for _, r in diffs), default=0.0)


def outputs(tree: Path, work: Path, steps: list[tuple[str, list[str]]]) -> dict[str, bytes]:
    """What the named commands print and write in ``work`` with ``tree``'s
    package."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    here = os.fsencode(work)
    out = {}
    for name, args in steps:
        proc = subprocess.run([sys.executable, "-m", "hexpack.cli", *args],
                              cwd=work, env=env, capture_output=True)
        out[f"{name} exit code"] = str(proc.returncode).encode()
        out[f"{name} stdout"] = proc.stdout.replace(here, b"<work>")
        out[f"{name} stderr"] = proc.stderr.replace(here, b"<work>")
    for path in sorted(work.rglob("*")):
        if path.is_file():
            out[f"file {path.relative_to(work)}"] = path.read_bytes()
    return out


def case_outputs(tree: Path, workload: str, seed: int) -> dict[str, bytes]:
    """One case's commands, then the ones no workload runs."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        case = workloads.make_case(workload, seed, work)
        steps = [(step.name, step.args) for step in case.steps]
        solve = next(args for name, args in steps if name == "solve")
        source, solved = (solve[solve.index(flag) + 1] for flag in ("--in", "--out"))
        half = workloads.HALF_WIDTH[workload]
        steps.append(("render --base", ["render", "--in", solved, "--out", "corner.svg",
                                        "--base", f"{half},{half}"]))
        steps.append(("render --color-map d1u", ["render", "--in", solved, "--out", "d1u.svg",
                                                 "--color-map", "d1u",
                                                 "--base", f"-{half},{half}"]))
        if workload == "readme-gs":
            steps.append(("solve --mode gauss-seidel",
                          ["solve", "--in", source, "--out", "gauss-seidel.csv",
                           "--mode", "gauss-seidel", "--init", "zero"]))
        return outputs(tree, work, steps)


def field_csv(corners: tuple[int, int, int, int], rows) -> str:
    """A field CSV with these window corners (m_min, m_max, n_min, n_max)
    and ``rows[i]`` at n = n_min + i."""
    return ("# window %d %d %d %d\n" % corners
            + "".join(",".join(map(str, row)) + "\n" for row in reversed(rows)))


def exact_step_outputs(tree: Path) -> dict[str, bytes]:
    """Solves that take the exact step."""
    boundary = iter(BOUNDARY_300)
    rows = [[300 * next(boundary) if i in (0, 6) or j in (0, 6) else 0 for j in range(7)]
            for i in range(7)]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "boundary.csv").write_text(field_csv((-3, 3, -3, 3), rows))
        steps = [("solve boundary", ["solve", "--in", "boundary.csv", "--out", "s1.csv"])]
        for k, field in enumerate(FIELDS_4X4, 2):
            (work / f"field{k}.csv").write_text(field_csv((0, 3, 0, 3), field))
            steps.append((f"solve --init keep field{k}",
                          ["solve", "--in", f"field{k}.csv", "--out", f"s{k}.csv",
                           "--init", "keep"]))
        return outputs(tree, work, steps)


def large_window_outputs(tree: Path) -> dict[str, bytes]:
    """The commands whose arrays and SVG grow with the window, at 201x201."""
    half = LARGE_HALF_WIDTH
    values = workloads.spiral_values(1.001, 0.999, half)
    values[0] += np.random.default_rng(0).uniform(-1.0, 1.0, 2 * half + 1)
    values[1:-1, 1:-1] = 0.0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        workloads.write_field(work / "boundary.csv", values, half)
        steps = [("solve", ["solve", "--in", "boundary.csv", "--out", "solved.csv"]),
                 ("render", ["render", "--in", "solved.csv", "--out", "fig.svg"]),
                 ("render --color-map residual",
                  ["render", "--in", "solved.csv", "--out", "residual.svg",
                   "--color-map", "residual"]),
                 ("harmonic", ["harmonic", "--in", "solved.csv", "--out", "weights.csv"])]
        return outputs(tree, work, steps)


def noisy_weights_outputs(tree: Path) -> dict[str, bytes]:
    """The weight commands on a solved random boundary, whose faces are all
    long."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        case = workloads.make_case("random-81", 1, work)
        solve = next(step.args for step in case.steps if step.name == "solve")
        solved = solve[solve.index("--out") + 1]
        steps = [("solve", solve),
                 ("harmonic", ["harmonic", "--in", solved, "--out", "weights.csv"]),
                 ("verify", ["verify", "--in", solved]),
                 ("walk", ["walk", "--in", solved, "--start", "0,0", "--steps", "100",
                           "--trials", "10000", "--seed", "1"]),
                 ("render --color-map residual",
                  ["render", "--in", solved, "--out", "residual.svg",
                   "--color-map", "residual"])]
        return outputs(tree, work, steps)


def input_error_outputs(tree: Path) -> dict[str, bytes]:
    """Invocations that exit 2 on their input, across the field commands."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "nan.csv").write_text(field_csv((0, 2, 0, 2), [[0, 0, 0], [0, "nan", 0],
                                                               [0, 0, 0]]))
        (work / "row.csv").write_text(field_csv((0, 2, 0, 0), [[0, 0, 0]]))
        steps = [("spiral", ["spiral", "--x", "1.2", "--y", "0.85", "--window", "-2:2,-2:2",
                             "--out", "u.csv"]),
                 ("solve missing file", ["solve", "--in", "missing.csv", "--out", "s.csv"]),
                 ("render missing file", ["render", "--in", "missing.csv", "--out", "f.svg"]),
                 ("verify nan cell", ["verify", "--in", "nan.csv"]),
                 ("walk nan cell", ["walk", "--in", "nan.csv"]),
                 ("solve no interior", ["solve", "--in", "row.csv", "--out", "s.csv"]),
                 ("solve --max-iter 0", ["solve", "--in", "u.csv", "--out", "s.csv",
                                         "--max-iter", "0"]),
                 ("walk --start outside", ["walk", "--in", "u.csv", "--start", "3,0"]),
                 ("render --base outside", ["render", "--in", "u.csv", "--out", "f.svg",
                                            "--base", "0,-3"]),
                 ("render --stroke-width", ["render", "--in", "u.csv", "--out", "f.svg",
                                            "--stroke-width", "-1"]),
                 ("harmonic unwritable --out", ["harmonic", "--in", "u.csv",
                                                "--out", "nowhere/w.csv"]),
                 ("harmonic missing --in", ["harmonic", "--out", "w.csv"]),
                 ("verify missing --config", ["verify", "--in", "u.csv",
                                              "--config", "missing.json"])]
        return outputs(tree, work, steps)


def help_outputs(tree: Path) -> dict[str, bytes]:
    """``--help`` and each command's ``--help``."""
    with tempfile.TemporaryDirectory() as tmp:
        steps = [("--help", ["--help"]), *((f"{c} --help", [c, "--help"]) for c in COMMANDS)]
        return outputs(tree, Path(tmp), steps)


def src_lines(tree: Path) -> int:
    """The number of lines of the ``.py`` files under ``tree``'s ``src/``."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src").rglob("*.py"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Compare the CLI outputs of two source trees.")
    parser.add_argument("parent", type=Path, help="source tree holding src/hexpack")
    parser.add_argument("change", type=Path, help="source tree holding src/hexpack")
    args = parser.parse_args(argv)
    trees = [tree.resolve() for tree in (args.parent, args.change)]
    for tree in trees:
        if not (tree / "src" / "hexpack").is_dir():
            parser.error(f"{tree} holds no src/hexpack")
    cases = [(f"{workload} seed {seed}", partial(case_outputs, workload=workload, seed=seed))
             for workload in workloads.HALF_WIDTH for seed in SEEDS]
    differing = 0
    for label, run in [*cases, ("exact step", exact_step_outputs),
                       ("large window", large_window_outputs),
                       ("noisy weights", noisy_weights_outputs),
                       ("input errors", input_error_outputs), ("--help", help_outputs)]:
        old, new = (run(tree) for tree in trees)
        diff = sorted(key for key in old.keys() | new.keys() if old.get(key) != new.get(key))
        differing += bool(diff)
        verdict = f"differ: {', '.join(diff)}" if diff else f"same, {len(old)} outputs"
        print(f"{label}: {verdict}", flush=True)
        for key in diff:
            numeric = numeric_difference(old.get(key, b""), new.get(key, b""))
            if numeric is not None:
                print(f"  {key}: numbers only, largest difference {numeric[0]:.3g} absolute, "
                      f"{numeric[1]:.3g} relative", flush=True)
    print(f"src/ lines: parent {src_lines(trees[0])}, change {src_lines(trees[1])}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
