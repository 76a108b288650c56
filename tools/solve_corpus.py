"""Solve a fixed corpus of random boundaries with one or two hexpack source
trees, and compare the solve reports.

    python tools/solve_corpus.py PARENT [CHANGE]

The corpus has 150 solves: half-widths h = 2-6, amplitudes A in {20, 100,
300, 700, 1500}, seeds 1 and 2, and each of the three inits.  The field of
(h, A, seed) is ``default_rng([h, A, seed]).uniform(-A, A, (2h + 1, 2h +
1))`` on the window -h..h x -h..h, and ``solve_patch`` solves it in the
default Newton mode with ``max_iterations=3000``.  Each tree runs in its
own interpreter with ``PYTHONPATH=<tree>/src``.

One line per solve gives, for each tree: converged or not, iterations,
the fallback taken, the exact steps taken (the linear solves whose
conjugate gradients miss) and seconds.  A totals line per tree follows,
and with two trees the solves whose convergence, iterations, fallback or
exact steps differ.  Exits 1 when a solve that converges with the first
tree does not converge with the second.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

HALF_WIDTHS = (2, 3, 4, 5, 6)
AMPLITUDES = (20, 100, 300, 700, 1500)
SEEDS = (1, 2)
INITS = ("harmonic", "keep", "zero")

# Runs in the tree's interpreter: one JSON line per solve, [converged,
# iterations, fallback, exact steps, seconds].
SOLVES = """if True:
    import json, sys, time
    import numpy as np
    from hexpack import solver
    from hexpack.lattice import ScalarField, Window

    misses, pcg = [], solver._pcg

    def counted(*args):
        x = pcg(*args)
        misses.append(x is None)  # None sends the linear solve to the exact step
        return x

    solver._pcg = counted
    for h, amplitude, seed, init in json.loads(sys.argv[1]):
        values = np.random.default_rng([h, amplitude, seed]).uniform(
            -amplitude, amplitude, (2 * h + 1, 2 * h + 1))
        u0 = ScalarField(Window(-h, h, -h, h), values)
        misses.clear()
        start = time.perf_counter()
        try:
            _, report = solver.solve_patch(
                u0, solver.SolveOptions(init=init, max_iterations=3000))
        except solver.NonConvergence as exc:
            report = exc.report
        print(json.dumps([report.converged, report.iterations, report.fallback,
                          sum(misses), time.perf_counter() - start]), flush=True)
"""


def run(tree: Path, corpus: list[tuple]) -> list[list]:
    """The reports of the corpus's solves with ``tree``'s package."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-c", SOLVES, json.dumps(corpus)], env=env,
                          capture_output=True, text=True, check=True)
    return [json.loads(line) for line in proc.stdout.splitlines()]


def cells(result: list) -> str:
    converged, iterations, fallback, exact, seconds = result
    return (f"{'converged' if converged else 'NOT converged'} {iterations:5d} it, "
            f"fallback {fallback or '-'}, {exact} exact, {seconds:.3f} s")


def totals(results: list[list]) -> str:
    return (f"{sum(r[0] for r in results)}/{len(results)} converged, "
            f"{sum(r[1] for r in results)} iterations, "
            f"{sum(r[2] is not None for r in results)} with a fallback, "
            f"{sum(r[3] for r in results)} exact steps, {sum(r[4] for r in results):.1f} s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Solve the random-boundary corpus.")
    parser.add_argument("trees", type=Path, nargs="+", metavar="TREE",
                        help="source tree holding src/hexpack (one or two)")
    args = parser.parse_args(argv)
    if len(args.trees) > 2:
        parser.error("give one or two trees")
    trees = [tree.resolve() for tree in args.trees]
    for tree in trees:
        if not (tree / "src" / "hexpack").is_dir():
            parser.error(f"{tree} holds no src/hexpack")
    corpus = list(itertools.product(HALF_WIDTHS, AMPLITUDES, SEEDS, INITS))
    results = [run(tree, corpus) for tree in trees]
    labels = [f"h={h} A={a} seed={s} {init}" for h, a, s, init in corpus]
    for label, *row in zip(labels, *results):
        print(f"{label:28s}" + " | ".join(cells(r) for r in row))
    for name, result in zip(("parent", "change"), results):
        print(f"total, {name}: {totals(result)}")
    if len(results) < 2:
        return 0
    differ = [(label, old, new) for label, old, new in zip(labels, *results)
              if old[:4] != new[:4]]
    print(f"{len(differ)} solves differ")
    for label, old, new in differ:
        print(f"  {label}: {cells(old)} -> {cells(new)}")
    lost = [label for label, old, new in differ if old[0] and not new[0]]
    if lost:
        print(f"converged with the first tree only: {', '.join(lost)}")
    return 1 if lost else 0


if __name__ == "__main__":
    sys.exit(main())
