"""Peak resident memory of each hexpack command, one process per command.

    python tools/peak_memory.py TREE [TREE] [--half H ...]

For each half-width H (default 200 and 400, the 401x401 and 801x801
windows) and each tree, in a fresh directory, the pipeline runs one
command at a time as ``python -m hexpack.cli ...`` with
``PYTHONPATH=<tree>/src`` and BLAS and OpenMP on one thread:

    spiral --x 1.001 --y 0.999 --window -H:H,-H:H --out u.csv
    solve --in u.csv --out s.csv
    verify --in s.csv
    harmonic --in s.csv --out w.csv
    render --in s.csv --out f.svg
    walk --in s.csv
    walk --in s.csv --steps 2 --trials 1000000

Each child's peak resident set is ``ru_maxrss`` from ``os.wait4``, in MB
of 2**20 bytes, as the benchmark's ``peak_rss_mb``.  The second walk,
of a million trials, shows the memory that grows with the trials.
Prints one line per window and command (``walk-1e6`` for the second
walk), with each tree's peak, wall time and exit code (a nonzero exit
code makes the tool exit 1).  The 801x801 ``harmonic`` of
older trees holds about 0.5 GB, so the machine needs that much free.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def pipeline(half: int) -> list[tuple[str, list[str]]]:
    """The commands run at half-width ``half``, in order."""
    return [("spiral", ["spiral", "--x", "1.001", "--y", "0.999",
                        "--window", f"-{half}:{half},-{half}:{half}", "--out", "u.csv"]),
            ("solve", ["solve", "--in", "u.csv", "--out", "s.csv"]),
            ("verify", ["verify", "--in", "s.csv"]),
            ("harmonic", ["harmonic", "--in", "s.csv", "--out", "w.csv"]),
            ("render", ["render", "--in", "s.csv", "--out", "f.svg"]),
            ("walk", ["walk", "--in", "s.csv"]),
            ("walk-1e6", ["walk", "--in", "s.csv", "--steps", "2", "--trials", "1000000"])]


def measure(tree: Path, half: int) -> list[dict]:
    """Peak resident set, wall time and exit code of each command of
    ``pipeline(half)``, run with ``tree``'s package in a fresh directory."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **dict.fromkeys(THREAD_VARS, "1"))
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in pipeline(half):
            start = time.perf_counter()
            child = subprocess.Popen([sys.executable, "-m", "hexpack.cli", *args], cwd=tmp,
                                     env=env, stdout=subprocess.DEVNULL)
            _, status, usage = os.wait4(child.pid, 0)
            records.append({"window": f"{2 * half + 1}x{2 * half + 1}", "command": name,
                            "exit_code": os.waitstatus_to_exitcode(status),
                            "peak_rss_mb": round(usage.ru_maxrss / 1024.0, 1),
                            "wall_s": round(time.perf_counter() - start, 3)})
            child.returncode = records[-1]["exit_code"]  # reaped by wait4, not by Popen
    return records


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Peak memory of each hexpack command.")
    parser.add_argument("trees", type=Path, nargs="+", help="source trees holding src/hexpack")
    parser.add_argument("--half", type=int, nargs="+", default=[200, 400],
                        help="half-widths of the square windows")
    args = parser.parse_args(argv)
    trees = [tree.resolve() for tree in args.trees]
    if len(trees) > 2:
        parser.error("give one or two trees")
    for tree in trees:
        if not (tree / "src" / "hexpack").is_dir():
            parser.error(f"{tree} holds no src/hexpack")
    failed = False
    for half in args.half:
        for by_tree in zip(*(measure(tree, half) for tree in trees)):
            cells = "  ".join(f"{r['peak_rss_mb']:7.1f} MB {r['wall_s']:6.2f} s "
                              f"exit {r['exit_code']}" for r in by_tree)
            print(f"{by_tree[0]['window']:>9} {by_tree[0]['command']:<9} {cells}", flush=True)
            failed = failed or any(r["exit_code"] for r in by_tree)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
