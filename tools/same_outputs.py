"""Check that two hexpack source trees give byte-identical CLI outputs on
the benchmark's inputs.

    python tools/same_outputs.py PARENT CHANGE

For each workload of ``perfbench/workloads.py`` and seeds 1-3, the case
that ``make_case`` draws is built in a fresh directory per tree, and its
commands run one by one as ``python -m hexpack.cli ...`` with
``PYTHONPATH=<tree>/src``.  The exit codes, stdout and stderr (with the
directory's path replaced) and every file left in the directory must be
equal byte for byte.  Prints one line per case and exits 1 on any
difference.  ``perfbench/`` is only imported, never written to.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # leaves no __pycache__ under perfbench/
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

SEEDS = (1, 2, 3)


def outputs(tree: Path, workload: str, seed: int) -> dict[str, bytes]:
    """What one case's commands print and write with ``tree``'s package."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        case = workloads.make_case(workload, seed, work)
        here = os.fsencode(work)
        out = {}
        for step in case.steps:
            proc = subprocess.run([sys.executable, "-m", "hexpack.cli", *step.args],
                                  cwd=work, env=env, capture_output=True)
            out[f"{step.name} exit code"] = str(proc.returncode).encode()
            out[f"{step.name} stdout"] = proc.stdout.replace(here, b"<work>")
            out[f"{step.name} stderr"] = proc.stderr.replace(here, b"<work>")
        for path in sorted(work.rglob("*")):
            if path.is_file():
                out[f"file {path.relative_to(work)}"] = path.read_bytes()
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Compare the CLI outputs of two source trees.")
    parser.add_argument("parent", type=Path, help="source tree holding src/hexpack")
    parser.add_argument("change", type=Path, help="source tree holding src/hexpack")
    args = parser.parse_args(argv)
    trees = [tree.resolve() for tree in (args.parent, args.change)]
    for tree in trees:
        if not (tree / "src" / "hexpack").is_dir():
            parser.error(f"{tree} holds no src/hexpack")
    differing = 0
    for workload in workloads.HALF_WIDTH:
        for seed in SEEDS:
            old, new = (outputs(tree, workload, seed) for tree in trees)
            diff = sorted(key for key in old.keys() | new.keys() if old.get(key) != new.get(key))
            differing += bool(diff)
            verdict = f"differ: {', '.join(diff)}" if diff else f"same, {len(old)} outputs"
            print(f"{workload} seed {seed}: {verdict}", flush=True)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
