"""``tools/solve_corpus.py`` on two windows of its corpus: every solve
converges, and two runs of one tree give the same reports.  It runs in a
fresh interpreter, as the tool's solves do."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_two_windows_converge_alike_twice():
    code = f"""if True:
        import json
        from pathlib import Path
        from solve_corpus import run
        corpus = [(2, 20, 1, "harmonic"), (3, 100, 2, "keep")]
        tree = Path({str(ROOT)!r})
        print(json.dumps([run(tree, corpus), run(tree, corpus)]))
    """
    result = subprocess.run([sys.executable, "-c", code], cwd=ROOT / "tools",
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    first, second = json.loads(result.stdout)
    assert len(first) == 2 and all(report[0] for report in first)
    # All but the seconds: converged, iterations, fallback, exact steps.
    assert [r[:4] for r in first] == [r[:4] for r in second]
