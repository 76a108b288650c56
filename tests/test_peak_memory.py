"""``tools/peak_memory.py`` on this tree at half-width 3: every command of
its pipeline exits 0 on the 7x7 window, one row each.  It runs in a fresh
interpreter, as ``tests/test_solve_corpus.py`` runs its tool."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_one_row_per_command_at_half_3():
    code = f"""if True:
        import sys
        from peak_memory import main
        sys.exit(main([{str(ROOT)!r}, "--half", "3"]))
    """
    result = subprocess.run([sys.executable, "-c", code], cwd=ROOT / "tools",
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    rows = [line.split() for line in result.stdout.splitlines()]
    assert [row[:2] for row in rows] == [
        ["7x7", command] for command in
        ["spiral", "solve", "verify", "harmonic", "render", "walk", "walk-1e6"]]
    assert all(row[-2:] == ["exit", "0"] for row in rows)
