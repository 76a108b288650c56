"""The numeric companion of ``tools/same_outputs.py``: outputs that differ
only in their numbers get the largest absolute and relative difference.
It runs in a fresh interpreter, because importing the tool turns off
bytecode writing for the whole process."""

import json
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_numeric_difference():
    code = """if True:
        import json
        from same_outputs import numeric_difference
        print(json.dumps([numeric_difference(a.encode(), b.encode()) for a, b in [
            ("r=2.0e-3,x=-1\\n", "r=2.5e-3,x=-1\\n"),
            ("1,2,4", "1,2.5,3"),
            ("-0.0 1", "0.0 1.0"),
            ("a 1 b", "a 1 c"),
            ("a 1 b", "a 1 2 b"),
        ]]))
    """
    result = subprocess.run([sys.executable, "-c", code], cwd=TOOLS, capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [[5e-4, 0.2], [1.0, 0.25], [0.0, 0.0], None, None]
