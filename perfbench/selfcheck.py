"""Quick self-check of the benchmark: every workload once at a tiny window,
untraced and traced.  Fails unless every metric that BENCHMARK.json names
is emitted, with its unit and a finite value, and every output check passes.

    python3 perfbench/selfcheck.py
"""

import json
import math
import sys

import run
import workloads

SEED = 1


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(workloads.HALF_WIDTH):
        problems.append(f"BENCHMARK.json workloads {names} != {sorted(workloads.HALF_WIDTH)}")
    for workload in names:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result, detail = run.run(workload, SEED, 0, trace, workloads.TINY_HALF_WIDTH)
            where = f"{workload} --trace {trace}"
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} "
                                f"commands failed: {detail['failures']}")
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = result["metrics"]
            for name, unit in want.items():
                if name not in got:
                    problems.append(f"{where}: {name} not emitted")
                elif got[name]["unit"] != unit:
                    problems.append(f"{where}: {name} in {got[name]['unit']}, want {unit}")
                elif not math.isfinite(got[name]["value"]):
                    problems.append(f"{where}: {name} = {got[name]['value']}")
            for name in sorted(set(got) - set(want)):
                problems.append(f"{where}: {name} emitted but not in BENCHMARK.json")
            print(f"{where}: {result['attempted']} commands, {len(got)} metrics", flush=True)
    for line in problems:
        print(f"selfcheck: {line}", file=sys.stderr)
    print("selfcheck: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
