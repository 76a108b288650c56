"""hexpack benchmark: the hexpack CLI as its users run it, one command at a
time, each issued after the previous one returns (a closed loop with one
client).  Commands run in-process through click's CliRunner on field CSVs
generated from --seed, so argument parsing and CSV I/O are timed too.

    python3 perfbench/run.py --workload readme-gs --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a hexpack source tree; it imports the package
from the tree's ``src`` directory.  A run draws one input from the seed and
repeats its pipeline until the next repeat would end after --seconds.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; attempted and failed count CLI
commands, and a command fails when it exits non-zero or its output fails
a check.  With --trace 0 the metrics are the end-to-end ones, untraced;
with --trace 1 each repeat runs untraced and then traced, and the metrics
are the per-layer ones.  The environment, the drawn parameters, the sample
counts and the spans are written under .perfbench_out/ in the tree.
"""

import os

# Pinned before numpy loads, and inherited by the set-up subprocesses.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from importlib.metadata import PackageNotFoundError, version  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"

# Cold `import hexpack.cli` interpreters timed per run, after one that only
# fills the bytecode cache.
SETUP_REPEATS = 5
# Fewest repeats of the pipeline per run, whatever --seconds says.
MIN_REPEATS = {0: 3, 1: 1}

END_TO_END_UNITS = {"pipeline_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Commands timed one by one: per-layer metrics, because a command shorter
# than a second lands in one speed phase of a shared machine, and because
# not every workload runs every command.
COMMANDS = ("solve", "verify", "harmonic", "render", "walk")
# Per-layer metrics and their units; the ones drawn from spans come from
# spans.Tracer.layer_metrics.
PER_LAYER_UNITS = {
    **{f"cmd.{name}_s": "s" for name in COMMANDS},
    "trace.overhead_s": "s", "cli.self_s": "s",
    **{f"{layer}.share_pct": "%" for layer in spans.LAYERS},
    **{f"{layer}.{name}_{suffix}": unit
       for layer, names in spans.WRAPPED.items() for name in names
       for suffix, unit in (("s", "s"), ("calls", "count"))},
    "lattice.csv_bytes": "bytes", "render.svg_bytes": "bytes",
    "solver.iterations": "count", "solver.vertex_updates": "count",
    "harmonic.edges": "count", "harmonic.walk_steps": "count",
    "geometry.quadrature_points": "count", "layout.circles": "count",
    "solver.us_per_vertex_update": "us", "harmonic.us_per_edge": "us",
    "harmonic.ns_per_walk_step": "ns", "geometry.points_per_call": "count",
    "layout.us_per_circle": "us",
}


class Pipeline:
    """Runs a case's commands in order and checks their outputs."""

    def __init__(self, cli, case: workloads.Case) -> None:
        from click.testing import CliRunner

        self.cli = cli
        self.case = case
        self.runner = CliRunner()
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, tracer: spans.Tracer | None = None) -> tuple[float, dict]:
        """One pass; returns its wall time and the time of each command.
        Output checks run after the clock stops."""
        times, results = {}, []
        start = time.perf_counter()
        for step in self.case.steps:
            t0 = time.perf_counter()
            if tracer is None:
                result = self.runner.invoke(self.cli, step.args)
            else:
                with tracer.span(f"cli.{step.name}"):
                    result = self.runner.invoke(self.cli, step.args)
            times[step.name] = time.perf_counter() - t0
            results.append(result)
        wall = time.perf_counter() - start
        for step, result in zip(self.case.steps, results):
            self.attempted += 1
            if result.exit_code != 0:
                self.failures.append(f"{step.name} exited {result.exit_code}: "
                                     f"{result.output.strip()[-300:]}")
                continue
            try:
                step.check(result.stdout)
            except Exception as exc:  # any defect in an output is a failed command
                self.failures.append(f"{step.name}: {type(exc).__name__}: {exc}")
        return wall, times


def measure_setup() -> list[float]:
    """Wall times of cold interpreters running `import hexpack.cli`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import hexpack.cli"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=120)
        if i:
            times.append(time.perf_counter() - t0)
    return times


def summary(values: list[float]) -> dict:
    """Median, sample count, and the highest of the 50/90/95/99th
    percentiles that has at least ten samples beyond it (None if none)."""
    tail = None
    for p in (99, 95, 90, 50):
        if len(values) * (100 - p) / 100 >= 10:
            tail = {"p": p, "value": statistics.quantiles(values, n=100)[p - 1]}
            break
    return {"n": len(values), "median": statistics.median(values), "tail": tail,
            "samples": values}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(case: workloads.Case, **run_args) -> dict:
    def pkg(name: str) -> str:
        try:
            return version(name)
        except PackageNotFoundError:
            return "unknown"

    return {
        "python": platform.python_version(),
        **{name: pkg(name) for name in ("numpy", "scipy", "click")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        **run_args, "params": case.params,
    }


def import_cli():
    """hexpack's click group, imported from this tree's sources."""
    if not (SRC / "hexpack" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no hexpack sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import hexpack
    import hexpack.cli

    if Path(hexpack.__file__).resolve().parent != SRC / "hexpack":
        raise SystemExit(f"perfbench: imported hexpack from {hexpack.__file__}, not {SRC}")
    return hexpack.cli.main


def run(workload: str, seed: int, seconds: float, trace: int,
        half: int | None = None) -> tuple[dict, dict]:
    """One benchmark run.  Returns the result object and a detail record
    (environment, sample summaries, failures, spans)."""
    cli = import_cli()
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR))
    try:
        setup = measure_setup() if trace == 0 else []
        # Untimed pass at a tiny window: lazy imports and caches fill here.
        warm = work / "warm"
        warm.mkdir()
        Pipeline(cli, workloads.make_case(workload, seed, warm, workloads.TINY_HALF_WIDTH)).run()

        case = workloads.make_case(workload, seed, work, half)
        pipeline = Pipeline(cli, case)
        tracer = spans.Tracer() if trace else None
        walls, cmd_times, traced_walls, layer_samples = [], {}, [], []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            wall, times = pipeline.run()
            walls.append(wall)
            for name, value in times.items():
                cmd_times.setdefault(name, []).append(value)
            if tracer is not None:
                tracer.start_input(f"{workload}:{seed}:{len(walls)}")
                with tracer.installed():
                    traced_wall, _ = pipeline.run(tracer)
                traced_walls.append(traced_wall)
                layer_samples.append(tracer.layer_metrics(traced_wall))
            repeat = time.perf_counter() - t0
            if (len(walls) >= MIN_REPEATS[trace]
                    and time.perf_counter() - start + repeat > seconds):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    timings = {"pipeline_s": summary(walls),
               **{f"{name}_s": summary(v) for name, v in cmd_times.items()}}
    if trace == 0:
        timings["setup_s"] = summary(setup)
        values = {
            "pipeline_s": timings["pipeline_s"]["median"],
            "setup_s": timings["setup_s"]["median"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    else:
        timings["traced_pipeline_s"] = summary(traced_walls)
        values = {name: statistics.median(s[name] for s in layer_samples)
                  for name in set(layer_samples[0]).intersection(*layer_samples[1:])}
        values["trace.overhead_s"] = statistics.median(
            t - u for t, u in zip(traced_walls, walls))
        # Commands a workload does not run read zero.
        for name in COMMANDS:
            values[f"cmd.{name}_s"] = timings.get(f"{name}_s", {"median": 0.0})["median"]
        units = PER_LAYER_UNITS
    failed = len(pipeline.failures)
    result = {
        "correct": failed == 0,
        "attempted": pipeline.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }
    detail = {"environment": environment(case, workload=workload, seed=seed,
                                         seconds=seconds, trace=trace),
              "timings": timings,
              "failures": pipeline.failures[:20]}
    if tracer is not None:
        detail["missing"] = sorted(tracer.missing | tracer.absent)
        detail["layer_samples"] = layer_samples
        detail["tracer"] = tracer
    return result, detail


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.HALF_WIDTH))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    result, detail = run(args.workload, args.seed, args.seconds, args.trace)
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = detail.pop("tracer", None)
    if tracer is not None:
        tracer.write(stem.with_suffix(".spans.jsonl"))
    stem.with_suffix(".json").write_text(
        json.dumps({**detail, "result": result}, indent=1) + "\n", encoding="utf-8")
    for line in detail["failures"]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    if detail.get("missing"):
        print(f"perfbench: absent, not found in hexpack: {', '.join(detail['missing'])}",
              file=sys.stderr)
    print("# environment " + json.dumps(detail["environment"]))
    print("# timings " + json.dumps(detail["timings"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
