"""bellhv benchmark: four CLI workloads, end-to-end metrics, traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {fit,chsh,bounds,cli_short} \
        --seed N --seconds S --trace {0,1}

The program is run from source (`src/` on PYTHONPATH), as `bellhv.cli.main`
in fresh interpreters, one command at a time: a closed loop with a single
client.  Outputs are checked against `tests/_frozen.py` and closed-form
limits (see workloads.py).

--trace 0 measures end-to-end metrics with tracing off.  Ops run back to
back for about --seconds, each preceded by one fresh-interpreter
`import bellhv.cli`.  `wall_s` is the median op wall time, from launching an
op's first interpreter to its last checked output; `setup_s` is the median
import time (at least seven samples).

--trace 1 runs one op untraced and two traced, with spans recorded around
every layer's public functions (layers.py).  It reports per-layer metrics
from the first traced op, the tracing overhead, whether traced outputs are
byte-identical to untraced ones, and whether the exact work counts repeat
between the two traced ops.

The last line of stdout is one JSON object: correct, attempted, failed
(commands whose exit code or output check failed) and metrics.  Everything a
run produces goes under `.perfbench/` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import runpy
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from workloads import WORKLOADS, replay_counts  # noqa: E402

SETUP_SAMPLES = 7
TRACED_OPS = 2

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
FIGURE_UNITS = {
    "fail_frac": "ratio",
    "pairs_per_s": "pairs/s",
    "fit_residual": "1",
    "curve_max_err": "1",
    "bound_gap": "1",
}
IMPORT_MODULES = {"import.scipy_optimize_s": "scipy.optimize", "import.numpy_s": "numpy"}

# per-layer metrics read from the spans: span name -> columns reported
SPAN_COLUMNS = {
    "cli.main": ("calls", "busy_s", "self_s"),
    "malusfit.fit": ("busy_s",),
    "malusfit.residual": ("calls", "busy_s", "failed"),
    "optimize.minimize": ("calls", "self_s"),
    "transmission.normalized_pair_curve": ("calls", "busy_s"),
    "transmission.pair_transmission": ("calls", "busy_s", "self_s"),
    "transmission.profile": ("calls", "busy_s"),
    "quadrature.integrate": ("calls", "busy_s", "self_s", "failed"),
    "angles.validate": ("calls", "busy_s"),
    "montecarlo.run_pairs": ("calls", "busy_s", "self_s"),
    "montecarlo.expected_coincidence": ("calls", "busy_s"),
    "rng.generator": ("calls", "busy_s"),
    "bell.search_bound": ("calls", "busy_s", "self_s"),
    "bell.max_expectation": ("busy_s",),
    "bell.bb_dagger_expectation": ("busy_s",),
    "linalg.eigen": ("calls", "busy_s"),
    "linalg.numerical_radius": ("calls", "busy_s", "self_s"),
}
COUNTER_METRICS = (
    "optimize.iterations",
    "transmission.profile.points",
    "montecarlo.run_pairs.pairs",
    "bell.iterations",
    "linalg.eigen.n3",
)


@dataclass
class Op:
    """One run of a workload's commands, with checks applied."""

    wall_s: float
    records: list
    failures: list
    figures: dict
    out: Path
    counters: dict
    span_files: list

    @property
    def failed(self):
        return sum(
            record["rc"] != 0 or failure is not None
            for record, failure in zip(self.records, self.failures)
        )


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_op(workload, seed, op_dir, root, trace):
    out = op_dir / "out"
    out.mkdir(parents=True)
    env = child_env(root)
    records, counters, span_files = [], {}, []
    start = time.perf_counter()
    for index, commands in enumerate(workload.processes(seed, out)):
        result = op_dir / f"proc{index}"
        spec = {"commands": commands, "trace": bool(trace), "result": str(result)}
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)], cwd=root, env=env
        )
        done = Path(f"{result}.json")
        if proc.returncode != 0 or not done.is_file():
            code = proc.returncode or 1
            records += [{"argv": c, "rc": code, "seconds": 0.0, "stdout": ""} for c in commands]
            continue
        document = json.loads(done.read_text(encoding="utf-8"))
        records += document["commands"]
        for key, value in document.get("counters", {}).items():
            counters[key] = counters.get(key, 0) + value
        if trace:
            span_files.append(f"{result}.npz")
    frozen = runpy.run_path(str(root / "tests" / "_frozen.py"))
    failures, figures = workload.check(out, records, frozen)
    wall_s = time.perf_counter() - start
    return Op(wall_s, records, failures, figures, out, counters, span_files)


def import_seconds(root, samples):
    """Fresh-interpreter times from launch until `import bellhv.cli` returns."""
    code = "import bellhv.cli, time; print(repr(time.perf_counter()))"
    env = child_env(root)
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True,
            check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]) - start)
    return times


def import_breakdown(root):
    """import.* metrics from one `-X importtime` interpreter."""
    code = "import sys; sys.stderr.write('MARK\\n'); import bellhv.cli"
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code], cwd=root, env=child_env(root),
        capture_output=True, text=True, check=True,
    )
    lines = done.stderr.splitlines()
    lines = lines[lines.index("MARK") + 1 :]
    metrics = {name: 0.0 for name in IMPORT_MODULES}
    total = bellhv_self = 0.0
    for line in lines:
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cumulative_us, module = line[len("import time:") :].split("|")
        module = module.strip()
        total += int(self_us) / 1e6
        if module == "bellhv" or module.startswith("bellhv."):
            bellhv_self += int(self_us) / 1e6
        for name, target in IMPORT_MODULES.items():
            if module == target and metrics[name] == 0.0:
                metrics[name] = int(cumulative_us) / 1e6
    metrics["import.total_s"] = total
    metrics["import.bellhv_self_s"] = bellhv_self
    return metrics


def environment(seed):
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ}
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads or f"OpenBLAS default ({os.cpu_count()})",
        "loadavg_at_start": os.getloadavg(),
    }


def output_hashes(out):
    """sha256 of every data file an op wrote; manifests carry a timestamp."""
    return {
        str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file() and not path.name.endswith(".manifest.json")
    }


def exact_counts(op, summary):
    counts = {f"{name}.calls": entry["calls"] for name, entry in summary.items()}
    counts.update(op.counters)
    return counts


def layer_metrics(op, summary):
    metrics = {}
    for span, columns in SPAN_COLUMNS.items():
        for column in columns:
            metrics[f"{span}.{column}"] = summary.get(span, {}).get(column, 0)
    for name in COUNTER_METRICS:
        metrics[name] = op.counters.get(name, 0)
    profile_calls = metrics["transmission.profile.calls"]
    metrics["transmission.profile.points_per_call"] = (
        metrics["transmission.profile.points"] / profile_calls if profile_calls else 0.0
    )
    metrics["cli.bytes_written"] = sum(p.stat().st_size for p in op.out.rglob("*") if p.is_file())
    replays = [replay_counts(r["stdout"]) for r in op.records if r["argv"][0] == "replay"]
    metrics["cli.replay.files_checked"] = sum(checked for checked, _ in replays)
    metrics["cli.replay.mismatches"] = sum(bad for _, bad in replays)
    return metrics


def measure(workload, seed, seconds, root, work):
    """End-to-end metrics with tracing off."""
    # The machine's speed drifts over seconds, so set-up samples are spread
    # between ops rather than taken in one burst.
    setup, ops = [], []
    start = time.perf_counter()
    while True:
        setup += import_seconds(root, 1)
        ops.append(run_op(workload, seed, work / f"op{len(ops)}", root, False))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(setup) + statistics.median(op.wall_s for op in ops) > seconds:
            break
    setup += import_seconds(root, max(0, SETUP_SAMPLES - len(setup)))
    metrics = {
        "wall_s": statistics.median(op.wall_s for op in ops),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    units = dict(END_TO_END_UNITS)
    return ops, metrics, units, {"setup_samples_s": setup}, []


def measure_traced(workload, seed, root, work):
    """Per-layer metrics: one untraced op, then two traced ops, same inputs."""
    plain = run_op(workload, seed, work / "untraced", root, False)
    traced = [run_op(workload, seed, work / f"traced{i}", root, True) for i in range(TRACED_OPS)]
    summaries = [layers.summarize(op.span_files) for op in traced]
    counts = [exact_counts(op, s) for op, s in zip(traced, summaries)]
    hashes = [output_hashes(op.out) for op in [plain] + traced]

    identical = all(h == hashes[0] for h in hashes[1:])
    repeat = all(c == counts[0] for c in counts[1:])
    problems = []
    if not identical:
        problems.append("traced outputs differ from untraced outputs")
    if not repeat:
        differing = sorted(k for k in counts[0].keys() | counts[1].keys()
                           if counts[0].get(k) != counts[1].get(k))
        problems.append(f"work counts differ between traced runs: {differing}")

    metrics = import_breakdown(root)
    metrics.update(layer_metrics(traced[0], summaries[0]))
    metrics["montecarlo.pairs_per_s"] = plain.figures.get("pairs_per_s", 0.0)
    metrics["trace.overhead_s"] = traced[0].wall_s - plain.wall_s
    metrics["trace.outputs_identical"] = int(identical)
    metrics["trace.counts_repeat"] = int(repeat)
    units = {name: unit_of(name) for name in metrics}
    extra = {"exact_counts": counts[0], "untraced_wall_s": plain.wall_s,
             "traced_wall_s": [op.wall_s for op in traced]}
    return [plain] + traced, metrics, units, extra, problems


def unit_of(name):
    if name == "montecarlo.pairs_per_s":
        return "pairs/s"
    if name.endswith("_s"):
        return "s"
    if name == "cli.bytes_written":
        return "B"
    if name == "transmission.profile.points_per_call":
        return "points/call"
    if name in ("trace.outputs_identical", "trace.counts_repeat"):
        return "bool"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = Path.cwd()
    for needed in ("src/bellhv/cli.py", "tests/_frozen.py"):
        if not (root / needed).is_file():
            print(f"error: {needed} not found; run from the root of a bellhv checkout",
                  file=sys.stderr)
            return 2

    workload = WORKLOADS[args.workload]
    work = root / ".perfbench" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment(args.seed)
    import_seconds(root, 1)  # compile bytecode and warm the file cache, untimed

    if args.trace:
        ops, metrics, units, extra, problems = measure_traced(workload, args.seed, root, work)
    else:
        ops, metrics, units, extra, problems = measure(
            workload, args.seed, args.seconds, root, work
        )

    attempted = sum(len(op.records) for op in ops) + len(problems)
    failed = sum(op.failed for op in ops) + len(problems)
    figures = {
        name: statistics.median(op.figures[name] for op in ops if name in op.figures)
        for name in ops[0].figures
    }
    figures["fail_frac"] = failed / attempted

    print(f"# bellhv benchmark: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# environment: " + json.dumps(env))
    print(f"# {len(ops)} ops, one client, one command at a time")
    for i, op in enumerate(ops):
        print(f"# op {i}: wall_s={op.wall_s:.4f} commands={len(op.records)} failed={op.failed}")
        for record, failure in zip(op.records, op.failures):
            if record["rc"] != 0 or failure is not None:
                print(f"#   FAILED {' '.join(record['argv'])}: rc={record['rc']} {failure or ''}")
    for problem in problems:
        print(f"# FAILED {problem}")
    for name, value in figures.items():
        print(f"{name:<42} {value:.10g} {FIGURE_UNITS[name]}")
    for name, value in metrics.items():
        print(f"{name:<42} {value:.10g} {units[name]}")

    record = {"environment": env, "workload": workload.name, "trace": args.trace,
              "figures": figures, "metrics": metrics, "units": units,
              "op_wall_s": [op.wall_s for op in ops], "attempted": attempted,
              "failed": failed, "problems": problems, **extra}
    (work / "result.json").write_text(json.dumps(record, indent=2), encoding="utf-8")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
