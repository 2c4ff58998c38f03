"""Run the repository benchmark: one workload or all of them.

    python3 perfbench/run.py [--workload W] [--seed N] [--seconds S]
                             [--trace 0|1] [--quick]

Each workload runs in a fresh Python process (``worker.py``) that imports
the program from ``src/`` of this checkout.  Set-up is timed from process
start to the worker's first timed operation, in extra set-up-only
processes as well, scaled to the reference speed like every timing (see
``workloads.py``) and reported as the median.  ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json, ``--trace 1`` reruns the same
inputs with spans and reports the per-layer metrics.

Output: one ``workload metric value unit n=samples`` line per metric, then
one JSON line ``{"correct", "attempted", "failed", "metrics"}``.  A record
of the run goes to ``perfbench/results/`` and, when traced, the spans to
``perfbench/results/trace-<workload>.json``.  Exits non-zero, printing
no result, when a worker fails or the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"

#: Extra set-up-only processes per run; with the measured worker's own
#: set-up this gives three samples, whose median is ``setup_s``.
SETUP_PROBES = 2
#: Every run must end well inside the 180 seconds a run may take.
RUN_DEADLINE = 170.0
DEFAULT_SEED = 1


class WorkerError(RuntimeError):
    pass


def load_spec():
    """BENCHMARK.json, and each per-layer metric's entry in layer_map.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    groups = json.loads((BENCH / "layer_map.json").read_text())["layers"]
    layers = {metric: group for group in groups for metric in group["metrics"]}
    return spec, layers


def start_worker(argv, deadline):
    """Run one worker; return (seconds from start to READY scaled to the
    reference speed, output lines)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    began = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), *argv],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    lines = []

    def pump():
        for line in proc.stdout:
            lines.append((time.perf_counter(), line.rstrip("\n")))

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise WorkerError(f"worker {argv[:2]} ran past the deadline") from None
    finally:
        reader.join(timeout=10)
        proc.stdout.close()
    ready = [stamp for stamp, line in lines if line == "READY"]
    speed = [float(line.split()[1]) for _, line in lines if line.startswith("SPEED ")]
    if code != 0 or not ready or not speed:
        raise WorkerError(f"worker {argv[:2]} exited with {code}")
    return (ready[0] - began) * speed[0], [line for _, line in lines]


def run_workload(name, args, spec, layers):
    deadline = time.perf_counter() + RUN_DEADLINE
    base = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.quick:
        base.append("--quick")
    setups = []
    if not args.trace:
        for _ in range(0 if args.quick else SETUP_PROBES):
            setups.append(start_worker(base + ["--setup-only"], deadline)[0])
    setup, lines = start_worker(base + (["--trace"] if args.trace else []), deadline)
    setups.append(setup)
    outcome = json.loads(lines[-1])
    produced = dict(outcome["metrics"])
    if args.trace:
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for metric in declared:
            if name not in layers[metric]["measured_on"]:
                produced.setdefault(metric, 0.0)
    else:
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        produced["setup_s"] = statistics.median(setups)
    if set(produced) != set(declared):
        raise WorkerError(
            f"{name}: metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(declared) - set(produced))}, extra "
            f"{sorted(set(produced) - set(declared))}"
        )
    op_samples = outcome.get("samples", {}).get("op", {}).get("n")
    counts = {metric: op_samples for metric in produced if metric.startswith("op")}
    counts["setup_s"] = len(setups)
    result = {
        "correct": bool(outcome["correct"]),
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {
            metric: {"value": float(produced[metric]), "unit": declared[metric]}
            for metric in declared
        },
    }
    record = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "quick": args.quick,
        "setup_samples": setups,
        "samples": outcome.get("samples", {}),
        "problems": outcome.get("problems", []),
        "result": result,
    }
    RESULTS.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    mode = "trace" if args.trace else "e2e"
    path = RESULTS / f"{name}-seed{args.seed}-{mode}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    if "trace" in outcome:
        (RESULTS / f"trace-{name}.json").write_text(json.dumps(outcome["trace"]) + "\n")
    for problem in record["problems"]:
        print(f"{name} problem: {problem}", file=sys.stderr)
    for metric, entry in result["metrics"].items():
        samples = counts.get(metric)
        suffix = f" n={samples}" if samples else ""
        print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}{suffix}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", help="one workload name (default: all, in order)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true",
        help="small sizes, same code paths (a smoke run of every workload)",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    spec, layers = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")
    if args.seconds is None:
        args.seconds = 2.0 if args.quick else float(spec["run_seconds"])
    results = {}
    try:
        for name in [args.workload] if args.workload else names:
            results[name] = run_workload(name, args, spec, layers)
    except (WorkerError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": entry
                for name, r in results.items()
                for metric, entry in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
