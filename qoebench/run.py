"""End-to-end benchmark of the TLS-transaction QoE detector.

Usage (from the repository root)::

    python3 qoebench/run.py --workload train-cold --seed 1 --seconds 16 --trace 0

Workloads (parameters in ``qoebench/spec.json``):

* ``train-cold`` — collect → save → load → featurize → 5-fold CV → fit,
  from scratch, for svc1-svc3;
* ``rescore-warm`` — load → featurize → predict stored corpora, then
  detect sessions on per-user timelines;
* ``stream-live`` — open-loop replay of 1000+ concurrent user streams
  into ``StreamDetector`` at a ladder of fixed event rates.

Set-up runs ``setup_repeats`` times and ``setup_s`` is its median.
With ``--trace 0`` the last stdout line carries every end-to-end
metric of ``BENCHMARK.json``; with ``--trace 1`` the timed loop runs a
second time under :func:`repro.telemetry.tracing`, the JSONL trace and
the per-layer table land in ``.qoebench-out/<workload>-seed<seed>/``,
the program's counters must reconcile exactly with the benchmark's
own counts, and the last line carries every per-layer metric,
including the tracing overhead.  Any failed output check or layer call
exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Environment the program reads that must not leak into a run.
CLEARED_ENV = (
    "REPRO_WORKLOAD",
    "REPRO_SCENARIO",
    "REPRO_SHARD_SIZE",
    "REPRO_TRACE",
    "REPRO_SCALE",
    "REPRO_SMOKE",
)


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _pin_environment(tmp: Path, jobs: int) -> None:
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    os.environ["REPRO_JOBS"] = str(jobs)
    os.environ["REPRO_CACHE_DIR"] = str(tmp / "cache")
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))


def _traced_pass(workload, runner, seconds: float, untraced, out_dir: Path, jobs: int) -> dict:
    """Run the timed loop again under tracing; return the per-layer metrics."""
    from repro import telemetry

    from layers import build_table, layer_metrics, reconcile, render

    trace_path = out_dir / "trace.jsonl"
    with telemetry.tracing(trace_path):
        traced = workload.measure(runner, seconds)
    for check in traced.checks:
        check()
    table = build_table(telemetry.validate_trace(trace_path))
    problems = reconcile(table, traced.counts)
    if problems:
        raise AssertionError("trace does not reconcile: " + "; ".join(problems))
    metrics = layer_metrics(table, traced.layer, jobs)
    metrics["trace.overhead_ratio"] = traced.work_s / untraced.work_s - 1.0
    (out_dir / "layers.json").write_text(json.dumps({"table": table, "metrics": metrics}, indent=1))
    text = render(table)
    (out_dir / "layers.txt").write_text(text + "\n")
    print(text, file=sys.stderr)
    return metrics


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro").is_dir():
        print(f"qoebench: program source not found under {SRC}", file=sys.stderr)
        return 2
    from bench import load_spec

    spec = load_spec()
    if args.workload not in spec["workloads"]:
        print(f"qoebench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    jobs = int(spec["jobs"])
    scratch = ROOT / ".qoebench-tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    _pin_environment(tmp, jobs)

    from repro import parallel

    from bench import Runner, median, peak_rss_mb
    from workloads import WORKLOADS

    runner = Runner()
    try:
        workload = WORKLOADS[args.workload](
            spec["workloads"][args.workload], args.seed, ROOT, tmp, args.seconds
        )
        setup_s = []
        for _ in range(int(spec["setup_repeats"])):
            t0 = time.perf_counter()
            workload.setup(runner)
            setup_s.append(time.perf_counter() - t0)
        measured = workload.measure(runner, args.seconds)
        for check in measured.checks:
            check()
        if args.trace:
            out_dir = ROOT / ".qoebench-out" / f"{args.workload}-seed{args.seed}"
            out_dir.mkdir(parents=True, exist_ok=True)
            values = _traced_pass(workload, runner, args.seconds, measured, out_dir, jobs)
            values["failed_ratio"] = runner.failed / runner.attempted
            wanted = benchmark["per_layer"]
        else:
            parallel.shutdown()
            values = {"setup_s": median(setup_s), "peak_rss_mb": peak_rss_mb(), **measured.e2e}
            wanted = benchmark["end_to_end"]
        metrics = {
            m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in wanted
        }
        correct = True
    except Exception:
        traceback.print_exc()
        metrics = {}
        correct = False
    finally:
        parallel.shutdown()
        shutil.rmtree(tmp, ignore_errors=True)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
