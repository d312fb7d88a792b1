"""The per-layer table of a traced run, derived from its JSONL trace.

The benchmark's own ``bench.<layer>`` spans wrap every call into the
program; the program's spans (including worker spans merged back from
the pool, with their CPU time) nest underneath.  For every span name
the table holds calls, wall, self time (the span minus its children
on the same timeline) and CPU; for every ``bench.*`` layer it adds the
CPU its pool workers spent.  Worker spans keep their own clocks, so a
main-process span's self time subtracts only main-process children.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

#: Program counters a traced run must reproduce exactly, as the
#: benchmark counted them itself.
RECONCILED = (
    "collection.sessions",
    "cv.folds",
    "dataset.bytes_written",
    "stream.ingested",
    "stream.scored",
    "stream.evicted",
    "stream.late_dropped",
)


def build_table(events: list[dict[str, Any]]) -> dict[str, Any]:
    """Rows per span name, counters, ``sessions=`` work per span name,
    total pool-worker CPU and the span count."""
    spans = [e for e in events if e.get("type") == "span"]
    children: dict[int, list[dict]] = defaultdict(list)
    for span in spans:
        if span.get("parent") is not None:
            children[span["parent"]].append(span)

    def worker_cpu(span: dict) -> float:
        total = 0.0
        for child in children[span["id"]]:
            if child.get("worker"):
                total += child["cpu_s"]
            else:
                total += worker_cpu(child)
        return total

    rows: dict[str, dict[str, float]] = {}
    for span in spans:
        row = rows.setdefault(
            span["name"],
            {"calls": 0, "wall_s": 0.0, "self_s": 0.0, "cpu_s": 0.0, "worker_cpu_s": 0.0},
        )
        same_clock = [
            c for c in children[span["id"]] if bool(c.get("worker")) == bool(span.get("worker"))
        ]
        row["calls"] += 1
        row["wall_s"] += span["wall_s"]
        row["self_s"] += max(span["wall_s"] - sum(c["wall_s"] for c in same_clock), 0.0)
        row["cpu_s"] += span["cpu_s"]
        if span["name"].startswith("bench.") and not span.get("worker"):
            row["worker_cpu_s"] += worker_cpu(span)
    counters = {e["name"]: e["value"] for e in events if e.get("type") == "counter"}
    # Work the program's spans report (``sessions=`` attributes), per span name.
    sessions: dict[str, float] = defaultdict(float)
    for span in spans:
        value = (span.get("attrs") or {}).get("sessions")
        if isinstance(value, (int, float)):
            sessions[span["name"]] += value
    by_id = {span["id"]: span for span in spans}
    pool_cpu = sum(
        span["cpu_s"]
        for span in spans
        if span.get("worker") and not by_id.get(span["parent"], {}).get("worker")
    )
    return {
        "spans": rows,
        "counters": counters,
        "sessions": dict(sessions),
        "worker_cpu_s": pool_cpu,
        "n_spans": len(spans),
    }


def reconcile(table: dict[str, Any], expected: dict[str, int]) -> list[str]:
    """Mismatches between the program's counters and the benchmark's counts."""
    problems = []
    for name in RECONCILED:
        if name not in expected:
            continue
        got = table["counters"].get(name, 0)
        if got != expected[name]:
            problems.append(f"{name}: program counted {got}, benchmark {expected[name]}")
    return problems


def layer_metrics(table: dict[str, Any], bench: dict[str, float], jobs: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass.

    ``bench`` holds the benchmark-side values of the same pass (row
    counts, stream schedule figures) keyed by metric name.
    """
    rows = table["spans"]
    counters = table["counters"]
    sessions = table["sessions"]

    def row(name: str, key: str) -> float:
        return rows.get(f"bench.{name}", {}).get(key, 0.0)

    def rate(work: float, seconds: float) -> float:
        return work / seconds if seconds > 0 else 0.0

    def util(name: str) -> float:
        busy = row(name, "wall_s")
        cpu = row(name, "cpu_s") + row(name, "worker_cpu_s")
        return rate(cpu, busy * jobs)

    out = {
        "collection.busy_s": row("collection", "wall_s"),
        "collection.sessions_per_s": rate(
            counters.get("collection.sessions", 0), row("collection", "wall_s")
        ),
        "collection.cpu_util": util("collection"),
        "store.write_s": row("store.write", "wall_s"),
        "store.bytes_written": counters.get("dataset.bytes_written", 0),
        "store.read_s": row("store.read", "wall_s"),
        "store.read_sessions_per_s": rate(
            sessions.get("dataset.load", 0), row("store.read", "wall_s")
        ),
        "features.busy_s": row("features", "wall_s"),
        "features.sessions_per_s": rate(
            sessions.get("features.tls", 0), row("features", "wall_s")
        ),
        "ml.cv_s": row("ml.cv", "wall_s"),
        "ml.cv_cpu_util": util("ml.cv"),
        "ml.fit_s": row("ml.fit", "wall_s"),
        "ml.fit_rows_per_s": rate(bench.get("ml.fit_rows", 0), row("ml.fit", "wall_s")),
        "ml.predict_s": row("ml.predict", "wall_s"),
        "ml.predict_rows_per_s": rate(
            bench.get("ml.predict_rows", 0), row("ml.predict", "wall_s")
        ),
        "ml.cv_accuracy": bench.get("ml.cv_accuracy", 0.0),
        "sessions.busy_s": row("sessions", "wall_s"),
        "sessions.transactions_per_s": rate(
            bench.get("sessions.transactions", 0), row("sessions", "wall_s")
        ),
        "sessions.found_ratio": bench.get("sessions.found_ratio", 0.0),
        # Ingest time minus the predict calls nested inside it.
        "stream.self_s": max(row("stream", "wall_s") - row("ml.predict", "wall_s"), 0.0)
        if row("stream", "calls")
        else 0.0,
        "parallel.worker_cpu_s": table["worker_cpu_s"],
        "trace.spans": table["n_spans"],
    }
    for name, value in bench.items():
        if name.startswith("stream."):
            out[name] = value
    return out


def render(table: dict[str, Any]) -> str:
    """The table as text: one line per span name, heaviest first."""
    lines = [f"{'span':<28}{'calls':>8}{'wall_s':>10}{'self_s':>10}{'cpu_s':>10}{'wrk_cpu_s':>11}"]
    for name, r in sorted(table["spans"].items(), key=lambda kv: -kv[1]["wall_s"]):
        lines.append(
            f"{name:<28}{int(r['calls']):>8}{r['wall_s']:>10.3f}{r['self_s']:>10.3f}"
            f"{r['cpu_s']:>10.3f}{r['worker_cpu_s']:>11.3f}"
        )
    lines.append("counters:")
    for name in sorted(table["counters"]):
        lines.append(f"  {name:<40}{table['counters'][name]:>14}")
    return "\n".join(lines)
