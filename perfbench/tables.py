"""Markdown tables over perfbench results: end to end, and workload x layer.

Reads the result files ``run.py`` writes under ``perfbench/out/`` (or
takes result dicts directly) and renders:

* the end-to-end table — one row per workload: setup, throughput, p50,
  tail (with its percentile and sample count), peak RSS, the raw
  wall-clock values next to the normalized ones, attempted and failed;
* the per-layer table — one row per workload and layer: calls, self
  milliseconds and share of the traced self time.

Usage: ``python3 perfbench/tables.py [result.json ...]`` (default: every
result file under ``perfbench/out/``).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def _fmt(value, digits: int = 2) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:,.{digits}f}"
    return str(value)


def _markdown(header: list[str], rows: list[list]) -> str:
    lines = ["| " + " | ".join(header) + " |", "|" + "|".join("---" for _ in header) + "|"]
    lines += ["| " + " | ".join(_fmt(c) for c in row) + " |" for row in rows]
    return "\n".join(lines)


def end_to_end_table(results: list[dict]) -> str:
    header = [
        "workload", "setup_s (s)", "items_per_s (1/s)", "p50_ms (ms)", "tail_ms (ms)",
        "tail", "samples", "peak_rss_mb (MB)", "raw setup s", "raw items/s", "raw p50 ms",
        "raw tail ms",
        "attempted", "failed",
    ]
    rows = []
    for r in results:
        raw = r.get("raw", {})
        line = r.get("result", {})
        rows.append([
            r["host"]["workload"],
            r.get("setup_s"),
            r["items_per_s"],
            r["p50_ms"],
            r["tail_ms"],
            f"p{r['tail_pct']}",
            r["samples"],
            r["peak_rss_mb"],
            raw.get("setup_s"),
            raw.get("items_per_s"),
            raw.get("p50_ms"),
            raw.get("tail_ms"),
            line.get("attempted", r["items"]),
            line.get("failed", r["failed_items"]),
        ])
    return _markdown(header, rows)


def layer_table(results: list[dict]) -> str:
    header = ["workload", "layer", "calls", "self ms", "share"]
    rows = []
    for r in results:
        layers = r.get("layers")
        if not layers:
            continue
        for row in layers["table"]:
            share = "(await)" if row["async"] else f"{row['share']:.1%}"
            rows.append([r["host"]["workload"], row["layer"], row["calls"], row["self_ms"], share])
        overhead = layers["metrics"].get("trace.overhead")
        rows.append([r["host"]["workload"], "trace.overhead", "-", "-", f"{overhead:.3f}x"])
    return _markdown(header, rows)


def main(argv: list[str]) -> int:
    paths = [Path(p) for p in argv] or sorted(OUT.glob("*-trace*.json"))
    results = [json.loads(p.read_text()) for p in paths]
    if not results:
        print("no results: run perfbench/run.py first", file=sys.stderr)
        return 1
    timed = [r for r in results if "layers" not in r]
    traced = [r for r in results if "layers" in r]
    if timed:
        print(end_to_end_table(timed))
    if traced:
        print()
        print(layer_table(traced))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
