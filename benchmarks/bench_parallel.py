"""Experiment PARALLEL — batched `run_many` serving vs sequential loops.

Two workloads measure the batching layer added on top of the
compile-and-run engine:

* **batched-json-serving** — the public interchange endpoint on a
  multi-world workload: N JSON-encoded inputs drawn from K distinct
  worlds, query ``normalize``.  The sequential baseline is the loop a
  client without a batch API writes — ``[run_json(q, v) for v in vs]`` —
  which re-parses the program and normalizes every input from scratch.
  ``run_json_many`` parses and compiles once and dedupes structurally
  equal inputs, so each distinct world is normalized once.
* **batched-text-serving** — the same shape through the paper-notation
  endpoint (``run_text_many`` vs a ``run_text`` loop).
* **io-codec** — the JSON codec alone, timed with the cyclic collector
  on (as a serving process runs), on two shapes: a 2,000-atom set,
  which shares nothing, and ``map(normalize)``'s output over 48 designs
  of width 6, whose worlds share sub-objects that the encoders write
  once.  Decode reads the text a client sends, a fresh tree; encode is
  ``value_to_json``; dumps is the canonical text through the dicts,
  ``json.dumps(value_to_json(v), sort_keys=True)``; text is the same
  text from ``dumps_value``, which writes it straight from the value
  (the row asserts the two texts are equal).  It records timings only;
  no gate reads it.

Sharding a single input across worker processes is measured by
``bench_serve.py``'s process-vs-eager row.

Run ``python benchmarks/bench_parallel.py`` (add ``--quick`` for the CI
smoke sizes) to print the table and write ``BENCH_parallel.json`` next
to this file; under pytest the same workloads assert that the batched
entry point beats the sequential loop.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import random

from harness import best_of, write_results

from repro.io import (
    dumps_value,
    parsed_morphism,
    run_json,
    run_json_many,
    run_text,
    run_text_many,
    value_from_json,
    value_to_json,
)
from repro.values.values import Atom, format_value, vorset, vpair, vset

OUT_PATH = pathlib.Path(__file__).resolve().parent / "BENCH_parallel.json"


def _design(width: int, salt: int = 0):
    """A Section 4-shaped object whose normal form has 2^width worlds."""
    return vpair(
        vset(*(vorset(10 * i + salt, 10 * i + salt + 5) for i in range(1, width + 1))),
        vorset(1, 2),
    )


def _multi_world_batch(
    total: int, distinct: int, width: int, encode=value_to_json
) -> list:
    """*total* inputs drawn (shuffled, with repeats) from *distinct* worlds,
    each encoded by *encode* (JSON by default, ``format_value`` for text)."""
    pool = [encode(_design(width, salt=100 * s)) for s in range(distinct)]
    rng = random.Random(0)
    return [pool[rng.randrange(distinct)] for _ in range(total)]


def _workloads(quick: bool = False) -> list[dict]:
    # The codec row runs first, before the batch rows fill the heap that
    # every full collection walks.
    codec = _codec_row()
    results: list[dict] = []
    total, distinct, width = (60, 6, 5) if quick else (240, 12, 7)
    batch = _multi_world_batch(total, distinct, width)
    query = "normalize"

    # 1. batched-json-serving: run_json_many vs the sequential loop.
    expected = [run_json(query, v) for v in batch]
    assert run_json_many(query, batch) == expected
    t_seq = best_of(lambda: [run_json(query, v) for v in batch])
    t_many = best_of(lambda: run_json_many(query, batch))
    results.append(
        {
            "workload": "batched-json-serving",
            "inputs": total,
            "distinct_worlds": distinct,
            "sequential_s": t_seq,
            "run_many_s": t_many,
            "speedup": t_seq / t_many,
        }
    )

    # 2. batched-text-serving: the same shape in the paper notation.
    texts = [format_value(_design(width, salt=100 * (i % distinct))) for i in range(total)]
    assert run_text_many(query, texts) == [run_text(query, t) for t in texts]
    t_seq = best_of(lambda: [run_text(query, t) for t in texts])
    t_many = best_of(lambda: run_text_many(query, texts))
    results.append(
        {
            "workload": "batched-text-serving",
            "inputs": total,
            "distinct_worlds": distinct,
            "sequential_s": t_seq,
            "run_many_s": t_many,
            "speedup": t_seq / t_many,
        }
    )
    results.append(codec)
    return results


def _dict_text(value) -> str:
    return json.dumps(value_to_json(value), sort_keys=True)


def _codec_row() -> dict:
    """io-codec: decode, encode and the two text writers timed apart,
    collector on, two shapes."""
    from repro.engine import run

    atom_set = vset(*(Atom("int", i) for i in range(2000)))
    designs = vset(*(_design(6, salt=100 * s) for s in range(48)))
    normal_forms = run(parsed_morphism("map(normalize)"), designs)
    row: dict = {"workload": "io-codec", "collector": "on"}
    gc.enable()
    for name, value in (("atom_set", atom_set), ("normal_forms", normal_forms)):
        data = json.loads(json.dumps(value_to_json(value)))
        assert value_from_json(data) == value
        assert dumps_value(value) == _dict_text(value)
        gc.collect()
        row[f"{name}_decode_s"] = best_of(lambda d=data: value_from_json(d), repeat=5)
        row[f"{name}_encode_s"] = best_of(lambda v=value: value_to_json(v), repeat=5)
        row[f"{name}_dumps_s"] = best_of(lambda v=value: _dict_text(v), repeat=5)
        row[f"{name}_text_s"] = best_of(lambda v=value: dumps_value(v), repeat=5)
    return row


def main() -> None:
    args = _parse_args()
    results = _workloads(quick=args.quick)
    print(f"{'workload':<26} {'baseline (ms)':>14} {'batched (ms)':>13} {'speedup':>8}")
    for row in results:
        if row["workload"] == "io-codec":
            continue
        print(
            f"{row['workload']:<26} {row['sequential_s'] * 1000:>14.2f}"
            f" {row['run_many_s'] * 1000:>13.2f} {row['speedup']:>7.1f}x"
        )
    codec = results[-1]
    print(
        f"\n{'io-codec (collector on)':<26} {'decode (ms)':>14} {'encode (ms)':>13}"
        f" {'dumps (ms)':>11} {'text (ms)':>10}"
    )
    shapes = (("atom_set", "2,000-atom set"), ("normal_forms", "48 design(6) NFs"))
    for name, label in shapes:
        print(
            f"{label:<26} {codec[f'{name}_decode_s'] * 1000:>14.2f}"
            f" {codec[f'{name}_encode_s'] * 1000:>13.2f}"
            f" {codec[f'{name}_dumps_s'] * 1000:>11.2f}"
            f" {codec[f'{name}_text_s'] * 1000:>10.2f}"
        )
    write_results(OUT_PATH, results)
    print(f"\nwrote {OUT_PATH}")


def _parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="run_many batching benchmarks"
    )
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke sizes (seconds, not minutes)"
    )
    return parser.parse_args()


# -- pytest entry points (the run_many-beats-sequential claim) ---------------


def test_run_json_many_beats_sequential_loop():
    batch = _multi_world_batch(total=80, distinct=8, width=6)
    query = "normalize"
    assert run_json_many(query, batch) == [run_json(query, v) for v in batch]
    t_seq = best_of(lambda: [run_json(query, v) for v in batch])
    t_many = best_of(lambda: run_json_many(query, batch))
    # One normalization per distinct world instead of one per input makes
    # this a blowout; 0.8 keeps timing noise out of CI.
    assert t_many <= t_seq * 0.8, (t_many, t_seq)


def test_run_text_many_beats_sequential_loop():
    texts = _multi_world_batch(total=80, distinct=8, width=6, encode=format_value)
    query = "normalize"
    assert run_text_many(query, texts) == [run_text(query, t) for t in texts]
    t_seq = best_of(lambda: [run_text(query, t) for t in texts])
    t_many = best_of(lambda: run_text_many(query, texts))
    assert t_many <= t_seq * 0.8, (t_many, t_seq)


if __name__ == "__main__":
    main()
