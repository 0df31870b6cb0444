"""Benchmark entry point.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve_inproc --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` wraps each
layer's public calls in spans and reports the per-layer metrics instead
(see ``README.md``).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Run outputs
(the result and, when traced, the spans) go to ``perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("copyattack", "serve_inproc", "serve_process")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def _ms_percentile(samples: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(samples), q) * 1e3)


def end_to_end_metrics(raw: dict, peak_rss: float) -> dict[str, dict]:
    """The end-to-end metrics of one run (see ``BENCHMARK.json``)."""
    return {
        "setup_s": {"value": raw["setup_s"], "unit": "s"},
        "ops_per_s": {"value": raw["ops"] / raw["elapsed_s"], "unit": "1/s"},
        "serve_users_per_s": {"value": raw["users"] / raw["elapsed_s"], "unit": "users/s"},
        "serve_p50_ms": {"value": _ms_percentile(raw["request_s"], 50), "unit": "ms"},
        "serve_p99_ms": {"value": _ms_percentile(raw["request_s"], 99), "unit": "ms"},
        "inject_p50_ms": {"value": _ms_percentile(raw["inject_s"], 50), "unit": "ms"},
        "peak_rss_mib": {"value": peak_rss, "unit": "MiB"},
        # In-process shards live in the platform process itself.
        "shard_rss_mib": {"value": raw["shard_rss_mib"] or peak_rss, "unit": "MiB"},
    }


def main(argv=None) -> int:
    process_start = time.perf_counter()
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import system

    system.pin_threads()  # before numpy is first imported
    import numpy  # noqa: F401  (program import cost is part of set-up)
    import repro.experiments.runner  # noqa: F401
    import repro.serving  # noqa: F401

    t_import = time.perf_counter() - process_start
    from perfbench import copyattack, serve, tracing

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, tracing.layer_targets())
    if args.workload == "copyattack":
        raw = copyattack.run(args.seed, args.seconds, tracer, t_import)
    else:
        engine = "process" if args.workload == "serve_process" else "serial"
        raw = serve.run(engine, args.seed, args.seconds, tracer, t_import)

    e2e = end_to_end_metrics(raw, system.peak_rss_mib())
    for name, metric in e2e.items():
        print(f"{name:>18} {metric['value']:14.4f} {metric['unit']}")
    print(
        f"{'samples':>18} {len(raw['request_s'])} requests, {len(raw['inject_s'])} "
        f"injections/sign-ups, {raw['elapsed_s']:.2f} s timed"
    )
    for key, value in raw["notes"].items():
        print(f"{key:>18} {value}")
    for failure in raw["failures"][:20]:
        print(f"CHECK FAILED: {failure}")
    metrics = e2e
    out_dir = ROOT / "perfbench" / "runs"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        metrics = tracing.per_layer_metrics(tracer)
        tracer.write(out_dir / f"trace-{stem}.json", {"end_to_end": e2e})
    result = {
        "correct": not raw["failures"],
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": metrics,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"result-{stem}.json").write_text(
        json.dumps({**result, "end_to_end": e2e, "notes": raw["notes"], "failures": raw["failures"]})
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
