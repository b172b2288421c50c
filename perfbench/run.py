"""End-to-end benchmark of the predictive-compression write/read paths.

Usage (from the repository root)::

    python3 perfbench/run.py --workload snapshot --seed 1 --seconds 20 --trace 0

Runs one closed-loop workload for ``--seconds`` seconds against the
program in ``src/`` and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics from a traced run with
``--trace 1``.  The line before it is a diagnostic JSON object (input
digest, op count, reference-kernel median, failure reasons).  See
``perfbench/README.md`` for the workloads and how each metric is taken.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Fresh set-ups timed per run; setup_s is their median.
SETUP_SAMPLES = 5
#: Seconds between two timings of the host reference kernel.
REFERENCE_EVERY = 0.5


def reference_kernel() -> float:
    """Seconds for a fixed pure-Python loop: host speed, not program speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc = (acc * 31 + i) % 1000003
    return time.perf_counter() - t0


def end_to_end(wl, setup_samples: list[float]) -> dict[str, dict]:
    latencies = [op.latency for op in wl.ops]
    values = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "throughput_mbps": (sum(op.nbytes for op in wl.ops) / sum(latencies) / 1e6, "MB/s"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1e3 * wl.tail(), "ms"),
        "storage_ratio": (wl.storage_ratio, "x"),
        "psnr_db": (wl.psnr, "dB"),
        "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["snapshot", "steps", "analysis"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true",
                   help="test-sized inputs and one set-up sample (the benchmark's own tests)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: program sources not found at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import tracing
    from workloads import KEPT_FAILURE, WORKLOADS, Context

    work = os.path.join(ROOT, ".perfbench_work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    ctx = Context(root=ROOT, work=work, seed=args.seed, tiny=args.tiny, tracer=tracer)
    wl = WORKLOADS[args.workload](ctx)
    try:
        wl.setup()
        setup_samples = wl.setup_seconds(1 if args.tiny else SETUP_SAMPLES)
        if tracer is not None:
            tracing.install(tracer)
        reference: list[float] = []
        next_reference = 0.0
        t_end = time.perf_counter() + args.seconds
        while True:
            now = time.perf_counter()
            if now >= t_end:
                break
            if now >= next_reference:
                reference.append(reference_kernel())
                next_reference = time.perf_counter() + REFERENCE_EVERY
            wl.round()
        if tracer is not None:
            tracer.uninstall()
        wl.finish()
    finally:
        wl.close()
        shutil.rmtree(work, ignore_errors=True)

    failed = [op.failure for op in wl.ops if op.failure]
    unexpected = wl.failures + [f for f in failed if not f.startswith(KEPT_FAILURE)]
    e2e = end_to_end(wl, setup_samples)
    if tracer is not None:
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json"))
        layers = tracing.layer_metrics(tracer.spans, len(wl.ops), wl.layer_extra())
        metrics = {k: {"value": v, "unit": tracing.PER_LAYER_UNITS[k]}
                   for k, v in layers.items()}
    else:
        metrics = e2e
    reasons: dict[str, dict] = {}
    for reason in failed + wl.failures:
        entry = reasons.setdefault(reason.split(":")[0], {"count": 0, "example": reason})
        entry["count"] += 1
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "input_digest": wl.input_digest(),
        "ops": len(wl.ops),
        "tail": wl.tail_rule,
        "reference_kernel_ms": 1e3 * statistics.median(reference),
        "setup_samples_s": setup_samples,
        "throughput_mbps": e2e["throughput_mbps"]["value"],
        "failures": reasons,
        "unexpected_failures": unexpected[:5],
    }))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(wl.ops),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
