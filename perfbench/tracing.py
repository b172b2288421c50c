"""Span tracing installed from the benchmark's own files.

:class:`Tracer` wraps public functions of the program's layers (``api``,
``core``, ``modeling``, ``compression``, ``mpi``, ``exec`` and ``hdf5``)
without editing the program: a module-level function is
replaced at every ``repro`` module that binds it (``from x import f``
copies the reference), a method is replaced on its class.  Each call
records one :class:`Span` (name, start, end, parent span, thread, op id);
spans stay in memory and are written out once, when the run ends.

Parents: the innermost open span on the same thread.  A span opened on a
thread with no open span (a rank thread, an async-I/O worker) takes the
``map_ranks`` span that is open at that moment, which is unambiguous
because the benchmark drives one op at a time through the local facade.
Self time is a span's duration minus that of its same-thread children.
Only spans opened while a timed op runs carry an op id; the rest
(warm-up, checks) are kept in the dump but left out of every metric.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

perf_counter = time.perf_counter


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    thread: str
    op: int | None
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start

    def to_json(self) -> list:
        return [self.id, self.name, self.start, self.end, self.parent,
                self.thread, self.op, self.counts]


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._lock = threading.Lock()
        self.op: int | None = None  # op id of the timed op in flight
        self._fanout: int | None = None  # open map_ranks span id
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1].id if stack else self._fanout
        span = Span(next(self._ids), name, perf_counter(), parent,
                    threading.current_thread().name, self.op)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    # -- wrapping ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, before=None, after=None,
             fanout=False) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``before(span, args)`` and ``after(span, args, result)`` add counts
        to the span.
        ``fanout`` marks the span as the parent of root spans opened on
        other threads while it is open.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.begin(name)
            if before is not None:
                before(span, args)
            previous = tracer._fanout
            if fanout:
                tracer._fanout = span.id
            try:
                result = original(*args, **kwargs)
            finally:
                if fanout:
                    tracer._fanout = previous
                tracer.end(span)
            if after is not None:
                after(span, args, result)
            return result

        wrapper.__wrapped__ = original
        if isinstance(owner, type):
            self._patched.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        # A module function: rebind it wherever a repro module imported it.
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped function."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def dump(self, path: str) -> None:
        """Write every recorded span as JSON rows."""
        with open(path, "w", encoding="utf-8") as f:
            json.dump({
                "columns": ["id", "name", "start", "end", "parent", "thread",
                            "op", "counts"],
                "spans": [s.to_json() for s in self.spans],
            }, f)


# ---------------------------------------------------------------------------
# What is wrapped
# ---------------------------------------------------------------------------

def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries listed in the README's per-layer table."""
    from repro.api import dataset as api_dataset
    from repro.api import file as api_file
    from repro.compression import huffman, lossless, predictors, quantizer, sz
    from repro.core import pipeline, strategy
    from repro.exec import executors
    from repro.hdf5 import async_io, storage
    from repro.mpi import comm
    from repro.modeling import ratio_model

    def stash_table(span, args, table):
        tracer._tls.table = table

    def clear_table(span, args):
        tracer._tls.table = None

    def driver_counts(span, args, stats):
        # RealDriver.run(comm, file, fields, ...): field order = table rows.
        names = list(args[3])
        rank = args[1].rank
        table = getattr(tracer._tls, "table", None)
        span.counts["rank"] = rank
        span.counts["overflow_bytes"] = sum(stats.overflow_nbytes.values())
        span.counts["overflow_partitions"] = sum(
            1 for v in stats.overflow_nbytes.values() if v > 0)
        span.counts["predicted"] = [int(stats.predicted_nbytes[n]) for n in names]
        span.counts["actual"] = [int(stats.actual_nbytes[n]) for n in names]
        unused = 0
        if table is not None:
            for f, n in enumerate(names):
                unused += max(0, int(table.reserved[f][rank]) - int(stats.actual_nbytes[n]))
        span.counts["unused_reserved_bytes"] = unused

    def in_bytes(span, args, result):
        span.counts["bytes"] = int(args[1].nbytes)

    def out_bytes(span, args, result):
        span.counts["bytes"] = int(result.nbytes)

    def written(span, args, result):
        span.counts["bytes"] = len(args[1])

    def read(span, args, result):
        span.counts["bytes"] = len(result)

    # finalize() reserves exactly the footer's length past the watermark.
    def footer_start(span, args):
        span.counts["bytes"] = -int(args[0].end_of_data)

    def footer_end(span, args, result):
        span.counts["bytes"] += int(args[0].end_of_data)

    tracer.wrap(api_dataset.Dataset, "__setitem__", "api.stage")
    tracer.wrap(api_file.File, "flush", "api.flush")
    tracer.wrap(api_file.File, "close", "api.close")
    tracer.wrap(pipeline.RealDriver, "run", "core.driver",
                before=clear_table, after=driver_counts)
    tracer.wrap(strategy.PlanPhase, "compute_table", "core.plan", after=stash_table)
    tracer.wrap(strategy.CompressWritePhase, "field_order", "core.order")
    tracer.wrap(ratio_model.RatioQualityModel, "predict", "modeling.predict")
    tracer.wrap(sz.SZCompressor, "compress", "compression.encode", after=in_bytes)
    tracer.wrap(sz.SZCompressor, "decompress", "compression.decode", after=out_bytes)
    tracer.wrap(quantizer.LinearQuantizer, "quantize", "compression.quantize")
    tracer.wrap(quantizer.LinearQuantizer, "dequantize", "compression.quantize")
    tracer.wrap(predictors, "lorenzo_forward", "compression.lorenzo")
    tracer.wrap(predictors, "lorenzo_inverse", "compression.lorenzo")
    tracer.wrap(huffman, "build_code", "compression.codebook")
    tracer.wrap(huffman, "huffman_encode", "compression.huffman_encode")
    tracer.wrap(huffman, "huffman_decode", "compression.huffman_decode")
    tracer.wrap(lossless, "lossless_compress", "compression.lossless")
    tracer.wrap(lossless, "lossless_decompress", "compression.lossless")
    for op in ("allgather", "barrier", "bcast"):
        tracer.wrap(comm.RankComm, op, "mpi.collective")
    tracer.wrap(executors.Executor, "map_ranks", "exec.map_ranks", fanout=True)
    tracer.wrap(executors.ThreadPoolExecutor, "map_ranks", "exec.map_ranks", fanout=True)
    tracer.wrap(storage.FileStorage, "write_at", "hdf5.write", after=written)
    tracer.wrap(storage.FileStorage, "read_at", "hdf5.read", after=read)
    tracer.wrap(storage.FileStorage, "__init__", "hdf5.open")
    tracer.wrap(async_io.EventSet, "wait_all", "hdf5.async_wait")
    tracer.wrap(storage.FileStorage, "finalize", "hdf5.footer",
                before=footer_start, after=footer_end)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

#: name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER_UNITS = {
    "api.stage_s": "s/op",
    "api.flush_self_s": "s/op",
    "core.driver_s": "s/op",
    "core.plan_s": "s/op",
    "core.order_s": "s/op",
    "core.overflow_bytes": "B/op",
    "core.overflow_partitions": "1/op",
    "core.unused_reserved_bytes": "B/op",
    "modeling.predict_s": "s/op",
    "modeling.size_error": "ratio",
    "compression.encode_s": "s/op",
    "compression.encode_mbps": "MB/s",
    "compression.quantize_s": "s/op",
    "compression.lorenzo_s": "s/op",
    "compression.codebook_s": "s/op",
    "compression.huffman_encode_s": "s/op",
    "compression.lossless_s": "s/op",
    "compression.decode_s": "s/op",
    "compression.decode_mbps": "MB/s",
    "compression.huffman_decode_s": "s/op",
    "mpi.wait_s": "s/op",
    "mpi.collectives": "1/op",
    "exec.fanout_s": "s/op",
    "hdf5.write_s": "s/op",
    "hdf5.write_bytes": "B/op",
    "hdf5.async_wait_s": "s/op",
    "hdf5.read_s": "s/op",
    "hdf5.read_bytes": "B/op",
    "hdf5.footer_s": "s/op",
    "hdf5.footer_bytes": "B/op",
    "hdf5.open_s": "s/op",
    "cache.hit_rate": "ratio",
    "cache.evictions": "1/op",
    "cache.bytes_decoded": "B/op",
}

#: metric -> (span name, "total" | "self") for the plain time sums.
_TIME_SUMS = {
    "api.stage_s": ("api.stage", "self"),
    "core.plan_s": ("core.plan", "total"),
    "core.order_s": ("core.order", "total"),
    "modeling.predict_s": ("modeling.predict", "total"),
    "compression.encode_s": ("compression.encode", "total"),
    "compression.quantize_s": ("compression.quantize", "total"),
    "compression.lorenzo_s": ("compression.lorenzo", "total"),
    "compression.codebook_s": ("compression.codebook", "total"),
    "compression.huffman_encode_s": ("compression.huffman_encode", "self"),
    "compression.lossless_s": ("compression.lossless", "total"),
    "compression.decode_s": ("compression.decode", "total"),
    "compression.huffman_decode_s": ("compression.huffman_decode", "total"),
    "mpi.wait_s": ("mpi.collective", "total"),
    "hdf5.write_s": ("hdf5.write", "total"),
    "hdf5.async_wait_s": ("hdf5.async_wait", "total"),
    "hdf5.read_s": ("hdf5.read", "total"),
    "hdf5.footer_s": ("hdf5.footer", "total"),
    "hdf5.open_s": ("hdf5.open", "total"),
}

#: metric -> span name whose ``bytes`` counts are summed per op.
_BYTE_SUMS = {
    "hdf5.write_bytes": "hdf5.write",
    "hdf5.read_bytes": "hdf5.read",
    "hdf5.footer_bytes": "hdf5.footer",
}


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time of its same-thread children."""
    by_id = {s.id: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.thread == s.thread:
            child_time[s.parent] += s.dur
    return {s.id: s.dur - child_time[s.id] for s in spans}


def _union_within(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def layer_metrics(spans: list[Span], n_ops: int, extra: dict) -> dict[str, float]:
    """Per-layer metrics over the spans of timed ops.

    Times and byte counts are per op, summed over every thread (rank
    threads overlap, so two ranks busy for 1 ms each count 2 ms), except
    ``core.driver_s`` (the slowest rank of each fan-out) and
    ``exec.fanout_s`` (fan-out wall time beyond that slowest rank).
    ``extra`` carries the counts read outside the spans (cache statistics).
    """
    timed = [s for s in spans if s.op is not None]
    n = max(1, n_ops)
    by_id = {s.id: s for s in timed}
    selfs = self_times(timed)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in timed:
        by_name[s.name].append(s)
    out: dict[str, float] = {}
    for metric, (name, kind) in _TIME_SUMS.items():
        group = by_name[name]
        total = sum(selfs[s.id] if kind == "self" else s.dur for s in group)
        out[metric] = total / n
    for metric, name in _BYTE_SUMS.items():
        out[metric] = sum(s.counts.get("bytes", 0) for s in by_name[name]) / n

    drivers = by_name["core.driver"]
    slowest: dict[int | None, float] = defaultdict(float)
    for s in drivers:
        slowest[s.parent] = max(slowest[s.parent], s.dur)
    out["core.driver_s"] = sum(slowest.values()) / n
    out["exec.fanout_s"] = sum(
        s.dur - slowest.get(s.id, 0.0) for s in by_name["exec.map_ranks"]
    ) / n
    for key in ("overflow_bytes", "overflow_partitions", "unused_reserved_bytes"):
        out[f"core.{key}"] = sum(s.counts.get(key, 0) for s in drivers) / n
    errors = [
        abs(p - a) / a
        for s in drivers
        for p, a in zip(s.counts.get("predicted", []), s.counts.get("actual", []))
        if a > 0
    ]
    out["modeling.size_error"] = sum(errors) / len(errors) if errors else 0.0

    flush_self = 0.0
    outer = [s for s in by_name["api.flush"] + by_name["api.close"]
             if not _has_ancestor(s, {"api.flush", "api.close"}, by_id)]
    for s in outer:
        inside = [(d.start, d.end) for d in drivers if d.op == s.op]
        flush_self += s.dur - _union_within(inside, s.start, s.end)
    out["api.flush_self_s"] = flush_self / n

    collectives = by_name["mpi.collective"]
    out["mpi.collectives"] = len(collectives) / n
    out["compression.encode_mbps"] = _rate(by_name["compression.encode"])
    out["compression.decode_mbps"] = _rate(by_name["compression.decode"])
    out["cache.hit_rate"] = float(extra.get("cache.hit_rate", 0.0))
    for key in ("cache.evictions", "cache.bytes_decoded"):
        out[key] = float(extra.get(key, 0.0)) / n
    return {name: out[name] for name in PER_LAYER_UNITS}


def _rate(spans: list[Span]) -> float:
    seconds = sum(s.dur for s in spans)
    return sum(s.counts.get("bytes", 0) for s in spans) / seconds / 1e6 if seconds else 0.0


def _has_ancestor(span: Span, names: set[str], by_id: dict[int, Span]) -> bool:
    parent = by_id.get(span.parent)
    while parent is not None:
        if parent.name in names:
            return True
        parent = by_id.get(parent.parent)
    return False
