"""The closed-loop workloads.

Each workload drives the program only through its public surface
(``repro.open`` and ``repro.cache``) and checks every op's output with
:mod:`checks`.  A workload runs in whole *rounds*; the run loop in
``run.py`` decides between rounds whether time is up, so every run
attempts the same mix of ops.

Cheap checks for every op: the first time an input is written, the
read-back is decoded and checked against the originals; every later op
that wrote the same input must have stored byte-identical streams (the
program is deterministic), and an op whose bytes differ is decoded and
checked in full.  Each op's failure, if any, is recorded on the op.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

import checks
import inputs

perf_counter = time.perf_counter

#: The only failure the benchmark expects today: reopening a file with
#: "r+" lets the next write overwrite the committed footer, so a crash
#: copy taken after that write does not open (see README, "Kept failure").
KEPT_FAILURE = "crash-copy"


@dataclass
class Op:
    index: int  # op id; spans opened while the op runs carry it
    latency: float
    nbytes: int
    failure: str | None = None


@dataclass
class Context:
    root: str  # checkout root
    work: str  # this run's scratch directory inside the checkout
    seed: int
    tiny: bool  # test-sized inputs
    tracer: object | None = None


class Workload:
    """Shared op accounting; subclasses define set-up, rounds and checks."""

    name = ""
    #: How op_tail_ms is taken (README, "Workloads"); printed with the run.
    tail_rule = "p85 of all ops"

    def __init__(self, ctx: Context) -> None:
        import repro
        import repro.cache

        self.repro = repro
        self.cache = repro.cache
        self.ctx = ctx
        self.ops: list[Op] = []
        self.failures: list[str] = []  # check failures outside any op
        self.cache_delta = {"hits": 0, "misses": 0, "evictions": 0}
        self.psnr = 0.0
        self.storage_ratio = 0.0

    # -- hooks ---------------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def setup_seconds(self, count: int) -> list[float]:
        raise NotImplementedError

    def round(self) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Close files and run the checks still pending."""

    def close(self) -> None:
        """Release what the workload holds (idempotent)."""

    def input_digest(self) -> str:
        raise NotImplementedError

    def tail(self) -> float:
        """Seconds reported as op_tail_ms."""
        return float(np.percentile([op.latency for op in self.ops], 85))

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def layer_extra(self) -> dict:
        lookups = self.cache_delta["hits"] + self.cache_delta["misses"]
        return {
            "cache.hit_rate": self.cache_delta["hits"] / lookups if lookups else 0.0,
            "cache.evictions": self.cache_delta["evictions"],
        }

    # -- helpers -------------------------------------------------------------

    def path(self, name: str) -> str:
        return os.path.join(self.ctx.work, name)

    def timed(self, fn, nbytes: int, op: Op | None = None):
        """Run one op, timed, and record it; returns (op, what fn returned).

        Passing ``op`` times a further part of an op already recorded.
        """
        tracer = self.ctx.tracer
        before = self.cache.cache_stats()
        if op is None:
            op = Op(len(self.ops), 0.0, nbytes)
            self.ops.append(op)
        if tracer is not None:
            tracer.op = op.index
        t0 = perf_counter()
        try:
            result = fn()
        finally:
            latency = perf_counter() - t0
            if tracer is not None:
                tracer.op = None
        after = self.cache.cache_stats()
        for key in self.cache_delta:
            self.cache_delta[key] += getattr(after, key) - getattr(before, key)
        op.latency += latency
        return op, result

    def fail(self, op: Op, reason: str) -> None:
        if op.failure is None:
            op.failure = reason

    def child(self, spec: dict) -> str:
        """Run perfbench/probe.py in a fresh process; returns its stdout."""
        bench = os.path.dirname(os.path.abspath(__file__))
        spec = dict(spec, src=os.path.join(self.ctx.root, "src"), bench=bench)
        out = subprocess.run(
            [sys.executable, os.path.join(bench, "probe.py"), json.dumps(spec)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        return out.stdout

    def probe(self, spec: dict) -> float:
        """Seconds of one fresh set-up, timed in a child process."""
        return float(json.loads(self.child(spec).strip().splitlines()[-1])["setup_s"])


# ---------------------------------------------------------------------------
# snapshot: one large six-field snapshot per op
# ---------------------------------------------------------------------------

class Snapshot(Workload):
    """Write a six-field Nyx-like snapshot to a new file: create, assign,
    close, on 2 thread ranks with the default ``reorder`` strategy."""

    name = "snapshot"

    def setup(self) -> None:
        self.shape = (12,) * 3 if self.ctx.tiny else (64,) * 3
        self.fields = inputs.snapshot(self.ctx.seed, self.shape)
        self.nbytes = sum(a.nbytes for a in self.fields.values())
        self.file = self.path("snapshot.phd5")
        self._write()  # the warm-up op
        why = self._decode_check()
        if why is not None:
            self.failures.append(f"warm-up snapshot: {why}")
        self.ref_sha = checks.file_sha256(self.file)
        self.storage_ratio = checks.storage_ratio(self.nbytes, [self.file])

    def input_digest(self) -> str:
        return inputs.digest(self.fields.values())

    def _write(self) -> None:
        with self.repro.open(self.file, "w", nranks=2) as f:
            for name, data in self.fields.items():
                f.create_dataset(name, data=data, error_bound=inputs.BOUNDS[name])

    def _decode_check(self) -> str | None:
        why, self.psnr = checks.decode_check(
            self.repro, self.file, {n: n for n in self.fields}, self.fields,
            inputs.BOUNDS)
        return why

    def setup_seconds(self, count: int) -> list[float]:
        spec = {"kind": "write", "seed": self.ctx.seed, "shape": [16, 16, 16],
                "path": self.path("probe.phd5")}
        return [self.probe(spec) for _ in range(count)]

    def round(self) -> None:
        os.remove(self.file)  # each op writes a new file
        op, _ = self.timed(self._write, self.nbytes)
        if checks.file_sha256(self.file) != self.ref_sha:
            why = self._decode_check()
            if why is not None:
                self.fail(op, f"snapshot: {why}")


# ---------------------------------------------------------------------------
# steps: small output steps in one file, restarted every 10th step
# ---------------------------------------------------------------------------

class Steps(Workload):
    """Write one small six-field step as group ``steps/NNNNN`` and flush;
    every 10th step restarts: close, reopen with "r+", write, flush.

    A round is one simulation job: a new file (opened with "w") holding
    ``SESSIONS`` sessions of ``SESSION`` steps.  Closing and reopening cost
    grows with the steps already in the file (the footer is rewritten and
    parsed whole), so a fresh file per job keeps the restart ops, and
    with them the tail, the same whatever the run's length or speed.

    op_tail_ms is the median restart op: the slow op of every session,
    taken as a median so that the host's slow spells, which hit any op,
    do not decide it.
    """

    name = "steps"
    tail_rule = "median of the restart ops"
    SESSION = 10  # steps per session: the 10th step restarts
    SESSIONS = 5  # sessions per file

    def setup(self) -> None:
        self.shape = (8,) * 3 if self.ctx.tiny else (32,) * 3
        # One distinct input per position in a session.
        self.inputs = [inputs.snapshot(self.ctx.seed, self.shape, step=p)
                       for p in range(self.SESSION)]
        self.step_nbytes = sum(a.nbytes for a in self.inputs[0].values())
        self.crash = self.path("steps.crash.phd5")
        self.refs: dict[tuple[int, str], str] = {}
        self.psnrs: list[float] = []
        self.step_ops: dict[int, Op] = {}
        self.restart_ops: list[Op] = []
        self.pending: list[int] = []  # steps written but not yet checked
        self.n_jobs = 0
        self.written_nbytes = 0
        self.file_nbytes = 0
        self.f = None
        # Warm-up: one step in a file of its own, closed.
        self.file = self.path("warmup.phd5")
        self._open_and_write("w")
        self.f.close()
        self.pending = []

    def input_digest(self) -> str:
        return inputs.digest(a for snap in self.inputs for a in snap.values())

    def _write_step(self) -> int:
        step = self.next_step
        self.next_step += 1
        for name, data in self.inputs[step % self.SESSION].items():
            self.f.create_dataset(f"steps/{step:05d}/{name}", data=data,
                                  error_bound=inputs.BOUNDS[name])
        self.f.flush()
        self.pending.append(step)
        return step

    def _open_and_write(self, mode: str) -> int:
        if mode == "w":
            self.next_step = 0
        self.f = self.repro.open(self.file, mode, nranks=2)
        return self._write_step()

    def setup_seconds(self, count: int) -> list[float]:
        spec = {"kind": "steps", "seed": self.ctx.seed, "shape": list(self.shape),
                "path": self.path("probe.phd5")}
        return [self.probe(spec) for _ in range(count)]

    def round(self) -> None:
        self.file = self.path(f"steps{self.n_jobs:04d}.phd5")
        self.n_jobs += 1
        self.step_ops = {}
        for session in range(self.SESSIONS):
            if session == 0:
                op, step = self.timed(lambda: self._open_and_write("w"), self.step_nbytes)
            else:
                # Restart: close (timed) ... check the closed session
                # (untimed) ... reopen "r+", write, flush (timed, same op).
                op, _ = self.timed(self.f.close, self.step_nbytes)
                self._check_session()
                committed = self.next_step
                op, step = self.timed(lambda: self._open_and_write("r+"), 0, op=op)
                self.restart_ops.append(op)
                why = self._crash_copy_check(committed)
                if why is not None:
                    self.fail(op, f"{KEPT_FAILURE}: {why}")
            self.step_ops[step] = op
            for _ in range(self.SESSION - 1):
                op, step = self.timed(self._write_step, self.step_nbytes)
                self.step_ops[step] = op
        self.f.close()  # the job ends
        self._check_session()
        self.written_nbytes += self.next_step * self.step_nbytes
        self.file_nbytes += os.path.getsize(self.file)
        os.remove(self.file)

    def _crash_copy_check(self, committed: int) -> str | None:
        """Copy the file's bytes as a crash would leave them and open the
        copy: every step committed before the reopen must read back."""
        shutil.copyfile(self.file, self.crash)
        try:
            return checks.committed_check(self.repro, self.crash, {
                f"steps/{step:05d}/{name}": self.refs.get((step % self.SESSION, name))
                for step in range(committed) for name in inputs.FIELDS
            })
        finally:
            os.remove(self.crash)

    def _check_session(self) -> None:
        """Check every step written since the last check, in the closed file."""
        try:
            engine = self.repro.hdf5.File(self.file, "r")
        except Exception as exc:  # noqa: BLE001 - any failure fails the check
            engine, failure = None, f"{type(exc).__name__}: {exc}"
        try:
            for step in self.pending:
                why = failure if engine is None else self._check_step(engine, step)
                if why is not None:
                    self.fail(self.step_ops[step], f"step {step}: {why}")
        finally:
            if engine is not None:
                engine.close()
        self.pending = []

    def _check_step(self, engine, step: int) -> str | None:
        p = step % self.SESSION
        names = {n: f"steps/{step:05d}/{n}" for n in inputs.FIELDS}
        try:
            digests = {n: checks.stored_digest(engine, d) for n, d in names.items()}
        except Exception as exc:  # noqa: BLE001 - any failure fails the check
            return f"{type(exc).__name__}: {exc}"
        if all(self.refs.get((p, n)) == d for n, d in digests.items()):
            return None
        why, psnr = checks.decode_check(self.repro, self.file, names, self.inputs[p],
                                        inputs.BOUNDS)
        if why is None and not any((p, n) in self.refs for n in inputs.FIELDS):
            self.psnrs.append(psnr)
            for n, d in digests.items():
                self.refs[(p, n)] = d
        return why

    def tail(self) -> float:
        return statistics.median(op.latency for op in self.restart_ops)

    def finish(self) -> None:
        self.psnr = float(np.mean(self.psnrs)) if self.psnrs else 0.0
        self.storage_ratio = self.written_nbytes / self.file_nbytes

    def close(self) -> None:
        if self.f is not None:
            self.f.close()


# ---------------------------------------------------------------------------
# analysis: hotspot sub-volume queries on a file written during set-up
# ---------------------------------------------------------------------------

class Analysis(Workload):
    """Read one sub-volume from all six fields of a file written during
    set-up; sub-volumes follow a seeded 80/20 hotspot trace and the cache
    budget holds the hot set but not the working set."""

    name = "analysis"
    tail_rule = "median of the cold queries"
    BLOCKS = 4  # partitions per axis: 64 partitions per field
    #: Per round: four queries on hot sub-volumes, then one on a cold one.
    HOT_PER_ROUND = 4

    def setup(self) -> None:
        self.shape = (16,) * 3 if self.ctx.tiny else (128,) * 3
        self.fields = inputs.snapshot(self.ctx.seed, self.shape)
        self.nbytes = sum(a.nbytes for a in self.fields.values())
        edge = self.shape[0] // self.BLOCKS
        self.regions = [
            tuple(slice(c * edge, (c + 1) * edge) for c in (i, j, k))
            for i in range(self.BLOCKS) for j in range(self.BLOCKS)
            for k in range(self.BLOCKS)
        ]
        self.file = self.path("analysis.phd5")
        # Many partitions per field: one block assignment per partition.
        self.child({"kind": "blocks", "seed": self.ctx.seed, "shape": list(self.shape),
                    "path": self.file,
                    "regions": [[[s.start, s.stop] for s in r] for r in self.regions]})
        self.storage_ratio = checks.storage_ratio(self.nbytes, [self.file])
        self.f = self.repro.open(self.file, "r")
        self.cache.configure(0)
        self.full = {name: self.f[name][...] for name in inputs.FIELDS}
        why, self.psnr = checks.check_fields(self.fields, self.full, inputs.BOUNDS)
        if why is not None:
            self.failures.append(f"full-field read: {why}")

        # The trace: a seeded 20% hot set, visited in a seeded cycle four
        # times in five; the cold 80% in another cycle once in five.  A
        # fixed interleave (not random draws) keeps the hit/miss mix, and
        # with it every timing, the same from run to run.
        rng = np.random.default_rng([self.ctx.seed, 80_20])
        order = rng.permutation(len(self.regions))
        n_hot = round(0.2 * len(self.regions))
        self.hot = [int(i) for i in order[:n_hot]]
        self.cold = [int(i) for i in order[n_hot:]]
        self.hot_pos = 0
        self.cold_pos = 0
        part_bytes = int(np.prod([edge] * 3)) * 4 * len(inputs.FIELDS)
        # The hot set plus the cold queries between two visits of one hot
        # sub-volume; far below the 64-sub-volume working set.
        self.budget = (n_hot + 6) * part_bytes
        self.query_nbytes = part_bytes
        self.cache.configure(self.budget)
        self.query_ops: dict[int, list[Op]] = {}
        self.cold_ops: list[Op] = []
        for _ in range(n_hot):  # warm-up: load the hot set once
            self._query(self._next_hot())
        self.decoded_before = self.f.read_stats.bytes_decoded

    def input_digest(self) -> str:
        return inputs.digest(self.fields.values())

    def _next_hot(self) -> int:
        index = self.hot[self.hot_pos % len(self.hot)]
        self.hot_pos += 1
        return index

    def _next_cold(self) -> int:
        index = self.cold[self.cold_pos % len(self.cold)]
        self.cold_pos += 1
        return index

    def _query(self, index: int) -> list[np.ndarray]:
        region = self.regions[index]
        return [self.f[name][region] for name in inputs.FIELDS]

    def setup_seconds(self, count: int) -> list[float]:
        region = self.regions[self.cold[0]]
        spec = {"kind": "analysis", "path": self.file, "budget": self.budget,
                "region": [[s.start, s.stop] for s in region]}
        return [self.probe(spec) for _ in range(count)]

    def round(self) -> None:
        for q in range(self.HOT_PER_ROUND + 1):
            index = self._next_hot() if q < self.HOT_PER_ROUND else self._next_cold()
            op, out = self.timed(lambda: self._query(index), self.query_nbytes)
            self.query_ops.setdefault(index, []).append(op)
            if q == self.HOT_PER_ROUND:
                self.cold_ops.append(op)
            region = self.regions[index]
            for name, got in zip(inputs.FIELDS, out):
                if not np.array_equal(got, self.full[name][region]):
                    self.fail(op, f"query {index} {name}: differs from the full-field read")

    def tail(self) -> float:
        return statistics.median(op.latency for op in self.cold_ops)

    def finish(self) -> None:
        self.bytes_decoded = self.f.read_stats.bytes_decoded - self.decoded_before
        # Every queried sub-volume again, with the cache disabled.
        self.cache.configure(0)
        for index, ops in self.query_ops.items():
            region = self.regions[index]
            for name, got in zip(inputs.FIELDS, self._query(index)):
                if not np.array_equal(got, self.full[name][region]):
                    for op in ops:
                        self.fail(op, f"query {index} {name}: uncached read differs")

    def layer_extra(self) -> dict:
        extra = super().layer_extra()
        extra["cache.bytes_decoded"] = getattr(self, "bytes_decoded", 0)
        return extra

    def close(self) -> None:
        f = getattr(self, "f", None)
        if f is not None:
            f.close()


WORKLOADS = {cls.name: cls for cls in (Snapshot, Steps, Analysis)}
