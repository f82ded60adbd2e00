"""Spans around calls into each layer's public functions.

The benchmark traces the program from outside: :func:`install` wraps
public methods of the fabric, kernel-session, pool, service, journal,
engine, compiler-cache, router and RPC layers, and every call records
one span (name, start, end, parent span, job id).  The parent is the
innermost open span on the same thread, so a layer's *self time* is its
span's duration minus the durations of its child spans.  Spans are kept
in memory and written out when the segment ends.

End-to-end metrics never come from a traced process.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    """Collects spans in memory; one stack of open spans per thread."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Calls made while disabled run unwrapped and leave no span.
        self.enabled = True
        self.wire_bytes = {"sent": 0, "received": 0}

    def reset(self) -> None:
        """Forget everything recorded so far (the untimed warm-up)."""
        with self._lock:
            self.spans = []
            self.wire_bytes.update(sent=0, received=0)
            self.enabled = True

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, job_of=None, lanes_of=None, job_after=None):
        """A wrapper of ``fn`` that records one span per call.

        ``job_of(args)`` names the job the call serves (else the parent
        span's job is inherited); ``job_after(result)`` may name it once
        the call returns; ``lanes_of(args)`` counts batch lanes.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            job = job_of(args) if job_of is not None else None
            if job is None and parent is not None:
                job = parent[5]
            lanes = lanes_of(args) if lanes_of is not None else 0
            # [id, name, start, end, parent id, job, lanes, child time]
            span = [next(tracer._ids), name, time.perf_counter(), 0.0,
                    parent[0] if parent is not None else 0, job, lanes, 0.0]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent[7] += span[3] - span[2]
                with tracer._lock:
                    tracer.spans.append(span)
            if job_after is not None:
                late = job_after(result)
                if late is not None:
                    span[5] = late
            return result

        return traced

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (times in seconds)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        parents = {s[0]: s[1] for s in self.spans}
        with path.open("w") as fh:
            for sid, name, start, end, parent, job, lanes, _ in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "parent_name": parents.get(parent, ""),
                    "job": job, "lanes": lanes,
                }) + "\n")

    # -- aggregation -----------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive and self seconds, lanes.

        ``top`` sums only spans whose parent is in another layer (the
        name's first component), so a layer entered recursively
        (``execute_artifact`` calling ``execute``, ``run_setup`` calling
        ``execute``) is counted once.
        """
        names = {s[0]: s[1] for s in self.spans}
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "incl": 0.0, "self": 0.0, "top": 0.0,
                     "lanes": 0})
        for sid, name, start, end, parent, job, lanes, child in self.spans:
            row = out[name]
            dur = end - start
            row["calls"] += 1
            row["incl"] += dur
            row["self"] += dur - child
            row["lanes"] += lanes
            if not names.get(parent, "").startswith(name.split(".")[0] + "."):
                row["top"] += dur
        return out

    def per_job(self) -> dict[str, dict[str, float]]:
        """job id -> layer -> seconds of that layer's outermost spans.

        The layer is the span name's first component.  A batched span
        is attributed whole to the job it was entered for (the burst's
        head), which shares the burst's kernel.
        """
        layers = {s[0]: s[1].split(".")[0] for s in self.spans}
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        for sid, name, start, end, parent, job, lanes, child in self.spans:
            if job is None or layers.get(parent) == layers[sid]:
                continue
            out[job][layers[sid]] += end - start
        return out

    def starts(self, name: str) -> dict[str, float]:
        """job id -> first start time of a span ``name`` for that job."""
        out: dict[str, float] = {}
        for span in self.spans:
            if span[1] == name and span[5] is not None:
                out.setdefault(span[5], span[2])
        return out

    def durations(self, prefix: str) -> list[float]:
        return [s[3] - s[2] for s in self.spans if s[1].startswith(prefix)]


def _request_id(args):
    return getattr(args[1], "job_id", None)


def _result_id(result):
    return getattr(result, "job_id", None)


def _head_id(args):
    return args[1][0].job_id if args[1] else None


def _len_arg(index):
    return lambda args: len(args[index])


def install(tracer: Tracer) -> None:
    """Wrap the layers' public methods for the rest of the process."""
    from repro.cluster.proc import rpc, wire
    from repro.cluster.proc.shard import ProcShardWorker
    from repro.cluster.router import ShardRouter
    from repro.compile.cache import ArtifactCache
    from repro.fabric.rtms import RuntimeManager
    from repro.serve.durability.engine import DurableEngine
    from repro.serve.durability.journal import JobJournal
    from repro.serve.pool import FabricWorker
    from repro.serve.sessions import ArtifactSession, FFTSession, JPEGSession

    targets = [
        (ArtifactCache, "get_or_compile", "compile.lookup", {}),
        (RuntimeManager, "execute", "fabric.execute", {}),
        (RuntimeManager, "execute_artifact", "fabric.execute", {}),
        (RuntimeManager, "execute_artifact_batch", "fabric.batch",
         {"lanes_of": _len_arg(2)}),
        (RuntimeManager, "run_setup", "fabric.setup", {}),
        (FabricWorker, "execute", "pool.execute", {"job_of": _request_id}),
        (FabricWorker, "execute_batch", "pool.batch",
         {"job_of": _head_id, "lanes_of": _len_arg(1)}),
        (JobJournal, "append", "journal.append", {}),
        (DurableEngine, "step", "engine.step", {"job_after": _result_id}),
        (ShardRouter, "submit", "router.submit", {"job_of": _request_id}),
        (ShardRouter, "rebalance", "router.rebalance", {}),
        (ShardRouter, "step_round", "router.step_round", {}),
        (ProcShardWorker, "step_one", "shard.step", {"job_after": _result_id}),
    ]
    for cls in (FFTSession, JPEGSession, ArtifactSession):
        targets.append((cls, "run", "session.run", {}))
        targets.append((cls, "run_batch", "session.batch",
                        {"lanes_of": _len_arg(1)}))
    for owner, attr, name, kw in targets:
        setattr(owner, attr, tracer.wrap(name, owner.__dict__[attr], **kw))

    # One span name per RPC op, so probes and steps can be told apart.
    call = rpc.RpcClient.call
    per_op: dict[str, callable] = {}

    def rpc_call(self, op, params=None, **kwargs):
        traced = per_op.get(op)
        if traced is None:
            traced = per_op[op] = tracer.wrap(f"rpc.{op}", call)
        return traced(self, op, params, **kwargs)

    rpc.RpcClient.call = rpc_call

    wire_bytes = tracer.wire_bytes
    encode = rpc.encode_message

    def encode_message(message):
        data = encode(message)
        wire_bytes["sent"] += len(data)
        return data

    rpc.encode_message = encode_message
    feed = wire.FrameDecoder.feed

    def decoder_feed(self, data):
        wire_bytes["received"] += len(data)
        return feed(self, data)

    wire.FrameDecoder.feed = decoder_feed
