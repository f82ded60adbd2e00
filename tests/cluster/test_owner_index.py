"""The router's owner index: dedup without probes, across restarts.

``ShardRouter.owner`` is the authority for job-id dedup.  A fresh
router seeds it from the shards' journals (finished ids and backlogs),
so it must absorb a resubmission of every id its predecessor acked —
queued, finished, stolen, handed off or rejoined — without a single new
SUBMITTED record in any journal.  The differential half checks the
index against the shards' own answer (``has_job``) for every id.

The same scenario runs over in-process shards and over subprocess
shards behind framed RPC, where the work-count gate also pins how many
RPCs the router spends per job.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.cluster.harness import ClusterScenario
from repro.cluster.proc.rpc import RpcClient
from repro.cluster.proc.shard import ProcShardWorker
from repro.cluster.router import ShardRouter
from repro.compile.frontends import get_frontend
from repro.serve.durability.journal import FsyncPolicy, JobJournal
from repro.serve.durability.records import RecordType
from repro.serve.jobs import JobRequest, spec_for

NAMES = ["shard-0", "shard-1", "shard-2"]


def _proc_factory(name, journal_dir):
    return ProcShardWorker(name, journal_dir, spawn_timeout_s=60.0)


FACTORIES = {"inproc": None, "proc": _proc_factory}


def _trace(prefix: str, n_jobs: int, seed: int):
    requests = ClusterScenario(seed=seed, n_jobs=n_jobs).requests()
    for request in requests:
        request.job_id = request.job_id.replace("cl-", prefix)
    return requests


def _submitted(root, names) -> Counter:
    """SUBMITTED records per (shard, job id) across every journal."""
    counts: Counter = Counter()
    for name in names:
        journal = JobJournal(root / name, fsync=FsyncPolicy.NEVER, lock=False)
        records, _ = journal.scan()
        journal.close()
        counts.update(
            (name, r.job_id) for r in records if r.type is RecordType.SUBMITTED
        )
    return counts


def _moves(router, before: dict) -> set[str]:
    return {j for j, s in router.owner.items() if before.get(j) != s}


@pytest.mark.parametrize("tier", sorted(FACTORIES))
def test_fresh_router_absorbs_every_acked_id(tmp_path, tier):
    factory = FACTORIES[tier]
    first = _trace("a-", 12, seed=0)
    second = _trace("b-", 6, seed=1)
    router = ShardRouter(tmp_path, NAMES, worker_factory=factory)
    try:
        for request in first:
            assert router.submit(request) is None
        placed = dict(router.owner)
        router.rebalance()
        stolen = _moves(router, placed)
        router.step_round()
        router.step_round()

        victim = max(router.live_shards(), key=lambda s: s.queue_depth).name
        router.kill_shard(victim)
        before_handoff = dict(router.owner)
        assert router.handoff(victim) > 0
        handed_off = _moves(router, before_handoff)

        fresh = router.worker_factory(victim, tmp_path / victim)
        recovered = {r.job_id for r in fresh.backlog()}
        assert router.rejoin_shard(victim, fresh) == len(recovered)
        for request in second:
            router.submit(request)
        rejoined = recovered | {
            j for j in (r.job_id for r in second) if router.owner[j] == victim
        }
        router.step_round()
        finished = set(router.results)
        queued = set(router.owner) - finished
    finally:
        router.close()

    acked = {r.job_id for r in first + second}
    assert set(router.owner) == acked
    for category in (stolen, handed_off, rejoined, finished, queued):
        assert category, "the trace must exercise every ownership path"

    submitted = _submitted(tmp_path, NAMES)
    again = ShardRouter(tmp_path, NAMES, worker_factory=factory)
    try:
        for request in _trace("a-", 12, seed=0) + _trace("b-", 6, seed=1):
            job_id = request.job_id
            owner = again.owner[job_id]
            # Differential: the index names a shard that holds the job.
            assert again.shards[owner].has_job(job_id), (job_id, owner)
            pre = again.submit(request)
            assert (pre is not None) == (
                again.shards[owner].finished(job_id) is not None
            )
        assert _submitted(tmp_path, NAMES) == submitted
    finally:
        again.close()


def _kernel_trace(n_jobs: int, seed: int) -> list[JobRequest]:
    """Short registry kernels in the proportions of the benchmark's
    cluster workload (conv2d, gemm, dsp 3:3:3, fft 1)."""
    rng = np.random.default_rng(seed)
    kinds = ["conv2d", "gemm", "dsp"] * 3 + ["fft"]
    requests = []
    for index in range(n_jobs):
        kind = kinds[int(rng.integers(len(kinds)))]
        frontend = get_frontend(kind)
        payload = frontend.example_payload(frontend.canonicalize(None), rng)
        requests.append(
            JobRequest(spec=spec_for(kind), payload=payload,
                       job_id=f"g-{index:04d}")
        )
    return requests


def _closed_loop(router, requests, window: int = 8) -> None:
    """Keep ``window`` jobs outstanding, rebalancing every round."""
    pending = list(reversed(requests))
    outstanding: set[str] = set()
    while pending or outstanding:
        while pending and len(outstanding) < window:
            request = pending.pop()
            if router.submit(request) is None:
                outstanding.add(request.job_id)
        router.rebalance()
        router.step_round()
        outstanding -= set(router.results)


@pytest.fixture
def rpc_ops(monkeypatch):
    """Counts every RPC the router issues, by op."""
    ops: Counter = Counter()
    call = RpcClient.call

    def counted(self, op, params=None, **kwargs):
        ops[op] += 1
        return call(self, op, params, **kwargs)

    monkeypatch.setattr(RpcClient, "call", counted)
    return ops


def test_rpc_work_count_gate(tmp_path, rpc_ops):
    """A deterministic work count, no timing: the RPCs a fixed trace
    costs over 2 subprocess shards.  Routing by the owner index with a
    mirrored queue depth spends one submit and one step per job, and a
    candidate read, a submit and a release per steal: no dedup probe
    and no depth read.
    """
    names = NAMES[:2]
    requests = _kernel_trace(40, seed=0)
    jobs = len(requests)
    router = ShardRouter(tmp_path, names, worker_factory=_proc_factory)
    try:
        _closed_loop(router, requests)
        spent = sum(s.rpc.calls for s in router.shards.values())
        steals = router.steals
        assert len(router.results) == jobs
    finally:
        router.close()
    rpc_ops.pop("shutdown")
    assert dict(rpc_ops) == {
        "backlog": len(names),
        "finished_ids": len(names),
        "submit": jobs + steals,
        "step": jobs,
        "steal_candidates": steals,
        "release": steals,
    }
    assert (spent, steals) == (114, 10)
    assert spent / jobs <= 3

    # A fresh router knows every id from the journals: past its two
    # seeding reads per shard, each resubmission costs exactly one
    # ``finished`` read on the job's owner.
    rpc_ops.clear()
    again = ShardRouter(tmp_path, names, worker_factory=_proc_factory)
    try:
        for request in requests:
            assert again.submit(request) is not None
        assert dict(rpc_ops) == {
            "backlog": len(names),
            "finished_ids": len(names),
            "finished": jobs,
        }
    finally:
        again.close()
