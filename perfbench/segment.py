"""One load segment of one workload, in a fresh process.

``run.py`` starts this file once per segment.  The process builds the
workload's serving stack from nothing (imports, compiling every
configuration, sessions or shard subprocesses, warm-up), runs its fixed
share of the seeded job list as the timed region, stops the stack,
checks every output against the kernel registry's oracle outside the
timed region, and writes one JSON result file.  With ``--trace 1`` the
layers' public functions are wrapped (see ``tracing.py``) and the file
also carries the per-layer sums.

Usage (normally only through ``run.py``)::

    python3 perfbench/segment.py --workload serve-mix --seed 1 \
        --segment 0 --count 400 --trace 0 --spawned-at <monotonic> \
        --workdir <dir> --out <file>
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from probe import probe  # noqa: E402
from workloads import kind_sequence, make_jobs  # noqa: E402

#: Distinct warm-up payloads per configuration per fabric: one more than
#: the fabric run memo's miss budget, so every memo key has settled.
WARM_PAYLOADS = 13

#: Fabrics (serve-*) or shard processes (cluster-proc): one per CPU of
#: the 2-vCPU host the benchmark's bounds were measured on.
WORKERS = 2

CLK_TCK = os.sysconf("SC_CLK_TCK")


# ---------------------------------------------------------------------------
# process accounting
# ---------------------------------------------------------------------------


def _status_kb(pid: int | str, field: str) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    return 0


def _cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    # utime and stime are fields 14 and 15 of stat(5); fields[0] is 3.
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def _journal_totals(root: Path) -> tuple[int, int]:
    """(records, bytes) over every journal segment under ``root``."""
    records = size = 0
    for path in root.rglob("wal-*.log"):
        data = path.read_bytes()
        records += data.count(b"\n")
        size += len(data)
    return records, size


class Recorder:
    """Per-job submit/done times and results of the timed region."""

    def __init__(self, jobs, ids):
        self.jobs = dict(zip(ids, jobs))
        self.submitted: dict[str, float] = {}
        self.done: dict[str, float] = {}
        self.results: dict = {}

    def request(self, job_id):
        from repro.serve.jobs import JobRequest

        job = self.jobs[job_id]
        return JobRequest(spec=job.spec, payload=job.payload,
                          job_id=job_id)

    def submit(self, job_id: str) -> None:
        self.submitted[job_id] = time.monotonic()

    def finish(self, job_id: str, result) -> None:
        self.done[job_id] = time.monotonic()
        self.results[job_id] = result


# ---------------------------------------------------------------------------
# the three workloads
# ---------------------------------------------------------------------------


def _configs(mix, seed):
    """One warm-up job list per configuration in the mix."""
    return {kind: make_jobs([kind] * WARM_PAYLOADS, seed, f"warm-{kind}")
            for kind in sorted(mix)}


def _warm_requests(jobs, tag):
    from repro.serve.jobs import JobRequest

    return [JobRequest(spec=j.spec, payload=j.payload,
                       job_id=f"warm-{tag}-{j.kind}-{j.index}")
            for j in jobs]


class ServeMix:
    """``FabricJobService`` over two fabrics, affinity scheduling and a
    write-ahead journal; closed-loop asyncio clients."""

    def __init__(self, cfg, args, work: Path, ctx):
        from repro.serve import AffinityPolicy, FabricJobService
        from repro.serve.durability import FsyncPolicy, JobJournal
        from repro.serve.sessions import CancelToken

        self.clients = cfg["clients"]
        self.journal = JobJournal(work / "journal", fsync=FsyncPolicy.NEVER)
        self.service = FabricJobService(
            pool_size=WORKERS, policy=AffinityPolicy(),
            journal=self.journal, max_queue=4 * cfg["clients"])
        ctx.pools = [self.service.pool]
        warm = _configs(cfg["mix"], args.seed)
        # Every fabric runs every configuration over distinct payloads,
        # so compile, session and run-memo state settle before timing.
        for worker in self.service.pool:
            for jobs in warm.values():
                for request in _warm_requests(jobs, worker.id):
                    worker.execute(request, CancelToken())
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self.service.start())
        # A short untimed pass through the asyncio path itself.
        requests = _warm_requests(warm[sorted(warm)[0]][:4], "svc")

        async def warm_service():
            await asyncio.gather(*(self.service.submit_and_wait(r)
                                   for r in requests))

        self.loop.run_until_complete(warm_service())

    def run_block(self, rec, ids):
        queue = list(reversed(ids))

        async def client():
            while queue:
                job_id = queue.pop()
                request = rec.request(job_id)
                rec.submit(job_id)
                rec.finish(job_id, await self.service.submit_and_wait(request))

        async def block():
            await asyncio.gather(*(client() for _ in range(self.clients)))

        self.loop.run_until_complete(block())

    def close(self):
        self.loop.run_until_complete(self.service.shutdown())
        self.loop.close()
        self.journal.close()


class ServeBatched:
    """``DurableEngine`` over two fabrics with ``max_batch`` lanes and a
    journal; one client sends same-configuration bursts."""

    def __init__(self, cfg, args, work: Path, ctx):
        from repro.serve.durability.engine import DurableEngine
        from repro.serve.durability.journal import FsyncPolicy
        from repro.serve.sessions import CancelToken

        self.burst = cfg["burst"]
        self.engine = DurableEngine(
            work / "journal", pool_size=WORKERS,
            fsync=FsyncPolicy.NEVER, max_batch=self.burst, lock=True)
        ctx.pools = [self.engine.pool]
        # Cold sessions run their first lane on the scalar path, so each
        # fabric also runs every configuration's scalar warm-up.
        warm = _configs(cfg["mix"], args.seed)
        for worker in self.engine.pool:
            for kind in sorted(cfg["mix"]):
                for request in _warm_requests(warm[kind], worker.id):
                    worker.execute(request, CancelToken())
                jobs = make_jobs([kind] * self.burst * 2, args.seed,
                                 f"warm-batch-{kind}")
                requests = _warm_requests(jobs, worker.id)
                worker.execute_batch(requests[:self.burst], CancelToken())
                worker.execute_batch(requests[self.burst:], CancelToken())

    def run_block(self, rec, ids):
        engine = self.engine
        for start in range(0, len(ids), self.burst):
            burst = ids[start:start + self.burst]
            for job_id in burst:
                rec.submit(job_id)
                engine.submit(rec.request(job_id))
            while engine.queue:
                engine.step()
            for job_id in burst:
                rec.finish(job_id, engine.results[job_id])

    def close(self):
        self.engine.close()


class ClusterProc:
    """``ShardRouter`` over real ``ProcShardWorker`` subprocesses with
    rebalancing; a closed loop keeps ``window`` jobs outstanding."""

    def __init__(self, cfg, args, work: Path, ctx):
        from repro.cluster.proc.shard import ProcShardWorker
        from repro.cluster.router import ShardRouter

        self.window = cfg["window"]
        self.router = ShardRouter(
            work / "cluster", [f"shard-{i}" for i in range(WORKERS)],
            worker_factory=lambda name, directory: ProcShardWorker(
                name, directory, pool_size=1))
        self.ctx = ctx
        ctx.shard_pids = [s.pid for s in self.router.shards.values()]
        try:
            warm = _configs(cfg["mix"], args.seed)
            for jobs in warm.values():
                self.router.routing_key(jobs[0].spec)
            # Each shard warms every configuration: stealing can move a
            # job of any configuration to either shard.
            for shard in self.router.shards.values():
                for jobs in warm.values():
                    for request in _warm_requests(jobs, shard.name):
                        shard.submit(request)
                        shard.step_one()
        except BaseException:
            self.router.close()
            raise
        self.retries_before = self._retries()

    def _retries(self):
        return sum(s.rpc.retries for s in self.router.shards.values())

    def run_block(self, rec, ids):
        router = self.router
        pending = list(reversed(ids))
        outstanding: set[str] = set()
        while pending or outstanding:
            while pending and len(outstanding) < self.window:
                job_id = pending.pop()
                rec.submit(job_id)
                pre = router.submit(rec.request(job_id))
                if pre is not None:
                    rec.finish(job_id, pre)
                else:
                    outstanding.add(job_id)
            router.rebalance()
            router.step_round()
            for job_id in [j for j in outstanding if j in router.results]:
                outstanding.discard(job_id)
                rec.finish(job_id, router.results[job_id])

    def close(self):
        self.ctx.steals = self.router.steals
        self.ctx.rpc_retries = self._retries() - self.retries_before
        self.ctx.shard_peak_kb = sum(_status_kb(p, "VmHWM")
                                     for p in self.ctx.shard_pids)
        self.router.close()


WORKLOADS = {
    "serve-mix": ServeMix,
    "serve-batched": ServeBatched,
    "cluster-proc": ClusterProc,
}


# ---------------------------------------------------------------------------
# timed-region bookkeeping
# ---------------------------------------------------------------------------


class Context:
    """Times the blocks of the timed region and probes between them.

    The probes run between blocks, outside every measured quantity.
    """

    def __init__(self, work: Path, tracer=None):
        self.work = work
        self.tracer = tracer
        self.pools = []
        self.shard_pids: list[int] = []
        self.steals = 0
        self.rpc_retries = 0
        self.shard_peak_kb = 0
        self.setup_done = 0.0
        self.setup_cache: dict = {}
        self.cold_starts_before = 0
        self.probes: list[float] = []
        self.blocks: list[dict] = []
        self.sums = defaultdict(float)

    def probe(self) -> None:
        self.probes.append(probe())

    def _cpu(self) -> tuple[float, float]:
        return (time.process_time(),
                sum(_cpu_s(p) for p in self.shard_pids))

    def _counters(self):
        from repro.compile.cache import cache_stats

        stats = cache_stats()
        records, size = _journal_totals(self.work)
        return {"journal_records": records, "journal_bytes": size,
                "cache_hits": stats.hits + stats.disk_hits,
                "cache_requests": stats.requests}

    def run(self, stack, rec, blocks):
        """Run every block timed, with a probe before and after each.

        CPU time is summed per block, because the probes spend it too;
        the traced counters only move inside blocks, so they are read
        once at each end of the timed region.
        """
        tracer = self.tracer
        self.setup_done = time.monotonic()
        # Compiling happens in set-up; its counters from process start.
        self.setup_cache = self._counters()
        self.cold_starts_before = sum(w.cold_starts for pool in self.pools
                                      for w in pool)
        self.probe()
        if tracer is not None:
            tracer.reset()
            first = self._counters()
        for ids in blocks:
            cpu0 = self._cpu()
            start = time.monotonic()
            stack.run_block(rec, ids)
            load_s = time.monotonic() - start
            cpu1 = self._cpu()
            self.sums["cpu"] += cpu1[0] - cpu0[0]
            self.sums["workers_cpu"] += cpu1[1] - cpu0[1]
            self.blocks.append({"ids": ids, "load_s": load_s})
            if tracer is not None:
                tracer.enabled = False
            self.probe()
            if tracer is not None:
                tracer.enabled = True
        if tracer is not None:
            tracer.enabled = False
            last = self._counters()
            for key, value in last.items():
                self.sums[key] += value - first[key]


# ---------------------------------------------------------------------------
# oracle check and result file
# ---------------------------------------------------------------------------


def check_outputs(rec, tracer):
    """Oracle-check every result; returns per-job verdicts and reasons,
    and (traced runs) the oracle's own seconds per kernel."""
    from repro.compile.frontends import get_frontend

    verdicts, reasons = {}, {}
    reference_s = defaultdict(float)
    for job_id, job in rec.jobs.items():
        result = rec.results.get(job_id)
        frontend = get_frontend(job.kind)
        if result is None or not result.ok:
            verdicts[job_id] = "failed"
            reasons[job_id] = (result.error if result is not None
                               else "no result")
            continue
        if tracer is not None and frontend.reference is not None:
            start = time.perf_counter()
            frontend.reference(job.params, job.payload)
            reference_s[job.kind] += time.perf_counter() - start
        try:
            frontend.check_output(job.params, job.payload, result.output)
        except Exception as exc:  # any oracle disagreement is a wrong output
            verdicts[job_id] = "wrong"
            reasons[job_id] = f"oracle: {exc}"
        else:
            verdicts[job_id] = "ok"
    return verdicts, reasons, reference_s


def layer_sums(rec, ctx, tracer, ok, reference_s, service: bool):
    """Additive per-layer quantities of this segment (traced runs).

    ``service`` marks the workload that runs jobs through
    ``FabricJobService``, the only one with a queue wait to measure.
    """
    totals = tracer.totals()
    per_job = tracer.per_job()

    def t(name, key="incl"):
        return totals[name][key] if name in totals else 0.0

    def calls(name):
        return totals[name]["calls"] if name in totals else 0

    def lanes(name):
        return totals[name]["lanes"] if name in totals else 0

    rpc_names = [n for n in totals if n.startswith("rpc.")]
    dispatched = tracer.starts("pool.execute") if service else {}
    waits, overhead = [], 0.0
    for job_id in ok:
        if job_id in dispatched:
            wait = dispatched[job_id] - rec.submitted[job_id]
            latency = rec.done[job_id] - rec.submitted[job_id]
            waits.append(wait * 1e3)
            overhead += latency - wait - per_job[job_id].get("pool", 0.0)
    results = [rec.results[j] for j in ok]
    sums = ctx.sums
    in_cluster = bool(ctx.shard_pids)
    layers = {
        "jobs": len(ok),
        "compile_lookups": calls("compile.lookup"),
        "cache_hits": sums["cache_hits"],
        "cache_requests": sums["cache_requests"],
        "setups": 1,
        "setup_cache_hits": ctx.setup_cache["cache_hits"],
        "setup_cache_requests": ctx.setup_cache["cache_requests"],
        "fabric_execute_s": t("fabric.execute", "top"),
        "fabric_batch_s": t("fabric.batch"),
        "fabric_batch_lanes": lanes("fabric.batch"),
        "fabric_batch_calls": calls("fabric.batch"),
        "fabric_setup_s": t("fabric.setup"),
        "fabric_setup_calls": calls("fabric.setup"),
        "sim_ns": sum(r.sim_ns for r in results),
        "reconfig_ns": sum(r.reconfig_ns for r in results),
        "reference_s": sum(reference_s.values()),
        "session_run_self_s": t("session.run", "self"),
        "session_batch_self_s": t("session.batch", "self"),
        "session_batch_lanes": lanes("session.batch"),
        "pool_execute_self_s": t("pool.execute", "self"),
        "cold_starts": sum(w.cold_starts for pool in ctx.pools
                           for w in pool) - ctx.cold_starts_before,
        "warm_jobs": sum(1 for r in results if r.warm),
        "queue_waits_ms": waits,
        "service_overhead_s": overhead,
        "journal_appends": sums["journal_records"],
        "journal_append_s": t("journal.append"),
        "journal_bytes": sums["journal_bytes"],
        "engine_step_self_s": t("engine.step", "self"),
        "router_submit_s": t("router.submit"),
        "router_rebalance_s": t("router.rebalance"),
        "steals": ctx.steals,
        "router_cpu_s": sums["cpu"] if in_cluster else 0.0,
        "rpc_calls": sum(calls(n) for n in rpc_names),
        "rpc_probe_calls": calls("rpc.finished") + calls("rpc.has_job"),
        "rpc_queue_depth_calls": calls("rpc.queue_depth"),
        "rpc_round_trips_ms": [d * 1e3 for d in tracer.durations("rpc.")],
        "rpc_retries": ctx.rpc_retries,
        "wire_bytes": tracer.wire_bytes["sent"]
        + tracer.wire_bytes["received"],
        "worker_cpu_s": sums["workers_cpu"],
        "cluster_cpu_s": sums["cpu"] + sums["workers_cpu"]
        if in_cluster else 0.0,
        "wall_s": sum(b["load_s"] for b in ctx.blocks),
    }
    # The measured ladder: per kernel, seconds spent at each rung.
    ladder = defaultdict(lambda: defaultdict(float))
    for job_id in ok:
        row = ladder[rec.jobs[job_id].kind]
        row["jobs"] += 1
        for layer, seconds in per_job.get(job_id, {}).items():
            row[layer] += seconds
        if job_id in dispatched:
            row["in_service"] += rec.done[job_id] - dispatched[job_id]
    # The router rung of a job holds its submit, its step round trip
    # and an even share of the rounds' and rebalancing's own time.
    shared = (t("router.rebalance") + t("router.step_round", "self")) \
        / max(1, len(ok))
    for job_id in ok:
        row = ladder[rec.jobs[job_id].kind]
        if "router" in row:
            row["router"] += per_job[job_id].get("shard", 0.0) + shared
    for kind, seconds in reference_s.items():
        ladder[kind]["reference"] += seconds
    layers["ladder"] = {k: dict(v) for k, v in ladder.items()}
    return layers


def make_blocks(cfg, args) -> list[list[str]]:
    """The segment's job ids (the exact seeded mix), cut into blocks."""
    unit = cfg.get("burst", 1)
    kinds = kind_sequence(cfg["mix"], args.count, args.seed,
                          f"segment-{args.segment}")
    ids = [f"{kind}-{index * unit + lane}"
           for index, kind in enumerate(kinds) for lane in range(unit)]
    n_blocks = min(cfg["blocks"], args.count)
    bounds = [round(b * args.count / n_blocks) * unit
              for b in range(n_blocks + 1)]
    return [ids[bounds[b]:bounds[b + 1]] for b in range(n_blocks)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--segment", type=int, required=True)
    parser.add_argument("--count", type=int, required=True,
                        help="jobs (bursts on serve-batched) to time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path.cwd() / "src"))
    spec = json.loads((HERE / "spec.json").read_text())
    cfg = spec["workloads"][args.workload]
    # A journal left by an earlier run would replay its finished jobs as
    # recorded results instead of executing them.
    args.workdir.mkdir(parents=True, exist_ok=True)
    if any(args.workdir.iterdir()):
        print(f"segment: work directory {args.workdir} is not empty",
              file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
    from repro.compile.frontends import import_all_frontends

    import_all_frontends()
    blocks = make_blocks(cfg, args)
    kinds = [job_id.split("-")[0] for ids in blocks for job_id in ids]
    rec = Recorder(make_jobs(kinds, args.seed, f"segment-{args.segment}"),
                   [j for ids in blocks for j in ids])
    ctx = Context(args.workdir, tracer)
    stack = WORKLOADS[args.workload](cfg, args, args.workdir, ctx)
    try:
        ctx.run(stack, rec, blocks)
    finally:
        stack.close()
    own_peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    verdicts, reasons, reference_s = check_outputs(rec, tracer)
    ok = [j for j, v in verdicts.items() if v == "ok"]
    okset = set(ok)
    result = {
        "setup_s": ctx.setup_done - args.spawned_at,
        "probes_ms": ctx.probes,
        "blocks": [{
            "load_s": b["load_s"],
            "ok": sum(1 for j in b["ids"] if j in okset),
            "latencies_ms": [(rec.done[j] - rec.submitted[j]) * 1e3
                             for j in b["ids"] if j in okset],
        } for b in ctx.blocks],
        "attempted": len(rec.jobs),
        "ok": len(ok),
        "failed": sum(1 for v in verdicts.values() if v == "failed"),
        "wrong": sum(1 for v in verdicts.values() if v == "wrong"),
        "reasons": sorted(set(reasons.values())),
        "sim_ns": sum(rec.results[j].sim_ns for j in ok),
        "peak_rss_mb": (own_peak_kb + ctx.shard_peak_kb) / 1024.0,
    }
    if tracer is not None:
        result["layers"] = layer_sums(rec, ctx, tracer, ok, reference_s,
                                      args.workload == "serve-mix")
        if args.spans is not None:
            tracer.write(args.spans)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
