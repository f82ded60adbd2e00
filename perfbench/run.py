"""The repository's end-to-end and per-layer benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 16 --trace 0

``--workload`` is one of ``serve-mix``, ``serve-batched`` and
``cluster-proc`` (see ``spec.json`` for what each one drives and why).
The seed fixes the job list; ``--seconds`` sizes it (jobs = the
workload's nominal rate x seconds), so one seed and one length always
mean identical work, never a time box.

The job list is split into segments and each segment runs in a fresh
process (``segment.py``) that sets the stack up from nothing, so
``setup_s`` is the median of several set-ups from process start.  Each
segment's timed jobs run in blocks.  Between blocks, with the program
idle, a fixed host-speed probe (``probe.py``) runs; every host-time
metric is scaled to the reference probe time in ``spec.json``: each
block's time by the mean of the probes on either side of it over the
reference (rates by that ratio, durations by its inverse), and set-up
by the probes just before the process started and just after set-up
(except on cluster-proc, see ``UNSCALED_SETUP``).  The raw values are
printed beside the adjusted ones.

With ``--trace 0`` the last line of standard output is the JSON object
of every end-to-end metric; with ``--trace 1`` the segments run traced
(plus one untraced segment for the tracing overhead) and it holds
every per-layer metric instead.  Traced runs also write the spans and
the per-kernel ladder under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from probe import probe  # noqa: E402

#: Wall-clock budget of the whole run; a segment that would overrun it
#: is killed with its shard subprocesses and the run fails.
RUN_BUDGET_S = 170.0

#: Fresh processes each run's job list is split into; setup_s is the
#: median of their set-ups.
SEGMENTS = 3

#: Workloads whose set-up is reported raw.  cluster-proc's set-up is
#: mostly spawning and importing the shard subprocesses, which the CPU
#: probe does not track: over ten seeds its readings correlated with
#: set-up time at 0.1-0.3, and scaling by them widened the run-to-run
#: spread of setup_s (13% raw, 14-23% scaled).
UNSCALED_SETUP = {"cluster-proc"}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def quantile(values: list[float], q: int) -> float:
    """The ``q``-th percentile, interpolated between samples."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_segment(workload, seed, index, count, trace, work: Path,
                out_dir: Path, deadline: float) -> dict:
    out = work / f"segment-{index}-trace{trace}.json"
    seg_dir = work / f"segment-{index}-trace{trace}"
    tmp = work / f"tmp-{index}-trace{trace}"
    tmp.mkdir(parents=True, exist_ok=True)
    argv = [sys.executable, str(HERE / "segment.py"),
            "--workload", workload, "--seed", str(seed),
            "--segment", str(index), "--count", str(count),
            "--trace", str(trace), "--workdir", str(seg_dir),
            "--out", str(out)]
    if trace:
        argv += ["--spans", str(out_dir / f"spans-seed{seed}-seg{index}.jsonl")]
    env = dict(os.environ, TMPDIR=str(tmp), PYTHONDONTWRITEBYTECODE="1")
    spawn_probe_ms = probe()
    spawned_at = time.monotonic()
    # Its own session, so a timeout can stop the shard subprocesses too.
    proc = subprocess.Popen(argv + ["--spawned-at", repr(spawned_at)],
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        _, stderr = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"segment {index} of {workload} overran the "
                           f"{RUN_BUDGET_S:.0f} s run budget")
    if proc.returncode != 0 or not out.exists():
        raise RuntimeError(
            f"segment {index} of {workload} exited {proc.returncode}:\n"
            f"{stderr[-4000:]}")
    result = json.loads(out.read_text())
    result["spawn_probe_ms"] = spawn_probe_ms
    shutil.rmtree(seg_dir, ignore_errors=True)
    shutil.rmtree(tmp, ignore_errors=True)
    return result


def sum_layers(segments: list[dict]) -> dict:
    """Add the segments' per-layer sums (lists concatenate)."""
    total: dict = {}
    for seg in segments:
        for key, value in seg["layers"].items():
            if key == "ladder":
                ladder = total.setdefault("ladder", {})
                for kind, row in value.items():
                    dst = ladder.setdefault(kind, {})
                    for rung, seconds in row.items():
                        dst[rung] = dst.get(rung, 0.0) + seconds
            elif isinstance(value, list):
                total.setdefault(key, []).extend(value)
            else:
                total[key] = total.get(key, 0) + value
    return total


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def block_factors(segment: dict, reference_ms: float) -> list[float]:
    """Host-speed factor of each timed block: the mean of the probes
    before and after it, over the reference probe time."""
    p = segment["probes_ms"]
    return [(p[i] + p[i + 1]) / 2 / reference_ms
            for i in range(len(segment["blocks"]))]


def warm_drift(segment: dict, reference_ms: float) -> float:
    """Adjusted throughput of the first quarter of a segment's blocks
    over that of the last quarter (both hold the same kernel mix): below
    1.0 while warm-up was still unfinished."""
    pairs = list(zip(segment["blocks"], block_factors(segment,
                                                       reference_ms)))
    quarter = max(1, len(pairs) // 4)

    def rate(part):
        return ratio(sum(b["ok"] for b, _ in part),
                     sum(b["load_s"] / f for b, f in part))

    return ratio(rate(pairs[:quarter]), rate(pairs[-quarter:]))


def per_layer_metrics(layers: dict) -> dict[str, float]:
    jobs = layers["jobs"]

    def ms_per_job(key):
        return ratio(layers[key], jobs) * 1e3

    def p50(key):
        return quantile(layers[key], 50) if len(layers[key]) > 1 else 0.0

    return {
        "compile.lookups_per_job": ratio(layers["compile_lookups"], jobs),
        "compile.hit_ratio": ratio(layers["cache_hits"],
                                   layers["cache_requests"]),
        "compile.setup_lookups": ratio(layers["setup_cache_requests"],
                                       layers["setups"]),
        "compile.setup_hit_ratio": ratio(layers["setup_cache_hits"],
                                         layers["setup_cache_requests"]),
        "fabric.execute_ms_per_job": ms_per_job("fabric_execute_s"),
        "fabric.batch_ms_per_lane": ratio(layers["fabric_batch_s"],
                                          layers["fabric_batch_lanes"]) * 1e3,
        "fabric.lanes_per_dispatch": ratio(layers["fabric_batch_lanes"],
                                           layers["fabric_batch_calls"]),
        "fabric.setup_ms_per_cold_start": ratio(
            layers["fabric_setup_s"], layers["fabric_setup_calls"]) * 1e3,
        "fabric.sim_reconfig_share": ratio(layers["reconfig_ns"],
                                           layers["sim_ns"]),
        "kernels.reference_ms_per_job": ms_per_job("reference_s"),
        "session.run_self_ms_per_job": ms_per_job("session_run_self_s"),
        "session.batch_self_ms_per_lane": ratio(
            layers["session_batch_self_s"],
            layers["session_batch_lanes"]) * 1e3,
        "pool.execute_self_ms_per_job": ms_per_job("pool_execute_self_s"),
        "pool.cold_starts_per_job": ratio(layers["cold_starts"], jobs),
        "pool.warm_ratio": ratio(layers["warm_jobs"], jobs),
        "service.queue_wait_ms_p50": p50("queue_waits_ms"),
        "service.overhead_ms_per_job": ms_per_job("service_overhead_s"),
        "journal.appends_per_job": ratio(layers["journal_appends"], jobs),
        "journal.append_ms_per_job": ms_per_job("journal_append_s"),
        "journal.bytes_per_job": ratio(layers["journal_bytes"], jobs),
        "engine.step_self_ms_per_job": ms_per_job("engine_step_self_s"),
        "router.submit_ms_per_job": ms_per_job("router_submit_s"),
        "router.rebalance_ms_per_job": ms_per_job("router_rebalance_s"),
        "router.steals_per_job": ratio(layers["steals"], jobs),
        "router.cpu_ms_per_job": ms_per_job("router_cpu_s"),
        "rpc.calls_per_job": ratio(layers["rpc_calls"], jobs),
        "rpc.probe_calls_per_job": ratio(layers["rpc_probe_calls"], jobs),
        "rpc.queue_depth_calls_per_job": ratio(
            layers["rpc_queue_depth_calls"], jobs),
        "rpc.round_trip_ms_p50": p50("rpc_round_trips_ms"),
        "rpc.retries_per_job": ratio(layers["rpc_retries"], jobs),
        "wire.bytes_per_job": ratio(layers["wire_bytes"], jobs),
        "worker.cpu_ms_per_job": ms_per_job("worker_cpu_s"),
        "cluster.parallelism": ratio(layers["cluster_cpu_s"],
                                     layers["wall_s"]),
    }


#: The measured ladder's rungs, innermost first, as (name, layer key).
LADDER_RUNGS = [
    ("reference", "reference"), ("fabric", "fabric"),
    ("session", "session"), ("pool", "pool"),
    ("service", "in_service"), ("engine", "engine"),
    ("rpc/worker", "shard"), ("router", "router"),
]


def ladder_summary(layers: dict, factor: float) -> dict:
    """Per kernel: microseconds per job at each rung present (scaled to
    the reference host speed by ``factor``), and the delta from the rung
    below (that layer's own cost)."""
    summary = {}
    for kind, row in sorted(layers.get("ladder", {}).items()):
        jobs = row.get("jobs", 0)
        rungs, previous = [], None
        for name, key in LADDER_RUNGS:
            if not row.get(key):
                continue
            us = row[key] / jobs * 1e6 / factor
            rungs.append({"rung": name, "us_per_job": us,
                          "delta_us": us - previous if previous is not None
                          else us})
            previous = us
        summary[kind] = {"jobs": jobs, "rungs": rungs}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_BUDGET_S
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        return fail("no src/repro under the current directory; run from "
                    "the root of a checkout of the repository")
    spec = json.loads((HERE / "spec.json").read_text())
    if args.workload not in spec["workloads"]:
        return fail(f"unknown workload {args.workload!r} "
                    f"(expected one of {sorted(spec['workloads'])})")
    if args.seconds < 1:
        return fail("--seconds must be at least 1")
    cfg = spec["workloads"][args.workload]
    reference_ms = spec["reference_probe_ms"]

    total = max(SEGMENTS, round(cfg["units_per_second"] * args.seconds))
    counts = [total // SEGMENTS + (1 if i < total % SEGMENTS else 0)
              for i in range(SEGMENTS)]
    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    out_dir = root / ".perfbench_out" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    if args.trace:
        out_dir.mkdir(parents=True, exist_ok=True)
        for old in out_dir.glob("spans-*.jsonl"):
            old.unlink()
    try:
        segments = []
        for index, count in enumerate(counts):
            segments.append(run_segment(args.workload, args.seed, index,
                                        count, args.trace, work, out_dir,
                                        deadline))
        untraced0 = None
        if args.trace:
            untraced0 = run_segment(args.workload, args.seed, 0, counts[0],
                                    0, work, out_dir, deadline)
    except RuntimeError as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    ok = sum(s["ok"] for s in segments)
    attempted = sum(s["attempted"] for s in segments)
    failed = sum(s["failed"] + s["wrong"] for s in segments)
    wrong = sum(s["wrong"] for s in segments)
    lat_raw = [x for s in segments for b in s["blocks"]
               for x in b["latencies_ms"]]
    if len(lat_raw) < 100:
        return fail(f"only {len(lat_raw)} latency samples; p90 needs 100 "
                    f"(raise --seconds)")
    load_raw = sum(b["load_s"] for s in segments for b in s["blocks"])
    # Each block is scaled by the probes on either side of it: host
    # speed on a shared machine changes within seconds, and a latency
    # percentile is made of short intervals that saw one speed each.
    blocks = [(b, f) for s in segments
              for b, f in zip(s["blocks"], block_factors(s, reference_ms))]
    load_adj = sum(b["load_s"] / f for b, f in blocks)
    lat_adj = [x / f for b, f in blocks for x in b["latencies_ms"]]
    # Set-up is scaled by the probe just before the process started and
    # the segment's first one.
    setup_adj = [s["setup_s"] if args.workload in UNSCALED_SETUP
                 else s["setup_s"] * 2 * reference_ms
                 / (s["spawn_probe_ms"] + s["probes_ms"][0])
                 for s in segments]
    drift = statistics.median(warm_drift(s, reference_ms) for s in segments)
    probes = [p for s in segments
              for p in [s["spawn_probe_ms"], *s["probes_ms"]]]
    raw = {
        "jobs_per_s": ratio(ok, load_raw),
        "latency_p50_ms": quantile(lat_raw, 50),
        "latency_p90_ms": quantile(lat_raw, 90),
        "setup_s": statistics.median(s["setup_s"] for s in segments),
    }
    e2e = {
        "jobs_per_s": (ratio(ok, load_adj), "1/s"),
        "latency_p50_ms": (quantile(lat_adj, 50), "ms"),
        "latency_p90_ms": (quantile(lat_adj, 90), "ms"),
        "ok_share": (ratio(ok, attempted), "ratio"),
        "sim_us_per_job": (ratio(sum(s["sim_ns"] for s in segments), ok)
                           / 1e3, "sim_us"),
        "setup_s": (statistics.median(setup_adj), "s"),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"]
                                          for s in segments), "MB"),
    }
    host_probe = statistics.fmean(probes)
    print(f"workload {args.workload}  seed {args.seed}  jobs {attempted} "
          f"(ok {ok}, failed {failed - wrong}, wrong output {wrong})  "
          f"segments {SEGMENTS}  latency samples {len(lat_raw)}")
    print(f"host probe mean {host_probe:.4f} ms over {len(probes)} "
          f"readings, range {min(probes):.4f}-{max(probes):.4f} "
          f"(reference {reference_ms} ms)")
    if args.trace:
        print("  (traced run: end-to-end figures below are for reference "
              "only)")
    for name, (value, unit) in e2e.items():
        note = f"  raw {raw[name]:.6g}" if name in raw else ""
        print(f"  {name:<16} {value:>12.6g} {unit}{note}")
    print(f"  warm drift (first / last quarter of blocks, throughput) {drift:.4f}")
    reasons = sorted({r for s in segments for r in s["reasons"]})
    for reason in reasons:
        print(f"  failure: {reason}")

    if args.trace:
        layers = sum_layers(segments)
        metrics = per_layer_metrics(layers)

        def own_rate(seg):
            return ratio(seg["ok"], sum(
                b["load_s"] / f for b, f in
                zip(seg["blocks"], block_factors(seg, reference_ms))))

        traced_rate = own_rate(segments[0])
        untraced_rate = own_rate(untraced0)
        metrics.update({
            "bench.host_probe_ms": host_probe,
            "bench.raw_jobs_per_s": raw["jobs_per_s"],
            "bench.tracing_overhead": ratio(untraced_rate, traced_rate),
            "bench.warm_drift": drift,
        })
        # Per-layer times are host times too: scaled by the run's
        # effective factor (raw over adjusted load time).
        factor = load_raw / load_adj
        for name, m in spec["per_layer"].items():
            if m["unit"] == "ms" and name != "bench.host_probe_ms":
                metrics[name] /= factor
        ladder = ladder_summary(layers, factor)
        (out_dir / "ladder.json").write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed,
             "ladder": ladder}, indent=1))
        for kind, row in ladder.items():
            steps = "  ".join(f"{r['rung']} {r['us_per_job']:.0f}"
                              f" (+{r['delta_us']:.0f})" for r in row["rungs"])
            print(f"  ladder {kind:<7} {steps}  us/job")
        units = {name: m["unit"] for name, m in spec["per_layer"].items()}
        out = {name: {"value": metrics[name], "unit": units[name]}
               for name in units}
        for name, metric in out.items():
            print(f"  {name:<32} {metric['value']:>12.6g} {metric['unit']}")
    else:
        out = {name: {"value": value, "unit": unit}
               for name, (value, unit) in e2e.items()}
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
