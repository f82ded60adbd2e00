"""Self-checks of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench -q``
(about two minutes: it runs the benchmark eight times).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import apportion, kind_sequence  # noqa: E402

#: Metrics that count work, so must repeat exactly for one seed on the
#: workloads whose scheduling is deterministic.
COUNT_METRICS = (
    "rpc.calls_per_job",
    "rpc.probe_calls_per_job",
    "rpc.queue_depth_calls_per_job",
    "rpc.retries_per_job",
    "journal.appends_per_job",
    "fabric.lanes_per_dispatch",
    "compile.lookups_per_job",
    "compile.setup_lookups",
    "pool.cold_starts_per_job",
)


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_apportion_is_exact_and_seeded():
    mix = {"fft": 0.3, "jpeg": 0.2, "conv2d": 0.2, "gemm": 0.15, "dsp": 0.15}
    kinds = apportion(mix, 20)
    assert {k: kinds.count(k) for k in mix} == {
        "fft": 6, "jpeg": 4, "conv2d": 4, "gemm": 3, "dsp": 3}
    assert len(apportion(mix, 7)) == 7
    assert kind_sequence(mix, 40, 3, "s") == kind_sequence(mix, 40, 3, "s")
    assert kind_sequence(mix, 40, 3, "s") != kind_sequence(mix, 40, 4, "s")
    # Every quarter of the list holds the mix, to within one job a kind.
    kinds = kind_sequence(mix, 800, 3, "s")
    for q in range(4):
        part = kinds[q * 200:(q + 1) * 200]
        for kind, share in mix.items():
            assert abs(part.count(kind) - share * 200) <= 1, (q, kind)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("serve-mix", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_matches_spec():
    spec = json.loads((HERE / "spec.json").read_text())
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(
        spec["workloads"])
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == {
        name: m["unit"] for name, m in spec["end_to_end"].items()}
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {
        name: m["unit"] for name, m in spec["per_layer"].items()}


@pytest.mark.parametrize("workload", ["serve-batched", "cluster-proc"])
def test_one_seed_repeats_counts_exactly(workload):
    traced = [last_json(bench(workload, 5, 1)) for _ in range(2)]
    for run in traced:
        assert run["correct"] is True
    for name in COUNT_METRICS:
        values = [run["metrics"][name]["value"] for run in traced]
        assert values[0] == values[1], (name, values)
    if workload == "cluster-proc":
        assert traced[0]["metrics"]["rpc.calls_per_job"]["value"] > 0
        assert traced[0]["metrics"]["cluster.parallelism"]["value"] > 0
    else:
        assert traced[0]["metrics"]["fabric.lanes_per_dispatch"][
            "value"] > 1
    plain = [last_json(bench(workload, 5, 0)) for _ in range(2)]
    sims = [run["metrics"]["sim_us_per_job"]["value"] for run in plain]
    assert sims[0] == sims[1]
    assert plain[0]["attempted"] == plain[1]["attempted"]
