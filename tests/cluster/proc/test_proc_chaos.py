"""The real-process chaos matrix: SIGKILL, SIGSTOP, torn frames, EPIPE.

Each case runs :func:`run_proc_scenario` — actual worker subprocesses
behind the framed transport — fires one real process fault mid-trace,
and asserts the full invariant set: the fault fired, no acked job was
lost, nothing executed twice, outputs stayed bit-identical to a
fault-free baseline across the wire, and the victim rejoined the ring
as a healthy fresh member.

These are the slowest tests in the suite (every case spawns 3-4 OS
processes and one respawn); the job counts are the smallest that still
drive every protocol edge.
"""

from __future__ import annotations

import pytest

from repro.chaos import ProcFault
from repro.cluster.proc.harness import (
    ProcReport,
    ProcScenario,
    audit_journals,
    run_proc_scenario,
)
from repro.errors import ChaosError
from repro.serve.durability.journal import FsyncPolicy, JobJournal

pytestmark = pytest.mark.slow


def _run(tmp_path, scenario: ProcScenario):
    report = run_proc_scenario(scenario, tmp_path / "proc")
    assert report.violations == []
    assert report.ok
    return report


class TestNoFault:
    def test_clean_run_completes_everything(self, tmp_path):
        report = _run(tmp_path, ProcScenario(fault=None, n_jobs=9))
        assert report.jobs_completed == 9
        assert report.fault_fired is False
        assert report.duplicate_executions == 0


class TestFaultMatrix:
    def test_sigkill_mid_trace(self, tmp_path):
        report = _run(
            tmp_path,
            ProcScenario(
                fault=ProcFault(kind="sigkill", after_completions=4),
                n_jobs=12,
            ),
        )
        assert report.fault_fired and report.victim
        assert report.rejoined
        assert report.rejoin["ok"]
        assert report.jobs_completed == 12

    def test_sigstop_hang_is_detected_and_killed(self, tmp_path):
        report = _run(
            tmp_path,
            ProcScenario(
                fault=ProcFault(kind="sigstop", after_completions=4),
                n_jobs=12,
                heartbeat_timeout_s=0.5,
                call_timeout_s=2.0,
            ),
        )
        assert report.fault_fired and report.rejoined
        assert report.jobs_completed == 12

    def test_torn_frame_poisons_then_rejoins(self, tmp_path):
        report = _run(
            tmp_path,
            ProcScenario(
                fault=ProcFault(kind="torn", torn_response=10),
                victim=0,
                n_jobs=12,
            ),
        )
        assert report.fault_fired and report.rejoined
        assert report.jobs_completed == 12

    @pytest.mark.parametrize(
        "torn_op, torn_response, victim",
        [
            # shard-0 only ever receives stolen work on this trace: its
            # first submit is a steal's thief-side SUBMITTED, and the
            # RpcError must not escape rebalance().
            ("submit", 1, 0),
            # shard-1 is the steal victim: its first release is a steal's
            # victim-side MOVED, so the job stays in both journals.
            ("release", 1, 1),
            # shard-0's first step finishes a stolen job and tears.  The
            # rejoin gate's compaction then keeps only its DONE record,
            # which the MOVED audit must count as ownership.
            ("step", 1, 0),
            ("heartbeat", 2, 0),
        ],
    )
    def test_torn_frame_addressed_by_op(
        self, tmp_path, torn_op, torn_response, victim
    ):
        report = _run(
            tmp_path,
            ProcScenario(
                fault=ProcFault(
                    kind="torn", torn_op=torn_op, torn_response=torn_response
                ),
                victim=victim,
                n_jobs=12,
            ),
        )
        assert report.fault_fired and report.rejoined
        assert report.steals > 0
        assert report.jobs_completed == 12

    def test_epipe_submit_is_typed_and_retried(self, tmp_path):
        report = _run(
            tmp_path,
            ProcScenario(
                fault=ProcFault(kind="epipe", after_completions=4),
                n_jobs=12,
            ),
        )
        assert report.fault_fired
        assert report.epipe_typed  # the dead-pipe submit raised typed
        assert report.rejoined
        assert report.jobs_completed == 12  # including the held-back job


def _journal(root, name, *records):
    journal = JobJournal(root / name, fsync=FsyncPolicy.NEVER, lock=False)
    for kind, job_id in records:
        getattr(journal, kind)(job_id, {})
    journal.close()


class TestJournalAudit:
    def test_done_elsewhere_counts_as_ownership(self, tmp_path):
        # Stolen, finished on the thief, then the thief's journal was
        # compacted down to the DONE record by the rejoin gate.
        _journal(tmp_path, "shard-0", ("submitted", "j1"), ("moved", "j1"))
        _journal(tmp_path, "shard-1", ("done", "j1"))
        report = ProcReport()
        audit_journals(tmp_path, ["shard-0", "shard-1"], report)
        assert report.violations == []

    def test_moved_into_the_void_is_still_flagged(self, tmp_path):
        _journal(tmp_path, "shard-0", ("submitted", "j1"), ("moved", "j1"))
        _journal(tmp_path, "shard-1", ("submitted", "j2"))
        report = ProcReport()
        audit_journals(tmp_path, ["shard-0", "shard-1"], report)
        assert report.violations == [
            "shard-0/j1: MOVED but SUBMITTED or DONE nowhere else"
        ]


class TestFaultSpec:
    def test_torn_op_rides_in_the_spawn_env(self):
        fault = ProcFault(kind="torn", torn_op="step", torn_response=2)
        assert fault.spawn_env == {
            "REPRO_PROC_TORN_AFTER": "2",
            "REPRO_PROC_TORN_OP": "step",
        }
        assert "REPRO_PROC_TORN_OP" not in ProcFault(kind="torn").spawn_env

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "sigkill", "torn_op": "step"},
            {"kind": "torn", "torn_response": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ChaosError):
            ProcFault(**kwargs)
