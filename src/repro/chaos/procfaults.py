"""Real process-level faults for the multi-process cluster tier.

The crash points of :mod:`repro.chaos.crashpoints` simulate death *in*
process: an exception unwinds the stack at a chosen byte.  A real shard
subprocess can die in ways no in-process simulation reaches — the
kernel reaps it mid-``write`` (torn frame on the pipe), SIGSTOP freezes
it with the journal lock held, the router's next ``submit`` hits EPIPE
— and those are exactly the faults this module injects, against live
pids.

Each :class:`ProcFault` names a *kind* and a *trigger* (fire after the
victim has completed ``after_completions`` jobs).  Two kinds arm the
worker's own chaos hooks via environment instead of signals, because
the tear has to happen inside the victim's write path:

===========  ==========================================================
``sigkill``  ``SIGKILL`` the victim process mid-trace.  The router sees
             EOF/EPIPE; heartbeats go silent; phi accrues to DEAD.
``sigstop``  ``SIGSTOP`` — the process is *alive but wedged*, keeps its
             journal-dir flock, and times out every RPC.  The DEAD
             verdict's kill action sends the SIGKILL that actually ends
             it (SIGKILL works on stopped processes).
``torn``     The victim tears its ``torn_response``-th response frame
             halfway and exits (armed at spawn via
             ``REPRO_PROC_TORN_AFTER``): a half-written length-prefixed
             frame, the wire-codec twin of a torn journal line.  With
             ``torn_op`` only responses to that op count
             (``REPRO_PROC_TORN_OP``), so a case names the op it tears
             instead of depending on the router's call schedule.
``epipe``    Like ``sigkill``, but the harness then *submits to the
             dead shard* before supervision notices, proving the ack
             path surfaces a typed transport error instead of
             fabricating an ack.
===========  ==========================================================
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass

from repro.errors import ChaosError

__all__ = ["PROC_FAULT_KINDS", "ProcFault", "sigkill_pid", "sigstop_pid", "sigcont_pid"]

PROC_FAULT_KINDS = ("sigkill", "sigstop", "torn", "epipe")


@dataclass(frozen=True)
class ProcFault:
    """One planned process-level fault against a shard subprocess."""

    kind: str
    #: Fire once the cluster has completed this many jobs (the fault
    #: lands mid-trace, not at the edges where it would prove nothing).
    after_completions: int = 4
    #: For ``torn``: tear the victim's n-th response frame (counted in
    #: the worker, armed at spawn).
    torn_response: int = 12
    #: For ``torn``: count only responses to this op (``""`` = all).
    torn_op: str = ""

    def __post_init__(self) -> None:
        if self.kind not in PROC_FAULT_KINDS:
            raise ChaosError(
                f"unknown process fault {self.kind!r} "
                f"(have {', '.join(PROC_FAULT_KINDS)})"
            )
        if self.after_completions < 0:
            raise ChaosError(
                f"after_completions must be >= 0, got {self.after_completions}"
            )
        if self.torn_response < 1:
            raise ChaosError(
                f"torn_response must be >= 1, got {self.torn_response}"
            )
        if self.torn_op and self.kind != "torn":
            raise ChaosError(
                f"torn_op only applies to the torn fault, not {self.kind!r}"
            )

    @property
    def spawn_env(self) -> dict[str, str]:
        """Environment that arms worker-side hooks (torn frames only)."""
        if self.kind != "torn":
            return {}
        env = {"REPRO_PROC_TORN_AFTER": str(self.torn_response)}
        if self.torn_op:
            env["REPRO_PROC_TORN_OP"] = self.torn_op
        return env


def _signal_pid(pid: int, sig: int) -> bool:
    """Deliver a signal; False when the process is already gone."""
    try:
        os.kill(pid, sig)
        return True
    except ProcessLookupError:
        return False


def sigkill_pid(pid: int) -> bool:
    """The unblockable end (works on SIGSTOP'd processes too)."""
    return _signal_pid(pid, signal.SIGKILL)


def sigstop_pid(pid: int) -> bool:
    """Freeze a process: alive to the kernel, silent on every pipe."""
    return _signal_pid(pid, signal.SIGSTOP)


def sigcont_pid(pid: int) -> bool:
    return _signal_pid(pid, signal.SIGCONT)
