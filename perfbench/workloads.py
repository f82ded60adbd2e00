"""Seeded job lists for the benchmark's workloads.

Every workload runs a fixed list of jobs made from ``--seed`` alone: the
kernel mix is apportioned exactly (largest remainder) and spread evenly
through the list in a seeded order, and every payload is drawn through
the kernel registry's ``example_payload``, so two runs with one seed do
identical work and no two jobs share a payload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

import numpy as np


@dataclass
class Job:
    index: int
    kind: str
    spec: Any          # repro.serve.jobs.KernelSpec
    params: dict       # canonical frontend parameters
    payload: Any


def apportion(mix: dict[str, float], count: int) -> list[str]:
    """``count`` kinds in exactly the proportions of ``mix`` (rounded by
    largest remainder), in a fixed order."""
    total = sum(mix.values())
    quotas = {k: w * count / total for k, w in mix.items()}
    counts = {k: int(q) for k, q in quotas.items()}
    short = count - sum(counts.values())
    for kind in sorted(mix, key=lambda k: (counts[k] - quotas[k], k))[:short]:
        counts[kind] += 1
    return [kind for kind in sorted(mix) for _ in range(counts[kind])]


def kind_sequence(mix: dict[str, float], count: int, seed: int,
                  stream: str) -> list[str]:
    """The exact mix of ``apportion`` in a seeded order that keeps every
    stretch of the list close to the mix: the i-th of a kind's n jobs
    lands at a random point of the i-th n-th of the list.  So the first
    and the last quarter of a segment do the same work, and the blocks
    differ little in cost."""
    rng = random.Random(f"{seed}/{stream}/order")
    kinds = apportion(mix, count)
    keyed = []
    for kind in sorted(mix):
        n = kinds.count(kind)
        keyed += [((i + rng.random()) / n, kind) for i in range(n)]
    return [kind for _, kind in sorted(keyed)]


def make_jobs(kinds: list[str], seed: int, stream: str) -> list[Job]:
    """One job per kind, each with its own seeded registry payload."""
    from repro.compile.frontends import get_frontend
    from repro.serve.jobs import spec_for

    jobs = []
    rng = np.random.default_rng(
        [seed, *(ord(c) for c in stream)])
    for index, kind in enumerate(kinds):
        frontend = get_frontend(kind)
        params = frontend.canonicalize(None)
        jobs.append(Job(index, kind, spec_for(kind), params,
                        frontend.example_payload(params, rng)))
    return jobs
