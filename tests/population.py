"""The shared differential-test instance corpus.

14 seeds x 4 families = 56 seeded instances covering heterogeneous
machines (all three consistency classes) and homogeneous ones, all on
uniform links, plus a small per-link family (4 instances): asymmetric
random latency/bandwidth tables with latency > 0 and string processor
ids, and ``compute_grid`` machines.  The differential suites — the
vectorized kernel layer (``tests/core/test_vectorized_equivalence.py``),
the compiled executor and decoder (``tests/core/test_compiled_*.py``),
kill-k and the wire round-trips — check behaviour preservation over
this same population.
"""

from __future__ import annotations

import numpy as np

from repro.bench import workloads as W
from repro.dag.generators import random_dag
from repro.instance import make_instance
from repro.machine.comm import CommunicationModel

SEEDS = range(14)


def _heterogeneous(seed: int):
    rng = np.random.default_rng(10_000 + seed)
    return W.random_instance(rng, num_tasks=25, num_procs=8)


def _consistent(seed: int):
    dag = random_dag(20, ccr=5.0, seed=20_000 + seed)
    return make_instance(
        dag, num_procs=5, heterogeneity=1.0, consistency="consistent", seed=seed
    )


def _partially_consistent(seed: int):
    dag = random_dag(18, ccr=0.5, seed=30_000 + seed)
    return make_instance(
        dag, num_procs=3, heterogeneity=0.75, consistency="partially-consistent", seed=seed
    )


def _homogeneous(seed: int):
    rng = np.random.default_rng(40_000 + seed)
    return W.homogeneous_random_instance(rng, num_tasks=22, num_procs=4)


def _per_link(seed: int):
    """Even seeds: asymmetric random link tables on string processor ids
    (declared in a different order than the tables list them); odd
    seeds: a two-site ``compute_grid``."""
    from repro.instance import Instance
    from repro.machine.cluster import Machine
    from repro.machine.comm import LinkCommunication
    from repro.machine.etc import generate_etc
    from repro.machine.processor import Processor
    from repro.machine.profiles import compute_grid

    rng = np.random.default_rng(60_000 + seed)
    if seed % 2 == 0:
        ids = ["n3", "n10", "n1", "n7", "n2"][: 4 + seed % 4 // 2]
        lat = {a: {b: float(rng.uniform(0.2, 4.0)) for b in ids if b != a} for a in ids}
        bw = {a: {b: float(rng.uniform(0.3, 6.0)) for b in ids if b != a} for a in ids}
        machine = Machine(
            [Processor(id=p, speed=float(rng.uniform(1.0, 2.0))) for p in ids],
            comm=LinkCommunication(sorted(ids), lat, bw),
            name=f"asym-links-{seed}",
        )
    else:
        machine = compute_grid(2, 3, seed=seed)
    dag = random_dag(20, ccr=(1.0, 5.0)[seed % 2], seed=60_000 + seed)
    etc = generate_etc(dag, machine, heterogeneity=0.5, seed=seed)
    return Instance(dag=dag, machine=machine, etc=etc)


FAMILIES = [
    ("het", _heterogeneous),
    ("consistent", _consistent),
    ("partial", _partially_consistent),
    ("homog", _homogeneous),
]

#: The per-link family is kept small: every differential suite walks it.
LINK_SEEDS = range(4)


class OpaqueCommunication(CommunicationModel):
    """A custom link model on integer processor ids: neither a uniform
    constant nor per-link tables describe it, so nothing can lower it."""

    def time(self, data, src, dst):
        data = self.validate_pair(data)
        return 0.0 if src == dst else 0.25 * abs(src - dst) + data / 2.0

    def average_time(self, data):
        return 0.5 + self.validate_pair(data) / 2.0


def build_population():
    """``(label, instance)`` pairs of the 60-instance corpus: the 56
    uniform-link members, then the per-link family."""
    uniform = [
        (f"{family}-{seed}", build(seed)) for family, build in FAMILIES for seed in SEEDS
    ]
    return uniform + [(f"link-{seed}", _per_link(seed)) for seed in LINK_SEEDS]


def partially_consistent_instance(seed: int):
    """One partially-consistent family member (used by a legacy test)."""
    return _partially_consistent(seed)


# ----------------------------------------------------------------------
# random machines of every communication kind (property draws)
# ----------------------------------------------------------------------
#: The communication kinds that lower into the compiled executor.
COMM_KINDS = ("zero", "uniform", "link")


def random_machine(kind: str, num_procs: int, seed: int, max_latency: float = 4.0):
    """A fully connected machine with random processor speeds.

    ``zero`` keeps the :class:`Machine` default (free transfers),
    ``uniform`` draws one latency and bandwidth for every link, and
    ``link`` draws asymmetric per-link tables (latencies up to
    ``max_latency``) on string processor ids, declared in a different
    order than the tables list them, so lowering must reindex.
    """
    from repro.machine.cluster import Machine
    from repro.machine.comm import LinkCommunication, UniformCommunication
    from repro.machine.processor import Processor

    rng = np.random.default_rng(seed)
    if kind == "link":
        ids = [f"p{(7 * k) % 11}" for k in range(num_procs)]
        lat = {a: {b: float(rng.uniform(0.0, max_latency)) for b in ids if b != a}
               for a in ids}
        bw = {a: {b: float(rng.uniform(0.1, 8.0)) for b in ids if b != a} for a in ids}
        procs = [Processor(id=p, speed=float(rng.uniform(0.5, 2.0))) for p in ids]
        return Machine(procs, comm=LinkCommunication(sorted(ids), lat, bw), name="asym")
    procs = [Processor(id=k, speed=float(rng.uniform(0.5, 2.0))) for k in range(num_procs)]
    if kind == "zero":
        return Machine(procs, name="zero")
    if kind == "uniform":
        comm = UniformCommunication(float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.25, 4.0)))
        return Machine(procs, comm=comm, name="uniform")
    raise ValueError(f"unknown communication kind {kind!r}; known: {COMM_KINDS}")


def random_instance_on(kind: str, num_tasks: int, num_procs: int, ccr: float,
                       heterogeneity: float, seed: int, *, tuple_ids: bool = False,
                       deadline_factor: float | None = None):
    """A random DAG with a range-based ETC on a :func:`random_machine`.

    ``tuple_ids`` relabels task ``k`` to the nested tuple ``(k % 3,
    ("t", k))`` before the ETC is drawn; ``deadline_factor`` sets the
    deadline to that multiple of ``cp_min_length``.
    """
    from repro.instance import Instance
    from repro.machine.etc import generate_etc

    machine = random_machine(kind, num_procs, seed)
    dag = random_dag(num_tasks, ccr=ccr, seed=seed)
    if tuple_ids:
        dag = dag.relabel({k: (k % 3, ("t", k)) for k in dag.tasks()})
    etc = generate_etc(dag, machine, heterogeneity=heterogeneity, seed=seed)
    instance = Instance(dag=dag, machine=machine, etc=etc)
    if deadline_factor is not None:
        instance = instance.with_deadline(deadline_factor * instance.cp_min_length)
    return instance


# ----------------------------------------------------------------------
# deadline-annotated corpus (resilient/deadline suites)
# ----------------------------------------------------------------------
#: Deadline as a multiple of the HEFT makespan on the same instance:
#: ``loose`` leaves ample slack, ``tight`` barely clears the fault-free
#: schedule, ``infeasible`` cannot be met by construction.
DEADLINE_TIGHTNESS = {"tight": 1.05, "loose": 2.5, "infeasible": 0.5}


def _fork_join(seed: int, width: int = 4, stages: int = 2):
    from repro.dag.generators import fork_join_dag

    dag = fork_join_dag(
        width=width, stages=stages, chain_length=2, jitter=0.3,
        seed=50_000 + seed, name=f"forkjoin-{seed}",
    )
    return make_instance(
        dag, num_procs=4, heterogeneity=0.5, seed=seed, name=f"forkjoin-{seed}"
    )


def _deadline_bases():
    """Base instances (no deadline yet) for the deadline corpus: small
    members of the heterogeneous families plus fork-join shapes."""
    return [
        ("het", _heterogeneous(0)),
        ("partial", _partially_consistent(1)),
        ("homog", _homogeneous(2)),
        ("forkjoin-narrow", _fork_join(0, width=3, stages=1)),
        ("forkjoin-wide", _fork_join(1, width=6, stages=2)),
    ]


def build_deadline_population():
    """``(label, instance)`` pairs carrying deadlines at all three
    tightness levels, anchored to each instance's HEFT makespan so the
    tight/loose/infeasible split is meaningful regardless of family."""
    from repro.schedulers.registry import get_scheduler

    heft = get_scheduler("HEFT")
    out = []
    for family, base in _deadline_bases():
        ref = heft.schedule(base).makespan
        for level, factor in sorted(DEADLINE_TIGHTNESS.items()):
            out.append((
                f"{family}-{level}", base.with_deadline(factor * ref)
            ))
    return out
