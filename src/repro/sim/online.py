"""Online multi-tenant scheduling: streaming jobs on a shared cluster.

The static experiments schedule one DAG on an empty machine.  This
module simulates the *online* regime instead: jobs — instances drawn
from a small template catalogue — arrive over time
(:mod:`repro.sim.arrivals`) on one shared cluster whose processors
already carry residual load (:mod:`repro.sim.cluster`).  Each arrival is
placed by a static list scheduler from the registry, running against the
pre-occupied timelines through the compiled core
(:meth:`~repro.compiled.CompiledInstance.schedule_onto`), on every
interconnect.

Two design points carry the performance story:

* **Cached lowering**: the flat-array lowering of a template (CSR
  predecessors, ETC rows, rank order) never changes between arrivals —
  only the cluster's **dirty suffix** (busy intervals not yet compacted
  by :meth:`ClusterState.advance`) does.  So the simulator lowers each
  template once and re-seeds timelines per arrival.  (The benchmark's
  baseline, which re-lowers from a fresh
  :class:`~repro.instance.Instance` copy on every placement, lives in
  the test suite and produces bit-identical schedules.)
* **Rescheduling policies** (:mod:`repro.sim.policies`): on each
  arrival, a pluggable policy may pull *pending* jobs (nothing started
  yet) back off the timelines and re-place them together with the
  arrival.  Stale start/finish events are invalidated by per-job epoch
  counters rather than removed from the heap.

Determinism contract: with the same templates, arrival stream, seed and
knobs, :meth:`OnlineResult.to_json` is byte-identical across processes
and ``PYTHONHASHSEED`` values, and independent of the iteration order of
the template mapping.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.exceptions import ConfigurationError
from repro.instance import Instance
from repro.obs import get_tracer
from repro.schedulers.base import ListScheduler
from repro.schedulers.registry import get_scheduler
from repro.service.metrics import percentile
from repro.sim.arrivals import Arrival, ArrivalProcess
from repro.sim.cluster import ClusterState
from repro.sim.engine import EventQueue, SimulationError
from repro.sim.policies import PendingJob, get_policy
from repro.utils.rng import SeedLike, spawn_children


@dataclass(frozen=True)
class OnlineJobRecord:
    """Final accounting of one completed job."""

    job_id: str
    template: str
    arrival: float
    start: float
    finish: float
    #: times this job was pulled back and re-placed after first placement
    replans: int

    @property
    def response(self) -> float:
        """Arrival-to-finish span (sojourn time)."""
        return self.finish - self.arrival


class _TemplateState:
    """Everything placement needs about one template, lowered once."""

    def __init__(self, name: str, instance: Instance, alg: ListScheduler) -> None:
        self.name = name
        self.instance = instance
        self.order_ids = alg.priority_order(instance)
        if (
            set(self.order_ids) != set(instance.dag.tasks())
            or len(self.order_ids) != instance.num_tasks
        ):
            raise ConfigurationError(
                f"{alg.name}: priority order covers {len(self.order_ids)} tasks, "
                f"template {name!r} has {instance.num_tasks}"
            )
        self.ci = ci = instance.kernel.compiled()
        self.order_idx = ci.order_indices(self.order_ids)
        #: canonical index per task id (noise factors are indexed by this)
        self.ti = instance.kernel.ti


class _Job:
    """Mutable in-flight job state."""

    __slots__ = (
        "job_id", "template", "arrival", "order", "baseline",
        "epoch", "start", "finish", "replans",
    )

    def __init__(self, job_id: str, template: str, arrival: float, order: int,
                 baseline: float) -> None:
        self.job_id = job_id
        self.template = template
        self.arrival = arrival
        self.order = order
        self.baseline = baseline
        self.epoch = 0
        self.start = 0.0
        self.finish = 0.0
        self.replans = -1  # first placement bumps to 0


class OnlineResult:
    """Outcome of one online simulation run."""

    def __init__(
        self,
        *,
        alg: str,
        policy: str,
        noise_cv: float,
        seed_label: str,
        machine: str,
        jobs: list[OnlineJobRecord],
        baselines: dict[str, float],
        makespan: float,
        utilization: float,
        replans: int,
        compacted: int,
        peak_live_intervals: int,
    ) -> None:
        self.alg = alg
        self.policy = policy
        self.noise_cv = noise_cv
        self.seed_label = seed_label
        self.machine = machine
        self.jobs = jobs
        self.baselines = baselines
        self.makespan = makespan
        self.utilization = utilization
        self.replans = replans
        self.compacted = compacted
        self.peak_live_intervals = peak_live_intervals

    def slowdowns(self) -> list[float]:
        """Per-job slowdown: response over the template's empty-cluster
        makespan (>= 1 in the noise-free queue regime)."""
        out = []
        for rec in self.jobs:
            base = self.baselines[rec.template]
            out.append(rec.response / base if base > 0.0 else math.inf)
        return out

    def metrics_dict(self) -> dict[str, float]:
        """Aggregate metrics (plain floats, stable key order via JSON)."""
        responses = [rec.response for rec in self.jobs]
        slow = self.slowdowns()
        n = len(self.jobs)
        return {
            "jobs": float(n),
            "makespan": self.makespan,
            "response_mean": sum(responses) / n if n else 0.0,
            "response_p50": percentile(responses, 50),
            "response_p95": percentile(responses, 95),
            "response_p99": percentile(responses, 99),
            "slowdown_mean": sum(slow) / n if n else 0.0,
            "slowdown_p99": percentile(slow, 99),
            "slowdown_max": max(slow, default=0.0),
            "throughput": n / self.makespan if self.makespan > 0.0 else 0.0,
            "utilization": self.utilization,
            "replans": float(self.replans),
            "compacted_intervals": float(self.compacted),
            "peak_live_intervals": float(self.peak_live_intervals),
        }

    def payload_json(self) -> str:
        """Canonical JSON of the *outcome* only — baselines, metrics and
        per-job records, no configuration labels.  This is the artifact
        the equivalence checks compare: cached and per-placement
        re-lowering, and the object-path reference placer, must produce
        it byte for byte."""
        doc = {
            "baselines": dict(sorted(self.baselines.items())),
            "metrics": self.metrics_dict(),
            "jobs": [
                {
                    "id": rec.job_id,
                    "template": rec.template,
                    "arrival": rec.arrival,
                    "start": rec.start,
                    "finish": rec.finish,
                    "replans": rec.replans,
                }
                for rec in self.jobs
            ],
        }
        return json.dumps(doc, sort_keys=True)

    def to_json(self) -> str:
        """Canonical JSON of the whole run (sorted keys, repr floats) —
        the byte-identical determinism artifact the restart tests compare."""
        doc = {
            "meta": {
                "alg": self.alg,
                "policy": self.policy,
                "noise_cv": self.noise_cv,
                "seed": self.seed_label,
                "machine": self.machine,
            },
            "payload": json.loads(self.payload_json()),
        }
        return json.dumps(doc, sort_keys=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        m = self.metrics_dict()
        return (
            f"OnlineResult(alg={self.alg}, policy={self.policy}, "
            f"jobs={len(self.jobs)}, makespan={self.makespan:.3f}, "
            f"slowdown_mean={m['slowdown_mean']:.3f})"
        )


class OnlineScheduler:
    """Event-driven online simulator over one shared cluster.

    Drive it with :func:`simulate_online`; the class is exposed so tests
    can poke at intermediate state (pending sets, cluster occupancy).
    """

    def __init__(
        self,
        templates: Mapping[str, Instance],
        *,
        alg: str = "HEFT",
        policy: str = "queue",
        noise_cv: float = 0.0,
        seed: SeedLike = 0,
    ) -> None:
        if not templates:
            raise ConfigurationError("no templates")
        if not (noise_cv >= 0.0):
            raise ConfigurationError(f"noise_cv must be >= 0, got {noise_cv!r}")
        self.alg = get_scheduler(alg)
        if (
            not isinstance(self.alg, ListScheduler)
            or self.alg.compiled_policy not in ("eft", "est")
            or type(self.alg).place is not ListScheduler.place
        ):
            raise ConfigurationError(
                f"online scheduling needs a list scheduler with an eft/est "
                f"placement phase; {alg!r} does not qualify"
            )
        self.policy = get_policy(policy)
        self.noise_cv = float(noise_cv)
        self.seed = seed
        # Sorted-name insertion: template iteration order never matters.
        self.templates: dict[str, Instance] = {
            name: templates[name] for name in sorted(templates)
        }
        machines = {id(inst.machine) for inst in self.templates.values()}
        if len(machines) != 1:
            raise ConfigurationError(
                "all templates must share one Machine object (the cluster)"
            )
        self.machine = next(iter(self.templates.values())).machine
        self.cluster = ClusterState(self.machine)
        self._states: dict[str, _TemplateState] = {}
        self.baselines: dict[str, float] = {}
        for name in self.templates:
            self.baselines[name] = self._empty_makespan(self._state_for(name))
        #: per-job noise streams, spawned in run() once the job count is known
        self._noise_rngs: list | None = None
        self._noise_cache: dict[str, list[float]] = {}
        self.queue = EventQueue()
        self.pending: dict[str, _Job] = {}
        self.running: dict[str, _Job] = {}
        self.done: list[OnlineJobRecord] = []
        self.replans = 0
        self.compacted = 0
        self.peak_live = 0

    # ------------------------------------------------------------------
    # template lowering
    # ------------------------------------------------------------------
    def _state_for(self, name: str) -> _TemplateState:
        """The template's lowering, built on first use and reused by
        every later placement."""
        state = self._states.get(name)
        if state is None:
            state = _TemplateState(name, self.templates[name], self.alg)
            self._states[name] = state
        return state

    def _empty_makespan(self, state: _TemplateState) -> float:
        q = self.cluster.num_procs
        return self._schedule_job(
            state, [[] for _ in range(q)], [[] for _ in range(q)], 0.0, None
        )[2]

    # ------------------------------------------------------------------
    # noise
    # ------------------------------------------------------------------
    def _noise_for(self, job: _Job, state: _TemplateState) -> list[float] | None:
        """Per-job multiplicative duration factors, indexed by canonical
        task position.  Mean-one lognormal with sd ``noise_cv``, drawn
        from the job's own seed stream and cached so a re-placement
        replays the same factors (matching
        :class:`~repro.sim.noise.MultiplicativeNoise`'s moments)."""
        if self._noise_rngs is None:
            return None
        factors = self._noise_cache.get(job.job_id)
        if factors is None:
            sigma2 = math.log(1.0 + self.noise_cv * self.noise_cv)
            rng = self._noise_rngs[job.order]
            draws = rng.lognormal(
                mean=-sigma2 / 2.0, sigma=math.sqrt(sigma2),
                size=state.instance.num_tasks,
            )
            factors = [float(x) for x in draws]
            self._noise_cache[job.job_id] = factors
        return factors

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def _schedule_job(
        self,
        state: _TemplateState,
        busy_starts: Sequence[Sequence[float]],
        busy_ends: Sequence[Sequence[float]],
        release: float,
        factors: list[float] | None,
    ) -> tuple[list[tuple[int, float, float]], float, float]:
        """Place one job of ``state``'s template onto busy timelines.

        Returns every task's ``(proc index, start, end)`` interval, the
        job's first start and its finish.
        """
        result = state.ci.schedule_onto(
            state.order_idx,
            busy_starts,
            busy_ends,
            release=release,
            insertion=self.alg.insertion,
            policy=self.alg.compiled_policy,
            etc_scale=factors,
        )
        intervals = []
        first = math.inf
        for t in range(state.ci.n):
            s = result.start[t]
            e = s + result.darg[t]
            intervals.append((result.proc[t], s, e))
            if s < first:
                first = s
        return intervals, (0.0 if math.isinf(first) else first), result.makespan

    def _place(self, job: _Job, release: float) -> None:
        """Schedule one job against the current dirty suffix and commit."""
        state = self._state_for(job.template)
        factors = self._noise_for(job, state)
        starts_seed, ends_seed = self.cluster.seeded_timelines()
        intervals, start, finish = self._schedule_job(
            state, starts_seed, ends_seed, release, factors
        )
        self.cluster.occupy(job.job_id, intervals)
        job.start = start
        job.finish = finish
        job.replans += 1
        job.epoch += 1
        self.pending[job.job_id] = job
        self.queue.push(start, "job_start", (job.job_id, job.epoch))
        self.queue.push(finish, "job_finish", (job.job_id, job.epoch))

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------
    def _on_arrival(self, arrival: Arrival, order: int) -> None:
        now = self.queue.now
        self.compacted += self.cluster.advance(now)
        live = self.cluster.live_intervals()
        if live > self.peak_live:
            self.peak_live = live
        job = _Job(
            arrival.job_id, arrival.template, arrival.time, order,
            self.baselines[arrival.template],
        )
        view = PendingJob(
            job_id=job.job_id, template=job.template, arrival=job.arrival,
            baseline=job.baseline, start=now, order=job.order,
        )
        pending_views = [
            PendingJob(
                job_id=p.job_id, template=p.template, arrival=p.arrival,
                baseline=p.baseline, start=p.start, order=p.order,
            )
            for p in sorted(self.pending.values(), key=lambda p: p.order)
        ]
        plan = self.policy.plan(view, pending_views)
        allowed = {p.job_id for p in pending_views} | {job.job_id}
        if len(set(plan)) != len(plan) or not set(plan) <= allowed or job.job_id not in plan:
            raise SimulationError(
                f"policy {self.policy.name!r} returned invalid plan {plan!r}"
            )
        pulled: dict[str, _Job] = {}
        for job_id in plan:
            if job_id == job.job_id:
                continue
            p = self.pending.pop(job_id)
            self.cluster.release(job_id)
            p.epoch += 1  # old start/finish events become stale
            pulled[job_id] = p
            self.replans += 1
        for job_id in plan:
            self._place(pulled.get(job_id, job), now)

    def _on_job_start(self, job_id: str, epoch: int) -> None:
        job = self.pending.get(job_id)
        if job is None or job.epoch != epoch:
            return  # stale event from before a re-placement
        del self.pending[job_id]
        self.running[job_id] = job

    def _on_job_finish(self, job_id: str, epoch: int) -> None:
        job = self.running.get(job_id)
        if job is None or job.epoch != epoch:
            return
        del self.running[job_id]
        self.done.append(
            OnlineJobRecord(
                job_id=job.job_id, template=job.template, arrival=job.arrival,
                start=job.start, finish=job.finish, replans=job.replans,
            )
        )

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------
    def run(self, arrivals: Sequence[Arrival]) -> OnlineResult:
        tracer = get_tracer()
        order_of = {a.job_id: i for i, a in enumerate(arrivals)}
        if self.noise_cv > 0.0 and arrivals:
            self._noise_rngs = spawn_children(self.seed, len(arrivals))
        with tracer.span(
            "online.simulate", alg=self.alg.name, policy=self.policy.name,
            jobs=len(arrivals),
        ):
            for a in arrivals:
                self.queue.push(a.time, "arrival", a)

            def handle(ev) -> None:
                if ev.kind == "arrival":
                    tracer.count("online.arrivals")
                    self._on_arrival(ev.payload, order_of[ev.payload.job_id])
                elif ev.kind == "job_start":
                    self._on_job_start(*ev.payload)
                elif ev.kind == "job_finish":
                    self._on_job_finish(*ev.payload)
                else:  # pragma: no cover - no other kinds are pushed
                    raise SimulationError(f"unknown event kind {ev.kind!r}")

            self.queue.drain(handle)
        if self.pending or self.running:
            raise SimulationError(
                f"simulation drained with {len(self.pending)} pending and "
                f"{len(self.running)} running jobs"
            )
        self.done.sort(key=lambda rec: rec.job_id)
        makespan = max((rec.finish for rec in self.done), default=0.0)
        tracer.gauge("online.makespan", makespan)
        tracer.count("online.replans", self.replans)
        seed_label = str(self.seed)
        return OnlineResult(
            alg=self.alg.name,
            policy=self.policy.name,
            noise_cv=self.noise_cv,
            seed_label=seed_label,
            machine=self.machine.name,
            jobs=self.done,
            baselines=self.baselines,
            makespan=makespan,
            utilization=self.cluster.utilization(makespan if makespan > 0 else None),
            replans=self.replans,
            compacted=self.compacted,
            peak_live_intervals=self.peak_live,
        )


def simulate_online(
    templates: Mapping[str, Instance],
    arrivals: ArrivalProcess | Sequence[Arrival],
    *,
    alg: str = "HEFT",
    policy: str = "queue",
    noise_cv: float = 0.0,
    seed: SeedLike = 0,
) -> OnlineResult:
    """Simulate a stream of job arrivals on one shared cluster.

    Parameters
    ----------
    templates:
        Named instance catalogue; all instances must share one
        :class:`~repro.machine.cluster.Machine` object.  Iteration order
        is irrelevant (names are sorted internally).
    arrivals:
        An :class:`~repro.sim.arrivals.ArrivalProcess` (realized against
        the sorted template names) or an already-realized arrival list.
    alg:
        Registry name of a list scheduler with an eft/est placement
        phase (HEFT, HCPT, PETS, HLFET, MCP, ...).
    policy:
        Rescheduling policy name (:func:`~repro.sim.policies.get_policy`).
    noise_cv:
        Coefficient of variation of mean-one lognormal runtime noise
        applied to task durations (0 disables; factors are per job and
        replayed identically on re-placement).
    seed:
        Noise seed root (unused when ``noise_cv == 0``).
    """
    sim = OnlineScheduler(
        templates,
        alg=alg,
        policy=policy,
        noise_cv=noise_cv,
        seed=seed,
    )
    if isinstance(arrivals, ArrivalProcess):
        stream = arrivals.realize(sorted(templates))
    else:
        stream = list(arrivals)
    return sim.run(stream)


def build_templates(
    *,
    num_templates: int = 3,
    num_tasks: int = 20,
    num_procs: int = 8,
    heterogeneity: float = 0.5,
    seed: int = 0,
) -> dict[str, Instance]:
    """A seeded template catalogue on one shared machine.

    The CLI, the benchmark and the tests all build their workloads
    through this, so "the 1k-job trace" means the same jobs everywhere.
    Template ``t<i>`` gets its own DAG and ETC draw; sizes fan out
    around ``num_tasks`` so the mix isn't uniform.
    """
    from repro.dag.generators import random_dag
    from repro.machine.cluster import Machine
    from repro.machine.etc import generate_etc

    if num_templates < 1:
        raise ConfigurationError(f"num_templates must be >= 1, got {num_templates}")
    machine = Machine.homogeneous(num_procs, name=f"cluster-q{num_procs}")
    templates: dict[str, Instance] = {}
    for i in range(num_templates):
        tasks = max(2, num_tasks + (i - num_templates // 2) * max(1, num_tasks // 4))
        dag = random_dag(tasks, ccr=1.0, seed=seed * 1009 + i)
        etc = generate_etc(
            dag, machine, heterogeneity=heterogeneity,
            consistency="inconsistent", seed=seed * 1013 + i,
        )
        name = f"t{i}"
        templates[name] = Instance(dag=dag, machine=machine, etc=etc, name=name)
    return templates
