"""Command-line interface.

Subcommands::

    repro-sched list                      # experiments and schedulers
    repro-sched experiment E2 [--full]    # regenerate one figure/table
    repro-sched all [--full]              # regenerate everything
    repro-sched schedule --dag g.json --alg IMP --procs 8 [--gantt]
    repro-sched trace IMP g.json --format chrome --out trace.json
    repro-sched render --dag g.json --alg IMP --out sched.svg
    repro-sched simulate --dag g.json --alg IMP --noise 0.3 [--contention]
    repro-sched compare --suite application --alg IMP --alg HEFT
    repro-sched serve --port 8787 --workers 4 --cache-size 256
    repro-sched fleet --shards 4 --port 8800 --cache-dir /var/cache/repro
    repro-sched submit --dag g.json --alg IMP --endpoint 127.0.0.1:8787
    repro-sched demo                      # tiny end-to-end demonstration

(Also reachable as ``python -m repro ...`` and via the ``repro``
console-script alias.)
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro._version import __version__


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.bench.registry import all_experiment_ids, get_experiment
    from repro.schedulers.registry import all_scheduler_names

    print("experiments:")
    for eid in all_experiment_ids():
        exp = get_experiment(eid)
        print(f"  {eid:<4} [{exp.artifact:6}] {exp.title}")
    print("\nschedulers:")
    print("  " + ", ".join(all_scheduler_names()))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.bench.registry import run_experiment

    print(run_experiment(args.id, quick=not args.full))
    return 0


def _cmd_all(args: argparse.Namespace) -> int:
    from repro.bench.registry import all_experiment_ids, run_experiment

    for eid in all_experiment_ids():
        print(run_experiment(eid, quick=not args.full))
        print()
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.bench.report import write_report

    ids = args.id or None
    path = write_report(args.out, quick=not args.full, experiment_ids=ids)
    print(f"wrote {path}")
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    from repro.schedule.metrics import slr, speedup
    from repro.schedule.validation import validate
    from repro.schedulers.registry import get_scheduler

    instance = _load_instance_arg(args.dag, args)
    dag = instance.dag
    if args.deadline is not None:
        instance = instance.with_deadline(args.deadline)
    scheduler = get_scheduler(args.alg)
    if args.tolerate_k:
        from repro.schedulers.resilient import ResilientScheduler

        scheduler = ResilientScheduler(scheduler, k=args.tolerate_k)
    if args.trace_out:
        from repro.obs import Tracer, use_tracer, write_trace

        tracer = Tracer(name=f"repro:{scheduler.name}")
        with use_tracer(tracer):
            schedule = scheduler.schedule(instance)
            validate(schedule, instance)
        write_trace(tracer, args.trace_out)
        print(f"trace     : wrote {args.trace_out} ({len(tracer.spans())} spans)")
    else:
        schedule = scheduler.schedule(instance)
        validate(schedule, instance)
    print(f"algorithm : {scheduler.name}")
    print(f"dag       : {dag.name} ({dag.num_tasks} tasks, {dag.num_edges} edges)")
    print(f"machine   : {instance.machine.name} ({instance.num_procs} processors)")
    print(f"makespan  : {schedule.makespan:.4f}")
    print(f"SLR       : {slr(schedule, instance):.4f}")
    print(f"speedup   : {speedup(schedule, instance):.4f}")
    if args.tolerate_k or instance.deadline is not None:
        from repro.schedulers.resilient import schedulability_report

        report = schedulability_report(schedule, instance, k=args.tolerate_k)
        print(f"tolerance : k={report.k} "
              f"(worst-case makespan {report.worst_makespan:.4f})")
        if instance.deadline is not None:
            verdict = "SCHEDULABLE" if report.schedulable else "NOT SCHEDULABLE"
            print(f"deadline  : {instance.deadline:.4f} -> {verdict}")
            if report.witness is not None and report.witness:
                print(f"witness   : kill set {report.witness}")
        elif not report.schedulable:
            print(f"warning   : tasks starve under kill set {report.witness}")
    if args.gantt:
        print()
        print(schedule.gantt())
    return 0


def _load_dag(path_text: str):
    from repro.dag import io as dag_io

    path = Path(path_text)
    if path.suffix == ".json":
        return dag_io.load_json(path)
    return dag_io.load_stg(path)


def _resolve_alg(name: str) -> str:
    """Scheduler name as registered, accepting lower/mixed case."""
    from repro.schedulers.registry import all_scheduler_names

    known = all_scheduler_names()
    if name in known:
        return name
    if name.upper() in known:
        return name.upper()
    return name  # let get_scheduler raise its usual error


def _load_instance_arg(path_text: str, args: argparse.Namespace):
    """An instance from either a v1 instance document or a DAG file.

    ``.json`` files are tried as full instance documents first (the
    service wire format, ETC matrix included); anything else — a DAG
    JSON or a ``.stg`` file — goes through :func:`make_instance` with
    the ``--procs``/``--heterogeneity``/``--seed`` knobs.
    """
    from repro.instance import make_instance

    path = Path(path_text)
    if path.suffix == ".json":
        from repro.instance_io import instance_from_json

        try:
            return instance_from_json(path.read_text())
        except Exception:
            pass  # not an instance document; treat as a DAG file
    dag = _load_dag(path_text)
    return make_instance(
        dag, num_procs=args.procs, heterogeneity=args.heterogeneity, seed=args.seed
    )


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import (
        Tracer,
        render_trace,
        trace_format_for_path,
        use_tracer,
        validate_trace,
        write_trace,
    )
    from repro.schedule.validation import validate
    from repro.schedulers.registry import get_scheduler

    instance = _load_instance_arg(args.instance, args)
    scheduler = get_scheduler(_resolve_alg(args.alg))
    tracer = Tracer(name=f"repro:{scheduler.name}")
    with use_tracer(tracer):
        schedule = scheduler.schedule(instance)
        validate(schedule, instance)
    problems = validate_trace(tracer)
    if problems:  # pragma: no cover - would be a tracer bug
        print("\n".join(f"warning: {p}" for p in problems), file=sys.stderr)
    fmt = args.format
    if args.out:
        if fmt is None:
            fmt = trace_format_for_path(args.out)
        write_trace(tracer, args.out, fmt)
        counters = tracer.counters()
        print(f"algorithm : {scheduler.name}")
        print(f"instance  : {instance.name} ({instance.num_tasks} tasks, "
              f"{instance.num_procs} processors)")
        print(f"makespan  : {schedule.makespan:.4f}")
        print(f"spans     : {len(tracer.spans())}")
        if counters:
            joined = ", ".join(f"{k}={v:g}" for k, v in sorted(counters.items()))
            print(f"counters  : {joined}")
        print(f"wrote {args.out} ({fmt})")
    else:
        sys.stdout.write(render_trace(tracer, fmt or "chrome"))
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    from repro.instance import make_instance
    from repro.schedule.io import save_svg
    from repro.schedule.validation import validate
    from repro.schedulers.registry import get_scheduler

    dag = _load_dag(args.dag)
    instance = make_instance(
        dag, num_procs=args.procs, heterogeneity=args.heterogeneity, seed=args.seed
    )
    schedule = get_scheduler(args.alg).schedule(instance)
    validate(schedule, instance)
    save_svg(schedule, args.out)
    print(f"wrote {args.out} (makespan {schedule.makespan:.4f})")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.instance import make_instance
    from repro.schedulers.registry import get_scheduler
    from repro.sim import MultiplicativeNoise, NoNoise, execute

    dag = _load_dag(args.dag)
    instance = make_instance(
        dag, num_procs=args.procs, heterogeneity=args.heterogeneity, seed=args.seed
    )
    schedule = get_scheduler(args.alg).schedule(instance)
    noise = MultiplicativeNoise(args.noise, seed=args.seed) if args.noise > 0 else NoNoise()
    result = execute(schedule, instance, noise, link_contention=args.contention)
    print(f"planned makespan  : {schedule.makespan:.4f}")
    print(f"simulated makespan: {result.makespan:.4f}")
    print(f"ratio             : {result.makespan / schedule.makespan:.4f}")
    print(f"events processed  : {result.events_processed}")
    return 0


def _cmd_simulate_online(args: argparse.Namespace) -> int:
    from repro.sim import (
        PoissonArrivals,
        build_templates,
        simulate_online,
        trace_from_json,
        trace_to_json,
    )

    templates = build_templates(
        num_templates=args.templates,
        num_tasks=args.tasks,
        num_procs=args.procs,
        heterogeneity=args.heterogeneity,
        seed=args.seed,
    )
    if args.load_trace:
        with open(args.load_trace, "r", encoding="utf-8") as fh:
            arrivals = trace_from_json(fh.read()).realize(sorted(templates))
    else:
        arrivals = PoissonArrivals(
            rate=args.rate, jobs=args.jobs, seed=args.seed
        ).realize(sorted(templates))
    if args.save_trace:
        with open(args.save_trace, "w", encoding="utf-8") as fh:
            fh.write(trace_to_json(arrivals))
        print(f"wrote {args.save_trace} ({len(arrivals)} arrivals)")
    result = simulate_online(
        templates,
        arrivals,
        alg=args.alg,
        policy=args.policy,
        noise_cv=args.noise,
        seed=args.seed,
    )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(result.to_json())
        print(f"wrote {args.json}")
    m = result.metrics_dict()
    print(f"algorithm   : {result.alg}  policy={result.policy}")
    print(f"jobs        : {len(result.jobs)} over {len(templates)} templates "
          f"on {result.machine}")
    print(f"makespan    : {result.makespan:.4f}")
    print(f"response    : mean={m['response_mean']:.4f}  p50={m['response_p50']:.4f}  "
          f"p95={m['response_p95']:.4f}  p99={m['response_p99']:.4f}")
    print(f"slowdown    : mean={m['slowdown_mean']:.4f}  p99={m['slowdown_p99']:.4f}  "
          f"max={m['slowdown_max']:.4f}")
    print(f"utilization : {m['utilization']:.4f}  throughput={m['throughput']:.6f}")
    print(f"replans     : {result.replans}  compacted={result.compacted}  "
          f"peak-live={result.peak_live_intervals}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.bench.compare import compare_schedulers
    from repro.dag.suites import SUITES

    if args.suite not in SUITES:
        from repro.exceptions import ConfigurationError

        raise ConfigurationError(
            f"unknown suite {args.suite!r}; known: {', '.join(sorted(SUITES))}"
        )
    dags = SUITES[args.suite]()

    def run():
        return compare_schedulers(
            args.alg or ["IMP", "HEFT", "CPOP"],
            dags,
            num_procs=args.procs,
            heterogeneity=args.heterogeneity,
            etc_draws=args.draws,
            seed=args.seed,
        )

    if args.trace_out:
        from repro.obs import Tracer, use_tracer, write_trace

        tracer = Tracer(name=f"repro:compare:{args.suite}")
        with use_tracer(tracer):
            result = run()
        write_trace(tracer, args.trace_out)
        print(f"trace: wrote {args.trace_out} ({len(tracer.spans())} spans)\n")
    else:
        result = run()
    print(result.report())
    print(f"\nwinner: {result.winner()}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.instance import make_instance
    from repro.schedule.analysis import explain
    from repro.schedulers.registry import get_scheduler

    dag = _load_dag(args.dag)
    instance = make_instance(
        dag, num_procs=args.procs, heterogeneity=args.heterogeneity, seed=args.seed
    )
    schedule = get_scheduler(args.alg).schedule(instance)
    print(explain(schedule, instance))
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    from repro.bench.sensitivity import OperatingPoint, analyze_sensitivity

    base = OperatingPoint(
        num_tasks=args.tasks,
        num_procs=args.procs,
        ccr=args.ccr,
        heterogeneity=args.heterogeneity,
    )
    result = analyze_sensitivity(
        args.alg, base=base, step=args.step, reps=args.reps, seed=args.seed
    )
    print(result.table())
    print(f"\ndominant parameter: {result.dominant()}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.obs import Tracer, write_trace
    from repro.service import EngineConfig, ScheduleServer, SchedulingEngine

    config = EngineConfig(
        workers=args.workers,
        cache_size=args.cache_size,
        queue_depth=args.queue_depth,
        default_timeout=args.timeout,
        max_respawns=args.max_respawns,
        respawn_window=args.respawn_window,
        cache_dir=args.cache_dir,
    )
    # The daemon always traces: the span store is bounded, the no-op
    # question doesn't arise (requests are I/O-scale, not decode-scale),
    # and it is what makes /metrics carry the repro_obs_* counters.
    tracer = Tracer(name="repro-service", max_spans=args.trace_spans)

    async def run() -> None:
        server = ScheduleServer(SchedulingEngine(config, tracer=tracer),
                                host=args.host, port=args.port)
        await server.start()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, server.request_shutdown)
            except NotImplementedError:  # pragma: no cover - non-unix
                pass
        # bound_port, not args.port: with --port 0 the kernel picks the
        # port, and this line is how callers (FleetManager, scripts)
        # discover it.
        print(
            f"repro service listening on http://{args.host}:{server.bound_port} "
            f"(workers={config.workers}, cache={config.cache_size}, "
            f"queue={config.queue_depth})",
            flush=True,
        )
        report = server.engine.recovery_report
        if report is not None:
            print(
                f"cache: recovered {report['recovered']} persisted schedules "
                f"from {config.cache_dir} "
                f"(skipped={report['skipped']}, undecodable={report['undecodable']})",
                flush=True,
            )
        await server.serve_until_shutdown()
        stats = server.engine.stats()
        print(
            f"drained: {stats.completed} completed, {stats.cache_hits} cache hits, "
            f"{stats.rejected} rejected, {stats.timeouts} timeouts, "
            f"{stats.respawns} pool respawns",
            flush=True,
        )
        if args.trace_out:
            write_trace(tracer, args.trace_out)
            print(f"trace: wrote {args.trace_out} "
                  f"({len(tracer.spans())} spans, {tracer.dropped_spans} dropped)",
                  flush=True)

    asyncio.run(run())
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.service.fleet import FleetManager

    async def run() -> None:
        manager = FleetManager(
            shards=args.shards,
            host=args.host,
            port=args.port,
            workers=args.workers,
            cache_size=args.cache_size,
            queue_depth=args.queue_depth,
            cache_dir=args.cache_dir,
            vnodes=args.vnodes,
            health_interval=args.health_interval,
            max_respawns=args.max_respawns,
            respawn_window=args.respawn_window,
        )
        await manager.start()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, manager.router.request_shutdown)
            except NotImplementedError:  # pragma: no cover - non-unix
                pass
        # Like serve: print the *bound* router port, so --port 0 works.
        print(
            f"repro fleet listening on http://{manager.endpoint} "
            f"(shards={args.shards}, workers={args.workers}/shard, "
            f"cache={args.cache_size}/shard)",
            flush=True,
        )
        for name, shard in sorted(manager.shard_processes.items()):
            segment = f", cache-dir={shard.cache_dir}" if shard.cache_dir else ""
            print(f"  {name}: http://{args.host}:{shard.port} "
                  f"(pid {shard.pid}{segment})", flush=True)
        await manager.serve_until_shutdown()
        stats = manager.router.stats
        print(
            f"fleet drained: {stats.requests} routed, {stats.proxied} proxied, "
            f"{stats.retries} re-routed, {stats.quarantines} quarantines, "
            f"{stats.readmissions} readmissions",
            flush=True,
        )

    asyncio.run(run())
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.instance import make_instance
    from repro.service import RetryPolicy, ServiceClient

    dag = _load_dag(args.dag)
    instance = make_instance(
        dag, num_procs=args.procs, heterogeneity=args.heterogeneity, seed=args.seed
    )
    policy = RetryPolicy(max_retries=args.retries) if args.retries > 0 else None
    client = ServiceClient.at(args.endpoint, request_timeout=args.timeout,
                              retry_policy=policy, wire=args.wire)
    result = client.schedule_sync(instance, alg=args.alg, timeout=args.timeout)
    print(f"algorithm  : {result.alg}")
    print(f"dag        : {dag.name} ({dag.num_tasks} tasks, {dag.num_edges} edges)")
    print(f"fingerprint: {result.fingerprint}")
    print(f"cache hit  : {'yes' if result.cache_hit else 'no'}")
    print(f"makespan   : {result.makespan:.4f}")
    print(f"server ms  : {result.server_ms:.3f}")
    if result.trace_id:
        print(f"trace id   : {result.trace_id}")
    if client.retry_stats.retries:
        print(f"retries    : {client.retry_stats.retries} "
              f"({client.retry_stats.backoff_s:.3f}s backoff)")
    if args.gantt:
        print()
        print(result.to_schedule(instance.machine).gantt())
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.dag.generators import gaussian_elimination_dag
    from repro.instance import make_instance
    from repro.schedule.metrics import slr
    from repro.schedule.validation import validate
    from repro.schedulers.registry import get_scheduler

    dag = gaussian_elimination_dag(6)
    instance = make_instance(dag, num_procs=4, heterogeneity=0.5, seed=42)
    print(f"Gaussian elimination m=6: {dag.num_tasks} tasks on 4 processors\n")
    for name in ("HEFT", "CPOP", "IMP"):
        schedule = get_scheduler(name).schedule(instance)
        validate(schedule, instance)
        print(f"{name:6} makespan={schedule.makespan:9.2f}  SLR={slr(schedule, instance):.4f}")
    print()
    print(get_scheduler("IMP").schedule(instance).gantt())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sched",
        description="Static task scheduling for heterogeneous and homogeneous systems",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list experiments and schedulers")
    p_list.set_defaults(fn=_cmd_list)

    p_exp = sub.add_parser("experiment", help="run one experiment")
    p_exp.add_argument("id", help="experiment id, e.g. E2")
    p_exp.add_argument("--full", action="store_true", help="full (paper-scale) protocol")
    p_exp.set_defaults(fn=_cmd_experiment)

    p_all = sub.add_parser("all", help="run every experiment")
    p_all.add_argument("--full", action="store_true", help="full (paper-scale) protocol")
    p_all.set_defaults(fn=_cmd_all)

    p_report = sub.add_parser("report", help="write a Markdown evaluation report")
    p_report.add_argument("--out", default="REPORT.md", help="output path")
    p_report.add_argument("--full", action="store_true", help="paper-scale protocol")
    p_report.add_argument("--id", action="append",
                          help="experiment id (repeatable; default: all)")
    p_report.set_defaults(fn=_cmd_report)

    p_sched = sub.add_parser("schedule", help="schedule a task-graph file")
    p_sched.add_argument("--dag", required=True,
                         help="path to a .json/.stg graph or a .json instance document")
    p_sched.add_argument("--alg", default="IMP", help="scheduler name (default IMP)")
    p_sched.add_argument("--procs", type=int, default=8)
    p_sched.add_argument("--heterogeneity", type=float, default=0.5)
    p_sched.add_argument("--seed", type=int, default=0)
    p_sched.add_argument("--gantt", action="store_true", help="print an ASCII Gantt chart")
    p_sched.add_argument("--tolerate-k", type=int, default=0, metavar="K",
                         help="fault tolerance: place K backup copies per task "
                              "and report worst-case behaviour over all size-K "
                              "kill sets")
    p_sched.add_argument("--deadline", type=float, default=None, metavar="D",
                         help="attach a completion deadline and report "
                              "schedulability (met/missed, worst-case slack)")
    p_sched.add_argument("--trace-out", default=None, metavar="PATH",
                         help="also record an execution trace "
                              "(.jsonl -> JSONL, else Chrome trace_event)")
    p_sched.set_defaults(fn=_cmd_schedule)

    p_trace = sub.add_parser(
        "trace", help="schedule once and emit the execution trace"
    )
    p_trace.add_argument("alg", help="scheduler name (case-insensitive)")
    p_trace.add_argument("instance",
                         help="instance document (.json) or DAG file (.json/.stg)")
    p_trace.add_argument("--format", choices=("chrome", "jsonl"), default=None,
                         help="output format (default: chrome, or from --out suffix)")
    p_trace.add_argument("--out", default=None,
                         help="output path (default: print to stdout)")
    p_trace.add_argument("--procs", type=int, default=8,
                         help="processors when the input is a bare DAG")
    p_trace.add_argument("--heterogeneity", type=float, default=0.5)
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.set_defaults(fn=_cmd_trace)

    def add_instance_args(p):
        p.add_argument("--dag", required=True, help="path to .json or .stg graph")
        p.add_argument("--alg", default="IMP", help="scheduler name (default IMP)")
        p.add_argument("--procs", type=int, default=8)
        p.add_argument("--heterogeneity", type=float, default=0.5)
        p.add_argument("--seed", type=int, default=0)

    p_render = sub.add_parser("render", help="render a schedule as SVG")
    add_instance_args(p_render)
    p_render.add_argument("--out", required=True, help="output .svg path")
    p_render.set_defaults(fn=_cmd_render)

    p_sim = sub.add_parser("simulate", help="replay a schedule in the DES simulator")
    add_instance_args(p_sim)
    p_sim.add_argument("--noise", type=float, default=0.0,
                       help="runtime-noise CV (0 = exact replay)")
    p_sim.add_argument("--contention", action="store_true",
                       help="serialise transfers per link (FIFO)")
    p_sim.set_defaults(fn=_cmd_simulate)

    p_online = sub.add_parser(
        "simulate-online",
        help="stream job arrivals onto one shared cluster (online scheduling)",
    )
    p_online.add_argument("--jobs", type=int, default=200,
                          help="number of arriving jobs (Poisson mode)")
    p_online.add_argument("--rate", type=float, default=0.05,
                          help="arrival rate, jobs per unit time")
    p_online.add_argument("--alg", default="HEFT",
                          help="list scheduler placing each job (default HEFT)")
    p_online.add_argument("--policy", default="queue",
                          help="rescheduling policy: queue, replace, preempt, ...")
    p_online.add_argument("--templates", type=int, default=3,
                          help="size of the job-template catalogue")
    p_online.add_argument("--tasks", type=int, default=20,
                          help="tasks per template (centre of the size fan-out)")
    p_online.add_argument("--procs", type=int, default=8)
    p_online.add_argument("--heterogeneity", type=float, default=0.5)
    p_online.add_argument("--seed", type=int, default=0)
    p_online.add_argument("--noise", type=float, default=0.0,
                          help="runtime-noise CV applied per job (0 = exact ETC)")
    p_online.add_argument("--json", default="",
                          help="write the full result JSON here")
    p_online.add_argument("--save-trace", default="",
                          help="save the realized arrival trace (replayable)")
    p_online.add_argument("--load-trace", default="",
                          help="replay a saved arrival trace instead of Poisson")
    p_online.set_defaults(fn=_cmd_simulate_online)

    p_cmp = sub.add_parser("compare", help="compare schedulers over a suite")
    p_cmp.add_argument("--suite", default="application",
                       help="suite name: application | random | mixed")
    p_cmp.add_argument("--alg", action="append",
                       help="scheduler name (repeatable; default IMP/HEFT/CPOP)")
    p_cmp.add_argument("--procs", type=int, default=8)
    p_cmp.add_argument("--heterogeneity", type=float, default=0.5)
    p_cmp.add_argument("--draws", type=int, default=3, help="ETC draws per DAG")
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.add_argument("--trace-out", default=None, metavar="PATH",
                       help="record an execution trace of the whole comparison")
    p_cmp.set_defaults(fn=_cmd_compare)

    p_explain = sub.add_parser("explain", help="dominant path / slack report")
    add_instance_args(p_explain)
    p_explain.set_defaults(fn=_cmd_explain)

    p_sens = sub.add_parser("sensitivity", help="which workload knob hurts most?")
    p_sens.add_argument("--alg", default="IMP")
    p_sens.add_argument("--tasks", type=int, default=100)
    p_sens.add_argument("--procs", type=int, default=8)
    p_sens.add_argument("--ccr", type=float, default=1.0)
    p_sens.add_argument("--heterogeneity", type=float, default=0.5)
    p_sens.add_argument("--step", type=float, default=0.25)
    p_sens.add_argument("--reps", type=int, default=5)
    p_sens.add_argument("--seed", type=int, default=0)
    p_sens.set_defaults(fn=_cmd_sensitivity)

    p_serve = sub.add_parser("serve", help="run the scheduling service daemon")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8787,
                         help="TCP port (0 = ephemeral)")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="pool processes (0 = in-process thread)")
    p_serve.add_argument("--cache-size", type=int, default=256,
                         help="schedule cache capacity (entries)")
    p_serve.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="persist the schedule cache to an append-only "
                              "segment file in DIR; a restarted daemon "
                              "recovers it and comes back warm")
    p_serve.add_argument("--queue-depth", type=int, default=64,
                         help="bounded request queue (full -> 429)")
    p_serve.add_argument("--max-respawns", type=int, default=3,
                         help="worker-pool respawns allowed per window before "
                              "the engine closes (default 3)")
    p_serve.add_argument("--respawn-window", type=float, default=60.0,
                         help="sliding window (seconds) the respawn budget "
                              "applies to (default 60)")
    p_serve.add_argument("--timeout", type=float, default=30.0,
                         help="default per-request timeout (seconds)")
    p_serve.add_argument("--trace-spans", type=int, default=100_000,
                         help="bound on retained trace spans")
    p_serve.add_argument("--trace-out", default=None, metavar="PATH",
                         help="write the service trace on graceful shutdown")
    p_serve.set_defaults(fn=_cmd_serve)

    p_fleet = sub.add_parser(
        "fleet",
        help="run a sharded fleet: consistent-hash router + N serve daemons",
    )
    p_fleet.add_argument("--shards", type=int, default=4,
                         help="backend serve daemons to spawn (default 4)")
    p_fleet.add_argument("--host", default="127.0.0.1")
    p_fleet.add_argument("--port", type=int, default=8800,
                         help="router TCP port (0 = ephemeral)")
    p_fleet.add_argument("--workers", type=int, default=1,
                         help="pool processes per shard (0 = in-process thread)")
    p_fleet.add_argument("--cache-size", type=int, default=256,
                         help="schedule cache capacity per shard (entries)")
    p_fleet.add_argument("--queue-depth", type=int, default=64,
                         help="bounded request queue per shard (full -> 429)")
    p_fleet.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="root for per-shard persistent cache segments "
                              "(DIR/shard-N); respawned shards come back warm")
    p_fleet.add_argument("--vnodes", type=int, default=128,
                         help="virtual nodes per shard on the hash ring")
    p_fleet.add_argument("--health-interval", type=float, default=0.5,
                         help="seconds between shard health probes")
    p_fleet.add_argument("--max-respawns", type=int, default=3,
                         help="shard respawns allowed per window before the "
                              "shard stays quarantined (default 3)")
    p_fleet.add_argument("--respawn-window", type=float, default=30.0,
                         help="sliding window (seconds) for the respawn budget")
    p_fleet.set_defaults(fn=_cmd_fleet)

    p_submit = sub.add_parser("submit", help="submit a task graph to a running service")
    add_instance_args(p_submit)
    p_submit.add_argument("--endpoint", default="127.0.0.1:8787",
                          help="service endpoint host:port")
    p_submit.add_argument("--retries", type=int, default=3,
                          help="client retries on backpressure/connection "
                               "failures (0 disables; default 3)")
    p_submit.add_argument("--timeout", type=float, default=60.0,
                          help="request timeout (seconds)")
    p_submit.add_argument("--wire", choices=("bin", "json"), default="bin",
                          help="wire format for the request/response "
                               "(binary is the default and falls back to "
                               "JSON against an older server)")
    p_submit.add_argument("--gantt", action="store_true",
                          help="print an ASCII Gantt chart of the result")
    p_submit.set_defaults(fn=_cmd_submit)

    p_demo = sub.add_parser("demo", help="tiny end-to-end demonstration")
    p_demo.set_defaults(fn=_cmd_demo)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
