"""``serve-mix``: warm reads beside cold writes against a real ``repro serve``.

Each set-up spawns ``python -m repro.cli serve --port 0 --workers 1``
(no ``--cache-dir``), reads the bound port from its first stdout line
and primes it.  First 224 filler entries (10-task HEFT instances, the
daemon's earlier traffic, not timed as set-up) fill the 256-entry
response cache up to the warm set, so every cold request in the window
evicts one entry.  Then
every key of the warm set (4 instances of 100 tasks x the 8 line-up
algorithms = 32 keys) is computed once through the binary client, then
fetched through the JSON client and again through the binary client,
so both clients' body caches, the server's exact-body map and the pool
worker are warm.  The cache is least-recently-used and the warm keys are
newer than every filler, so evictions take fillers, never warm keys.

The timed window is a closed loop from this one thread: one binary
keep-alive ``ServiceClient`` and one JSON ``ServiceClient`` each walk
their own seeded sequence, waiting for every reply before the next
request.  In each block of 20 requests one, at a seeded position, is a
cold IMP request for a 100-task instance the daemon has never seen (a
fresh ETC draw on one of 64 pre-built DAGs); the rest are
Zipf-skewed (s = 1) over the warm keys, each algorithm taking the same
share of them whatever the seed.  The window lasts ``--seconds``
and, when the machine is so slow that fewer than 100 cold requests or
1000 warm requests per wire finished by then (``cold_p90_ms`` and the
p99s need ten samples beyond them), goes on until they have, for at
most twice as long again.

After the window the binary client asks, untimed, for IMP on the
sweeps' quality corpus, whose mean SLR is ``quality_mean``.  The daemon
is then stopped with ``POST /v1/shutdown``; a drain that does not exit
cleanly counts as a failure.
"""

from __future__ import annotations

import asyncio
import bisect
import gc
import hashlib
import re
import select
import subprocess
import sys
import time

import numpy as np

from repro.bench.workloads import random_instance
from repro.dag.generators import random_dag
from repro.instance import make_instance
from repro.instance_io import instance_to_json
from repro.service.client import ServiceClient
from repro.service.errors import ServiceError
from repro.service.protocol import compute_schedule_payload

from common import (
    LINEUP,
    ROOT,
    Result,
    calibrate,
    calibrate_n,
    derive_seed,
    python_env,
    report_setup,
    speed,
)
from sweep import quality_corpus

WARM_INSTANCES = 4
CACHE_SIZE = 256  # ``repro serve`` default
FILLERS = CACHE_SIZE - WARM_INSTANCES * len(LINEUP)
FILLER_TASKS = 10
MIN_COLD = 100  # cold_p90_ms needs ten samples beyond it
MIN_WARM = 1000  # per wire, for the p99s
COLD_EVERY = 20
COLD_DAGS = 64
ZIPF_S = 1.0
#: Seconds either side of a request whose calibrations rescale it.  CPU
#: speed on the reference host swings within a second, and a factor for
#: the whole window over-corrects a run in which the host ran fast for
#: part of the time.
CAL_WINDOW_S = 0.5
SETUPS = 3
WORKERS = 1
#: Response fields that describe the request, not the schedule.
EXCLUDED = ("cache_hit", "fingerprint", "server_ms", "trace_id")
CLASSES = ("warm_bin", "warm_json", "cold")


def strip(payload: dict) -> dict:
    return {k: v for k, v in payload.items() if k not in EXCLUDED}


def digest(payload: dict) -> str:
    """Exact content hash of a payload (``repr`` keeps every float bit)."""
    return hashlib.sha256(repr(payload).encode()).hexdigest()


class Inputs:
    """Everything ``serve-mix`` sends, drawn from the seed."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.warm = [
            random_instance(np.random.default_rng(derive_seed(seed, 1, i)), num_tasks=100)
            for i in range(WARM_INSTANCES)
        ]
        self.keys = [(i, alg) for i in range(WARM_INSTANCES) for alg in LINEUP]
        self.fillers = [
            random_instance(np.random.default_rng(derive_seed(seed, 5, f)), num_tasks=FILLER_TASKS)
            for f in range(FILLERS)
        ]
        self.cold_dags = [
            random_dag(100, ccr=1.0, seed=derive_seed(seed, 3, m)) for m in range(COLD_DAGS)
        ]

    def cold_instance(self, client: int, j: int):
        """The ``j``-th cold instance of ``client`` (fresh object, new content)."""
        return make_instance(self.cold_dags[j % COLD_DAGS], num_procs=8, heterogeneity=0.5,
                             seed=derive_seed(self.seed, 4, client, j),
                             name=f"cold-{client}-{j}")

    def requests(self, client: int):
        """Endless ``("warm", key index)`` / ``("cold", j)`` sequence.

        Warm picks are Zipf-skewed over popularity ranks.  Rank ``r``
        always serves algorithm ``LINEUP[r % 8]``, on an instance the seed
        picks, so every seed gives each algorithm the same share of the
        traffic.  Payload sizes differ by algorithm (duplication adds
        placements), and warm round trips with them: when the seed chose
        which algorithm was hottest, the warm median followed that choice.
        """
        rng = np.random.default_rng(derive_seed(self.seed, 2, client))
        n, algs = len(self.keys), len(LINEUP)
        instance_order = [rng.permutation(WARM_INSTANCES) for _ in LINEUP]
        perm = [int(instance_order[r % algs][r // algs]) * algs + r % algs for r in range(n)]
        weights = 1.0 / np.arange(1, n + 1) ** ZIPF_S
        probs = weights / weights.sum()
        j = 0
        while True:
            cold_at = int(rng.integers(COLD_EVERY))
            picks = rng.choice(n, size=COLD_EVERY, p=probs)
            for pos in range(COLD_EVERY):
                if pos == cold_at:
                    yield ("cold", j)
                    j += 1
                else:
                    yield ("warm", perm[picks[pos]])


class Daemon:
    """One ``repro serve`` subprocess."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--workers", str(WORKERS)],
            cwd=ROOT, env=python_env(), stdout=subprocess.PIPE, text=True,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline() if ready else ""
        match = re.search(r"http://[^\s/]+:(\d+)", line)
        if match is None:
            self.kill()
            raise RuntimeError(f"daemon did not report its port: {line!r}")
        self.port = int(match.group(1))

    def drained(self) -> str | None:
        """Wait for exit after a shutdown request; a problem text or ``None``."""
        try:
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()
            return "daemon did not exit within 30 s of /v1/shutdown"
        if self.proc.returncode != 0 or "drained:" not in out:
            return f"unclean drain (exit {self.proc.returncode}): {out.strip()[-200:]!r}"
        return None

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class Session:
    """A primed daemon plus its two clients."""

    def __init__(self, inputs: Inputs, res: Result) -> None:
        self.inputs = inputs
        self.res = res
        self.daemon: Daemon | None = None
        self.expected: dict[int, dict] = {}

    async def start(self) -> tuple[float, float]:
        """Spawn and prime; returns ``(seconds, slowness)``.  Writing the
        fillers, which stand for earlier traffic, is not timed."""
        before = calibrate_n()
        t0 = time.perf_counter()
        self.daemon = Daemon()
        port = self.daemon.port
        self.bin = ServiceClient(port=port, wire="bin", request_timeout=30.0)
        self.json = ServiceClient(port=port, wire="json", request_timeout=30.0)
        spawned = time.perf_counter() - t0
        for inst in self.inputs.fillers:
            self.res.attempted += 1
            if (await self.bin.schedule(inst, "HEFT")).cache_hit:
                self.res.problem("filler request was a cache hit")
        t1 = time.perf_counter()
        for k, (i, alg) in enumerate(self.inputs.keys):
            inst = self.inputs.warm[i]
            self.res.attempted += 3
            first = await self.bin.schedule(inst, alg)
            if first.cache_hit:
                self.res.problem(f"priming {alg}: first request was a cache hit")
            self.expected[k] = strip(first.payload)
            for client in (self.json, self.bin):
                again = await client.schedule(inst, alg)
                if not again.cache_hit or strip(again.payload) != self.expected[k]:
                    self.res.problem(f"priming {alg} via {client.wire}: not an equal cache hit")
        elapsed = spawned + time.perf_counter() - t1
        return elapsed, speed(before + calibrate_n())

    async def quality(self) -> tuple[list[float], list]:
        """IMP's SLR on each instance of the sweeps' quality corpus as the
        daemon serves it, asked after the window; returns the SLRs and
        ``(instance, payload digest)`` pairs for the output check."""
        slrs, colds = [], []
        for inst in quality_corpus():
            self.res.attempted += 1
            try:
                result = await self.bin.schedule(inst, "IMP")
            except (ServiceError, OSError, asyncio.TimeoutError) as exc:
                self.res.problem(f"quality IMP on {inst.name}: {type(exc).__name__}: {exc}")
                continue
            slrs.append(result.makespan / inst.cp_min_length)
            colds.append((inst, digest(strip(result.payload))))
        return slrs, colds

    async def stop(self) -> None:
        await self.bin.close()
        try:
            await self.json.shutdown()
        except (ServiceError, OSError) as exc:
            self.res.problem(f"/v1/shutdown failed: {type(exc).__name__}: {exc}")
        problem = self.daemon.drained()
        if problem:
            self.res.problem(problem)

    async def window(self, seconds: float, min_cold: int, min_warm: int) -> dict:
        """The closed-loop timed window, extended until ``min_cold`` cold
        and ``min_warm`` warm requests per wire finished; returns samples
        ``(start, round trip ms, server_ms)``, calibrations ``(time,
        seconds)`` and stats deltas."""
        samples: dict[str, list[tuple[float, float, float]]] = {c: [] for c in CLASSES}
        colds: list = []
        misses = cold_waiters = 0
        cal: list[tuple[float, float]] = []
        res, inputs = self.res, self.inputs
        st0 = (await self.json.stats()).as_dict()

        async def sample_speed() -> None:
            # Calibrate only while both clients wait on cold jobs, so no
            # sample delays a warm request, and sparsely, so this process
            # does not load the vCPU the pool worker shares.
            while not done():
                await asyncio.sleep(0.02)
                if cold_waiters == 2:
                    cal.append((time.perf_counter(), calibrate(2500)))

        def done() -> bool:
            now = time.perf_counter()
            enough = len(samples["cold"]) >= min_cold and min(
                len(samples["warm_bin"]), len(samples["warm_json"])) >= min_warm
            return now >= deadline and (enough or now >= cap)

        async def drive(index: int, client: ServiceClient, wire: str) -> None:
            nonlocal misses, cold_waiters
            for kind, ref in inputs.requests(index):
                if done():
                    return
                if kind == "warm":
                    i, alg = inputs.keys[ref]
                    inst = inputs.warm[i]
                else:
                    inst, alg = inputs.cold_instance(index, ref), "IMP"
                res.attempted += 1
                cold_waiters += kind == "cold"
                t0 = time.perf_counter()
                try:
                    result = await client.schedule(inst, alg)
                    result.placements  # decode the schedule inside the timed span
                except (ServiceError, OSError, asyncio.TimeoutError) as exc:
                    res.problem(f"{wire} {kind} {alg}: {type(exc).__name__}: {exc}")
                    continue
                finally:
                    cold_waiters -= kind == "cold"
                rt_ms = (time.perf_counter() - t0) * 1e3
                if kind == "warm":
                    samples[f"warm_{wire}"].append((t0, rt_ms, result.server_ms))
                    misses += not result.cache_hit
                    if strip(result.payload) != self.expected[ref]:
                        res.problem(f"{wire} warm {alg}: payload differs from its cold payload")
                else:
                    samples["cold"].append((t0, rt_ms, result.server_ms))
                    if result.cache_hit:
                        res.problem(f"{wire} cold request answered from the cache")
                    # A digest, not the payload: keeping ~100k payload
                    # objects alive would lengthen collector pauses here.
                    colds.append((inst, digest(strip(result.payload))))

        # Objects built during set-up live for the whole run; freezing
        # them keeps this process's collector pauses short in the window.
        gc.collect()
        gc.freeze()
        t_start = time.perf_counter()
        deadline = t_start + seconds
        cap = t_start + 3 * seconds
        await asyncio.gather(drive(0, self.bin, "bin"), drive(1, self.json, "json"),
                             sample_speed())
        elapsed = time.perf_counter() - t_start
        gc.unfreeze()
        st1 = (await self.json.stats()).as_dict()
        delta = {k: st1[k] - st0[k] for k in st0 if isinstance(st0[k], int)}
        return {"samples": samples, "colds": colds, "elapsed": elapsed, "delta": delta,
                "warm_misses": misses, "cal": cal,
                "slowness": speed([c for _, c in cal] or [calibrate()])}


class References:
    """``compute_schedule_payload`` in this process, memoised per key."""

    def __init__(self) -> None:
        self._memo: dict[tuple[str, str], dict] = {}

    def __call__(self, inst, alg: str) -> dict:
        key = (inst.fingerprint(), alg)
        if key not in self._memo:
            self._memo[key] = strip(compute_schedule_payload(instance_to_json(inst), alg))
        return self._memo[key]


def _check(res: Result, inputs: Inputs, session: Session, win: dict, refs: References) -> None:
    """Outside the timed window: every cold payload, primed or not,
    equals this process's own computation for the same input."""
    for k, (i, alg) in enumerate(inputs.keys):
        if session.expected[k] != refs(inputs.warm[i], alg):
            res.problem(f"primed {alg} payload differs from compute_schedule_payload")
    for inst, got in win["colds"]:
        if got != digest(refs(inst, "IMP")):
            res.problem(f"cold {inst.name} payload differs from compute_schedule_payload")


def rescaled(win: dict, cls: str) -> list[tuple[float, float]]:
    """``(round trip, server_ms)`` of each ``cls`` sample at reference
    speed: divided by the slowness the calibrations within
    :data:`CAL_WINDOW_S` of its start measured, or the whole window's
    when fewer than five were taken that close."""
    times = [t for t, _ in win["cal"]]
    out = []
    for t0, rt, srv in win["samples"][cls]:
        lo = bisect.bisect_left(times, t0 - CAL_WINDOW_S)
        hi = bisect.bisect_right(times, t0 + CAL_WINDOW_S)
        near = [c for _, c in win["cal"][lo:hi]]
        slow = speed(near) if len(near) >= 5 else win["slowness"]
        out.append((rt / slow, srv / slow))
    return out


def _rate(win: dict) -> float:
    """Requests per reference-speed second."""
    return sum(len(v) for v in win["samples"].values()) / win["elapsed"] * win["slowness"]


async def _untraced(res: Result, inputs: Inputs, seconds: float, refs: References) -> None:
    setup = []
    for r in range(SETUPS):
        session = Session(inputs, res)
        try:
            setup.append(await session.start())
            if r < SETUPS - 1:
                await session.stop()
                continue
            win = await session.window(seconds, MIN_COLD, MIN_WARM)
            slrs, quality_colds = await session.quality()
            await session.stop()
        finally:
            if session.daemon is not None:
                session.daemon.kill()
    report_setup(res, setup, "daemon spawn+prime set-ups")
    slow = win["slowness"]
    rt = {c: [r for r, _ in rescaled(win, c)] for c in CLASSES}
    res.set("op_ms", res.pct("warm_bin_p50_ms", rt["warm_bin"], 50))
    res.pct("warm_bin_p99_ms", rt["warm_bin"], 99)
    res.pct("warm_json_p50_ms", rt["warm_json"], 50)
    res.pct("warm_json_p99_ms", rt["warm_json"], 99)
    res.pct("cold_p50_ms", rt["cold"], 50)
    res.pct("cold_p90_ms", rt["cold"], 90)
    res.notes.append(f"requests_per_s = {_rate(win):.6g} "
                     f"({sum(len(v) for v in rt.values())} requests in {win['elapsed']:.2f} s, "
                     f"{win['warm_misses']} warm cache misses; "
                     f"window slowness {slow:.3f} from {len(win['cal'])} calibrations)")
    res.notes.append("latencies above are rescaled to reference speed by the calibrations "
                     f"within {CAL_WINDOW_S} s of each request; op_ms is warm_bin_p50_ms")
    if slrs:
        res.set("quality_mean", sum(slrs) / len(slrs),
                f"IMP's mean SLR over the {len(slrs)}-instance quality corpus, served")
    res.env_extra["stats_delta"] = win["delta"]
    win["colds"] += quality_colds
    _check(res, inputs, session, win, refs)


async def _traced(res: Result, inputs: Inputs, seconds: float, refs: References) -> None:
    from spans import Patcher, SpanRecorder, instrument_client, layer_ms

    wins = []
    rec = SpanRecorder()
    for traced in (False, True):
        session = Session(inputs, res)
        try:
            await session.start()
            if traced:
                with Patcher(rec) as patcher:
                    instrument_client(patcher)
                    win = await session.window(seconds / 2, 20, 20)
            else:
                win = await session.window(seconds / 2, 20, 20)
            await session.stop()
        finally:
            if session.daemon is not None:
                session.daemon.kill()
        _check(res, inputs, session, win, refs)
        wins.append(win)
    plain, win = wins
    ops = sum(len(v) for v in win["samples"].values())
    slow = win["slowness"]
    res.set("client.encode_ms", layer_ms(rec, "client.encode", ops, slow))
    res.set("client.decode_ms", layer_ms(rec, "client.decode", ops, slow))
    for c in CLASSES:
        pairs = rescaled(win, c)
        framing = [rt - srv for rt, srv in pairs]
        server = [srv for _, srv in pairs]
        res.set(f"service.{c}.framing_ms", res.pct(f"service.{c}.framing_ms", framing, 50))
        res.set(f"service.{c}.server_ms", res.pct(f"service.{c}.server_ms", server, 50))
    d = win["delta"]
    lookups = d["cache_hits"] + d["cache_misses"]
    lowerings = d["lowering_hits"] + d["lowering_misses"]
    res.set("service.cache_hit_ratio", d["cache_hits"] / lookups if lookups else 0.0)
    res.set("service.cache_evictions", d["cache_evictions"])
    res.set("service.batch_size_mean", d["batched_jobs"] / d["batches"] if d["batches"] else 0.0)
    res.set("service.lowering_hit_ratio", d["lowering_hits"] / lowerings if lowerings else 0.0)
    for name in ("compiled_schedules", "compiled_fallbacks", "errors", "rejected",
                 "timeouts", "respawns"):
        res.set(f"service.{name}", d[name])
    res.set("trace.overhead_pct", (_rate(plain) / _rate(win) - 1.0) * 100.0,
            f"req/s untraced {_rate(plain):.1f} vs traced {_rate(win):.1f}")
    res.env_extra["stats_delta"] = d
    res.env_extra["trace_spans"] = len(rec.names)
    res.recorder = rec


def run(res: Result, seed: int, seconds: float) -> None:
    res.env_extra["daemon_workers"] = WORKERS
    inputs = Inputs(seed)
    refs = References()
    asyncio.run((_traced if res.trace else _untraced)(res, inputs, seconds, refs))
