"""Asynchronous scheduling engine: the compute core of the service.

Request lifecycle::

    submit() ──> cache hit? ──────────────────────────────> respond
        │
        ├──> identical request already in flight? ─┐         (coalesce:
        │                                          ├───────> share the
        └──> bounded queue (full -> 429) ──> dispatcher      same future)
                                                │
                   takes one job, waits for a worker slot (one per
                   worker), hands the job to it, takes the next
                                                │
                                  ProcessPoolExecutor worker
                        (compute_in_worker -> compute_schedule_payload:
                         parse, schedule, validate, serialise)
                                                │
                               cache.put + resolve the future

Design notes:

* **One cold path, traced or not.**  Every job is one worker call
  (:func:`~repro.service.protocol.compute_in_worker`) under its own
  dispatch slot.  Tracing only decides whether the worker ships a trace
  export back with the payload; it never changes routing, so the pool
  healing the chaos tests exercise is the one every ``repro serve``
  daemon (which always traces) runs.  Jobs are never chunked into one
  worker call: with 2 workers, chunking would return a burst of 8 cold
  jobs in two chunks of 4, so the first response would wait for four
  computations.
* **Coalescing at two levels.**  The content-addressed cache folds
  repeats over time; the in-flight table folds repeats *in the same
  instant* — N concurrent submissions of one instance cost one
  computation, and all N waiters share its future.
* **Backpressure is an error, not a wait.**  When the queue is at
  capacity, :meth:`submit` raises :class:`ServiceOverloadedError`
  immediately (HTTP 429) instead of queueing unbounded work; shedding
  load early is what keeps tail latency bounded under overload.
* **Timeouts don't kill shared work.**  A waiter that times out stops
  waiting (HTTP 504), but the computation — potentially shared with
  other waiters, and cacheable — runs to completion behind
  :func:`asyncio.shield`.
* **Workers are processes.**  The cold path pickles ``(instance JSON
  or wire bytes, alg)`` to a
  :class:`~concurrent.futures.ProcessPoolExecutor`, the same
  module-level-function discipline as the parallel sweep runner
  (:mod:`repro.bench.runner`), so the GIL never serialises scheduling
  work.  ``workers=0`` degrades to a thread, which tests use to
  monkeypatch the compute function.
* **Lowering is memoised per worker.**  Inside each worker,
  :func:`~repro.service.protocol.compute_schedule_payload` resolves the
  request body through a fingerprint-keyed LRU of parsed instances, so
  warm requests for known content (same instance, different scheduler;
  response evicted from this engine's cache) skip JSON parsing and the
  kernel/compiled flat-array lowering and go straight to scheduling.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass

from repro.instance import Instance
from repro.instance_io import instance_to_json
from repro.obs import NullTracer, Tracer, get_tracer, to_prometheus
from repro.service import faults, protocol
from repro.service.cache import ScheduleCache, SegmentStore, request_key
from repro.service.errors import (
    ServiceClosedError,
    ServiceOverloadedError,
    ServiceTimeoutError,
    WorkerError,
)
from repro.service.metrics import ServiceMetrics
from repro.service.resilience import Deadline


@dataclass(frozen=True)
class EngineConfig:
    """Tunables of one engine (all bounded, all explicit)."""

    workers: int = 2
    cache_size: int = 256
    queue_depth: int = 64
    default_timeout: float = 30.0
    #: Pool self-healing: how many pool respawns are allowed within one
    #: sliding ``respawn_window`` before the engine declares itself
    #: unrecoverable and closes (crash-looping workers would otherwise
    #: burn CPU forever re-warming doomed pools).
    max_respawns: int = 3
    respawn_window: float = 60.0
    #: Chaos-testing hook: a picklable fault plan installed in every
    #: pool worker (including respawned pools).  ``None`` in production.
    fault_plan: "faults.FaultPlan | None" = None
    #: Directory for the persistent schedule cache (append-only segment
    #: file).  ``None`` (the default) keeps the cache memory-only; set,
    #: it makes a restarted daemon come back warm (``repro serve
    #: --cache-dir``).
    cache_dir: str | None = None

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.default_timeout <= 0:
            raise ValueError(f"default_timeout must be > 0, got {self.default_timeout}")
        if self.max_respawns < 0:
            raise ValueError(f"max_respawns must be >= 0, got {self.max_respawns}")
        if self.respawn_window <= 0:
            raise ValueError(f"respawn_window must be > 0, got {self.respawn_window}")


def _warm_worker() -> None:
    """Force a pool worker to exist and pre-import the scheduler stack.

    The short sleep keeps each warmed worker busy long enough that the
    executor spawns a fresh process for the next warmup task instead of
    reusing this one.
    """
    import repro.schedulers.registry  # noqa: F401  (import is the warmup)

    time.sleep(0.05)


def _init_worker(plan: "faults.FaultPlan | None") -> None:
    """Pool-worker initializer: arm the fault plan (a no-op when None)."""
    faults.install(plan)


class _Job:
    """One unique (instance, alg) computation and its shared future.

    ``trace_id``/``sid``/``enqueued`` carry the observability context of
    the request that *created* the job (coalesced waiters share it): the
    correlation id, the parent span for the compute/queue-wait spans,
    and the enqueue timestamp the queue-wait span is measured from.
    """

    __slots__ = ("key", "text", "alg", "future", "trace_id", "sid", "enqueued")

    def __init__(self, key: str, text: str | bytes, alg: str, future: asyncio.Future,
                 trace_id: str | None = None, sid: int | None = None,
                 enqueued: float = 0.0) -> None:
        self.key = key
        self.text = text
        self.alg = alg
        self.future = future
        self.trace_id = trace_id
        self.sid = sid
        self.enqueued = enqueued


class SchedulingEngine:
    """Accepts schedule requests, answers from cache or a worker pool."""

    def __init__(self, config: EngineConfig | None = None,
                 metrics: ServiceMetrics | None = None,
                 tracer: Tracer | NullTracer | None = None) -> None:
        self.config = config or EngineConfig()
        self.metrics = metrics or ServiceMetrics()
        self._tracer = tracer
        self._trace_seq = 0
        self.cache = ScheduleCache(self.config.cache_size)
        self._store: SegmentStore | None = None
        self.recovery_report: dict[str, int] | None = None
        self._queue: asyncio.Queue[_Job | None] = asyncio.Queue(maxsize=self.config.queue_depth)
        # One dispatch slot per pool worker: when every worker is busy
        # the dispatcher stalls, the queue genuinely fills, and submit()
        # starts shedding load — the queue bound is the backpressure.
        self._slots = asyncio.Semaphore(max(1, self.config.workers))
        self._inflight: dict[str, _Job] = {}
        self._running: set[asyncio.Task] = set()
        self._pool: ProcessPoolExecutor | None = None
        self._pool_generation = 0
        self._respawn_lock: asyncio.Lock | None = None
        self._respawn_times: deque[float] = deque()
        self._dispatcher: asyncio.Task | None = None
        self._stop: asyncio.Event | None = None
        self._closed = False
        self._started = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Spin up the worker pool and the dispatcher coroutine.

        Workers are forked *and warmed* here, before the server accepts
        any connection: a worker forked mid-request would inherit the
        accepted socket (keeping it open past the response), and warming
        pays the library import cost once instead of on the first
        request of each worker.
        """
        if self._started:
            return
        if self.config.cache_dir is not None:
            self._recover_cache()
        if self.config.workers > 0:
            self._pool = await self._spawn_pool()
        self._stop = asyncio.Event()
        self._respawn_lock = asyncio.Lock()
        self._respawn_times.clear()
        self._dispatcher = asyncio.create_task(self._dispatch_loop(), name="repro-dispatcher")
        self._started = True
        self._closed = False

    def _recover_cache(self) -> None:
        """Replay the persistent segment into the in-memory cache.

        Records are wire-encoded payloads; a record that fails to decode
        (e.g. written by a build with a different wire version) is
        counted and skipped, never trusted.  Only the newest
        ``cache_size`` entries are loaded — the segment is append-only
        and can outgrow the LRU, and loading the tail end matches what
        the LRU would have kept anyway.
        """
        from repro.service.wire import decode_payload

        self._store = SegmentStore(self.config.cache_dir)
        with self.tracer.span("cache.recover", detach=True) as span:
            entries, report = self._store.recover()
            report["undecodable"] = 0
            for key, raw in list(entries.items())[-self.config.cache_size:]:
                try:
                    self.cache.put(key, decode_payload(raw))
                except Exception:
                    report["undecodable"] += 1
            span.set(**report)
            self.recovery_report = report

    async def _spawn_pool(self) -> ProcessPoolExecutor:
        """Fork and warm one worker pool (initial start and respawns)."""
        pool = ProcessPoolExecutor(
            max_workers=self.config.workers,
            initializer=_init_worker,
            initargs=(self.config.fault_plan,),
        )
        warmups = [pool.submit(_warm_worker) for _ in range(self.config.workers)]
        await asyncio.gather(*[asyncio.wrap_future(f) for f in warmups])
        return pool

    async def stop(self, drain: bool = True, drain_timeout: float = 30.0) -> None:
        """Stop the engine.

        ``drain=True`` (graceful): refuse new submissions, let every
        queued and in-flight job finish (bounded by ``drain_timeout``),
        then tear the pool down.  ``drain=False``: cancel everything
        pending; waiters see :class:`ServiceClosedError`.
        """
        if not self._started:
            return
        self._closed = True
        if drain:
            deadline = time.monotonic() + drain_timeout
            while (self._inflight or not self._queue.empty()) and time.monotonic() < deadline:
                await asyncio.sleep(0.01)
        if self._stop is not None:
            # A dedicated stop event, never an in-band queue sentinel: a
            # bounded queue can be full at stop time, and a sentinel
            # that cannot be enqueued would crash the dispatcher and
            # deadlock shutdown.
            self._stop.set()
        if self._dispatcher is not None:
            try:
                await asyncio.wait_for(self._dispatcher, timeout=5.0)
            except (asyncio.TimeoutError, asyncio.CancelledError):
                self._dispatcher.cancel()
            self._dispatcher = None
        for task in list(self._running):
            if not drain:
                task.cancel()
        if self._running:
            await asyncio.gather(*self._running, return_exceptions=True)
        for job in list(self._inflight.values()):
            if not job.future.done():
                job.future.set_exception(ServiceClosedError("engine stopped"))
        self._inflight.clear()
        while not self._queue.empty():  # anything the dispatcher never reached
            job = self._queue.get_nowait()
            if job is not None and not job.future.done():
                job.future.set_exception(ServiceClosedError("engine stopped"))
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=not drain)
            self._pool = None
        if self._store is not None:
            self._store.close()
            self._store = None
        self._started = False

    @property
    def draining(self) -> bool:
        return self._closed

    @property
    def pool_generation(self) -> int:
        """How many pools this engine has had (0 = the original)."""
        return self._pool_generation

    @property
    def tracer(self) -> Tracer | NullTracer:
        """This engine's tracer: the injected one, else the module default."""
        return self._tracer if self._tracer is not None else get_tracer()

    def _next_trace_id(self) -> str:
        self._trace_seq += 1
        return f"req-{self._trace_seq:08d}"

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    async def submit(self, instance: Instance, alg: str,
                     timeout: float | None = None,
                     trace_id: str | None = None,
                     deadline: "Deadline | float | None" = None,
                     encoded: bytes | None = None) -> dict:
        """Schedule ``instance`` with scheduler ``alg``; return the payload.

        The returned dict is a fresh copy carrying ``cache_hit``,
        ``fingerprint`` and ``server_ms`` alongside the placement data
        (plus ``trace_id`` when tracing is on).  Raises
        :class:`ServiceOverloadedError` (queue full),
        :class:`ServiceTimeoutError` (deadline), :class:`WorkerError`
        (computation failed) or :class:`ServiceClosedError` (draining).

        ``encoded`` is the instance's binary wire form when the request
        arrived that way: a cold job then ships those exact bytes to the
        pool worker, which decodes packed arrays instead of re-parsing a
        JSON document (the worker accepts either form).

        ``deadline`` (a :class:`~repro.service.resilience.Deadline` or
        an absolute ``time.monotonic()`` float) is the one end-to-end
        expiry the request carries from the client: the effective wait
        here is ``min(timeout, deadline.remaining())``, so time already
        spent in transport or in the queue is never double-counted.  A
        request that arrives past its deadline is answered 504 without
        occupying queue space (a cache hit still answers — it is free).

        All request spans use explicit parents (``parent=``/``detach``)
        rather than the tracer's thread-local nesting: the event-loop
        thread interleaves many requests, so implicit nesting would
        attribute spans to whichever request last yielded.
        """
        if self._closed or not self._started:
            raise ServiceClosedError("engine is not accepting requests")
        tracer = self.tracer
        if trace_id is None and tracer.enabled:
            trace_id = self._next_trace_id()
        self.metrics.request()
        t0 = time.perf_counter()
        with tracer.span("service.request", detach=True,
                         alg=alg, trace_id=trace_id) as req:
            key = request_key(instance, alg)
            with tracer.span("cache.lookup", parent=req.sid, trace_id=trace_id) as lk:
                cached = self.cache.get(key)
                lk.set(hit=cached is not None)
            if cached is not None:
                self.metrics.cache_hit()
                with tracer.span("cache.hit", parent=req.sid,
                                 alg=alg, trace_id=trace_id):
                    pass
                return self._respond(cached, key, t0, cache_hit=True,
                                     trace_id=trace_id, parent=req.sid)
            self.metrics.cache_miss()

            if timeout is None:
                timeout = self.config.default_timeout
            if deadline is not None:
                if isinstance(deadline, float | int):
                    deadline = Deadline(float(deadline))
                timeout = min(timeout, deadline.remaining())
                if timeout <= 0:
                    self.metrics.timeout()
                    raise ServiceTimeoutError(
                        f"deadline expired before {alg} could be scheduled "
                        f"({-timeout:g}s past)"
                    )

            job = self._inflight.get(key)
            if job is None:
                job = _Job(key, encoded if encoded is not None else instance_to_json(instance), alg,
                           asyncio.get_running_loop().create_future(),
                           trace_id=trace_id, sid=req.sid,
                           enqueued=time.perf_counter())
                try:
                    self._queue.put_nowait(job)
                except asyncio.QueueFull:
                    self.metrics.reject()
                    exc = ServiceOverloadedError(
                        f"request queue full ({self.config.queue_depth}); retry later"
                    )
                    exc.retry_after = self.retry_after_hint()
                    raise exc from None
                self._inflight[key] = job
            else:
                self.metrics.coalesce()
                if tracer.enabled:
                    tracer.count("service.coalesced")

            try:
                payload = await asyncio.wait_for(asyncio.shield(job.future), timeout)
            except asyncio.TimeoutError:
                self.metrics.timeout()
                raise ServiceTimeoutError(
                    f"no result for {alg} within {timeout:g}s (key {key[:12]}...)"
                ) from None
            return self._respond(payload, key, t0, cache_hit=False,
                                 trace_id=trace_id, parent=req.sid)

    def retry_after_hint(self) -> float:
        """Load-aware backoff suggestion (seconds) for 429 responses.

        Scales with how much queued work each worker has to chew
        through; clamped so clients neither hammer a saturated daemon
        nor stall for ages after a transient spike.
        """
        per_worker = self._queue.qsize() / max(1, self.config.workers)
        return min(2.0, max(0.05, 0.05 * per_worker))

    def submit_cached(self, key: str, trace_id: str | None = None) -> dict | None:
        """Answer request ``key`` from the cache, or ``None`` if absent.

        Fast path for callers that already know the request key (the
        server remembers it per exact request body): a hit skips
        instance parsing and fingerprinting entirely.  A miss is silent
        — no counters move — because the caller falls back to
        :meth:`submit`, which accounts the request in full.
        """
        if self._closed or not self._started:
            raise ServiceClosedError("engine is not accepting requests")
        if key not in self.cache:
            return None
        tracer = self.tracer
        if trace_id is None and tracer.enabled:
            trace_id = self._next_trace_id()
        self.metrics.request()
        t0 = time.perf_counter()
        with tracer.span("service.request", detach=True,
                         trace_id=trace_id, fast_path=True) as req:
            payload = self.cache.get(key)
            self.metrics.cache_hit()
            with tracer.span("cache.hit", parent=req.sid, trace_id=trace_id):
                pass
            return self._respond(payload, key, t0, cache_hit=True,
                                 trace_id=trace_id, parent=req.sid)

    def _respond(self, payload: dict, key: str, t0: float, cache_hit: bool,
                 trace_id: str | None = None, parent: int | None = None) -> dict:
        tracer = self.tracer
        with tracer.span("service.encode", parent=parent, trace_id=trace_id):
            latency_ms = (time.perf_counter() - t0) * 1e3
            self.metrics.complete(latency_ms)
            out = {
                **payload,
                "cache_hit": cache_hit,
                "fingerprint": key,
                "server_ms": latency_ms,
            }
            if trace_id is not None:
                out["trace_id"] = trace_id
            return out

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        """Pull jobs off the queue one at a time and fan them out.

        A job leaves the queue only when the dispatcher can hand it a
        worker slot next, so at most one dequeued job waits outside
        ``queue_depth`` and :meth:`retry_after_hint` sees every other
        waiting job.  ``batches``/``batched_jobs`` count one per
        dispatched job.

        Shutdown is signalled by the dedicated ``self._stop`` event —
        never by an in-band queue sentinel, which a full bounded queue
        could refuse to (re-)enqueue, crashing this task and
        deadlocking :meth:`stop`.  Both blocking points (queue get,
        slot acquire) race the event, so a hard stop interrupts the
        dispatcher wherever it is waiting.
        """
        stop = self._stop
        stop_wait = asyncio.create_task(stop.wait())
        try:
            while True:
                if stop.is_set() and self._queue.empty():
                    return
                getter = asyncio.create_task(self._queue.get())
                await asyncio.wait({getter, stop_wait},
                                   return_when=asyncio.FIRST_COMPLETED)
                if not getter.done():
                    getter.cancel()
                    try:
                        await getter
                    except asyncio.CancelledError:
                        pass
                    return  # hard stop; stop() fails whatever is queued
                job = getter.result()
                if not await self._acquire_slot(stop_wait):
                    return  # hard stop; stop() fails this job with the rest
                self.metrics.batch(1)
                # The dispatcher owns the slot lifecycle end to end:
                # acquired here, released in the done-callback.  A
                # release inside the job coroutine's ``finally`` would
                # leak the slot if the task were cancelled before its
                # first await (the coroutine never enters ``try``).
                task = asyncio.create_task(self._run_job(job))
                self._running.add(task)
                task.add_done_callback(self._job_task_done)
        finally:
            if not stop_wait.done():
                stop_wait.cancel()
                try:
                    await stop_wait
                except asyncio.CancelledError:
                    pass

    async def _acquire_slot(self, stop_wait: asyncio.Task) -> bool:
        """Acquire one dispatch slot, or give up when stop trips first."""
        acquire = asyncio.create_task(self._slots.acquire())
        await asyncio.wait({acquire, stop_wait},
                           return_when=asyncio.FIRST_COMPLETED)
        if acquire.done() and not acquire.cancelled():
            return True
        acquire.cancel()
        try:
            await acquire
        except asyncio.CancelledError:
            pass
        return False

    def _job_task_done(self, task: asyncio.Task) -> None:
        self._running.discard(task)
        self._slots.release()

    async def _run_job(self, job: _Job) -> None:
        """Execute one job, healing the worker pool on worker death.

        ``BrokenProcessPool`` (a worker was OOM-killed, segfaulted, or
        chaos-killed) fails *every* future in flight on that pool; the
        computation itself is pure and content-addressed, so each
        affected job is transparently re-executed on a respawned pool
        instead of surfacing :class:`WorkerError` to its waiters.  The
        respawn budget (``max_respawns`` per ``respawn_window``) bounds
        how long a crash-looping workload can grind before the engine
        declares itself unrecoverable.
        """
        loop = asyncio.get_running_loop()
        tracer = self.tracer
        if tracer.enabled:
            tracer.record_span("queue.wait", job.enqueued, time.perf_counter(),
                               parent=job.sid, alg=job.alg, trace_id=job.trace_id)
        attempt = 0
        while True:
            generation = self._pool_generation
            try:
                # A traced worker builds a local tracer and ships its
                # export back with the payload; absorbing it under the
                # service.compute span yields one merged request tree.
                with tracer.span("service.compute", parent=job.sid,
                                 alg=job.alg, trace_id=job.trace_id,
                                 attempt=attempt) as cs:
                    payload, worker_trace, deltas = await loop.run_in_executor(
                        self._pool, protocol.compute_in_worker,
                        job.text, job.alg, tracer.enabled, job.trace_id,
                    )
                break
            except asyncio.CancelledError:
                self._inflight.pop(job.key, None)
                if not job.future.done():
                    job.future.set_exception(ServiceClosedError("computation cancelled"))
                raise
            except BrokenExecutor as exc:
                if not await self._heal_pool(generation, exc):
                    self.metrics.error()
                    self._inflight.pop(job.key, None)
                    if not job.future.done():
                        job.future.set_exception(ServiceClosedError(
                            "worker pool broken and respawn budget exhausted "
                            f"({self.config.max_respawns} per "
                            f"{self.config.respawn_window:g}s); engine closed"
                        ))
                    return
                attempt += 1
                self.metrics.retry()
                if tracer.enabled:
                    tracer.count("service.reexecutions")
                continue
            except Exception as exc:
                self.metrics.error()
                self._inflight.pop(job.key, None)
                if not job.future.done():
                    job.future.set_exception(WorkerError(f"{type(exc).__name__}: {exc}"))
                return
        if worker_trace is not None:
            tracer.absorb(worker_trace, parent=cs.sid)
            tracer.count("service.computes")
        self.metrics.worker_stats(deltas)
        self.cache.put(job.key, payload)
        self._persist(job.key, payload)
        self._inflight.pop(job.key, None)
        if not job.future.done():
            job.future.set_result(payload)

    def _persist(self, key: str, payload: dict) -> None:
        """Durably append one computed payload to the segment store.

        Persistence is best-effort relative to the request: the waiter
        already has (or is about to get) the payload, so a full disk or
        revoked cache dir degrades the daemon to memory-only caching
        instead of failing requests.
        """
        if self._store is None:
            return
        from repro.service.wire import encode_payload

        tracer = self.tracer
        try:
            with tracer.span("cache.persist", detach=True, key=key[:12]):
                self._store.append(key, encode_payload(payload))
        except OSError:
            if tracer.enabled:
                tracer.count("cache.persist_failures")
            self._store.close()
            self._store = None

    async def _heal_pool(self, failed_generation: int, cause: BaseException) -> bool:
        """Quarantine a broken pool and respawn a fresh, warmed one.

        Every job that died with the pool races in here; the lock makes
        the first one respawn and the rest observe the already-advanced
        generation and simply retry.  Returns ``False`` — and closes
        the engine — once the respawn budget for the sliding window is
        spent (or a respawn itself fails).
        """
        tracer = self.tracer
        lock = self._respawn_lock
        if lock is None:  # engine never started; nothing to heal
            return False
        async with lock:
            if self._closed and not self._started:
                return False
            if self._pool_generation != failed_generation:
                return True  # a sibling job already healed this pool
            now = time.monotonic()
            while self._respawn_times and now - self._respawn_times[0] > self.config.respawn_window:
                self._respawn_times.popleft()
            if len(self._respawn_times) >= self.config.max_respawns:
                if tracer.enabled:
                    tracer.count("pool.respawns_exhausted")
                self._closed = True
                return False
            self._respawn_times.append(now)
            try:
                with tracer.span("pool.respawn", detach=True,
                                 generation=self._pool_generation + 1,
                                 cause=type(cause).__name__):
                    if self.config.workers > 0:
                        old = self._pool
                        if old is not None:
                            # Quarantine: never wait on a broken pool's
                            # workers, just tear its bookkeeping down.
                            old.shutdown(wait=False, cancel_futures=True)
                        self._pool = await self._spawn_pool()
            except Exception:
                if tracer.enabled:
                    tracer.count("pool.respawn_failures")
                self._closed = True
                return False
            self._pool_generation += 1
            self.metrics.respawn()
            if tracer.enabled:
                tracer.count("pool.respawns")
            return True

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _gauges(self) -> dict:
        return {
            "queue_depth": self._queue.qsize(),
            "inflight": len(self._inflight),
            "workers": self.config.workers,
            "cache_size": len(self.cache),
            "cache_evictions": self.cache.evictions,
        }

    def stats(self):
        """A :class:`~repro.service.metrics.ServiceStats` snapshot."""
        return self.metrics.snapshot(**self._gauges())

    def render_metrics(self) -> str:
        """Prometheus-style exposition text.

        When this engine traces, the tracer's counters and gauges are
        appended to the same exposition (``repro_obs_*`` metrics), so
        ``GET /metrics`` is the one unified scrape target.
        """
        tracer = self.tracer
        extra = to_prometheus(tracer) if tracer.enabled else ""
        return self.metrics.render(extra=extra, **self._gauges())
