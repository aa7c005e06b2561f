"""The asyncio compile-and-run request scheduler.

One :class:`Scheduler` multiplexes concurrent compile+run requests over
a :class:`~repro.serve.pool.DevicePool`:

* **admission control / backpressure** — each priority class has a
  bounded queue; a request arriving at a full queue is *shed*
  immediately with a typed :class:`~repro.errors.AdmissionShedError`
  verdict instead of growing an unbounded backlog;
* **deadlines** — a request carries a deadline covering queue wait and
  execution; expiry in the queue means it never runs, expiry
  mid-execution abandons the dispatch (the device finishes its doomed
  launch — a simulated GPU cannot preempt — and is then reused) and the
  device is charged a timeout;
* **priority dispatch** — a freed device goes to the waiting request
  with the lowest priority number (FIFO within a class);
* **cross-device retries** — a typed failure on one device re-dispatches
  to a *different* device, up to ``max_tries`` total tries;
* **hedging** — when a dispatch is still running after
  ``hedge_after_s`` and an idle healthy device exists, a duplicate is
  launched there and the first completion wins (tail-latency insurance
  against a slow or about-to-fail device);
* **health** — every outcome feeds the serving device's circuit breaker
  (see :mod:`repro.serve.breaker`); quarantined devices receive
  probation probes via :meth:`~repro.serve.pool.DevicePool.pick`.

Every decision — admit, shed, expire, dispatch, hedge, retry, breaker
transition, cache hit/miss/corruption — emits on the ``obs.timeline``
bus under the ``serve`` category and increments the metrics registry,
so a soak run is fully reconstructible from its telemetry export.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass, field, replace

from repro.acc.compiler import RunOptions
from repro.errors import (
    AdmissionShedError, CircuitOpenError, DeadlineExceededError, ReproError,
    ServiceError, ServiceRetriesExceededError,
)
from repro.obs import timeline as _timeline
from repro.obs import trace as _trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SLOConfig, SLOMonitor, quantile  # noqa: F401 — quantile re-exported
from repro.serve.pool import DevicePool, PooledDevice

__all__ = ["ComputeRequest", "RequestResult", "ServeConfig", "Scheduler",
           "quantile"]

#: the :class:`~repro.acc.RunOptions` fields a request may override
#: through ``ComputeRequest.run_opts``; any other key is refused
_RUN_OPTS_KEYS = frozenset(
    ("runs", "max_attempts", "degrade", "watchdog_budget", "executor_mode"))


@dataclass
class ComputeRequest:
    """One compile+run request submitted to the service."""

    id: str
    source: str
    compiler: str = "openuh"
    pipeline: str | None = None
    num_gangs: int | None = None
    num_workers: int | None = None
    vector_length: int | None = None
    arrays: dict = field(default_factory=dict)
    scalars: dict = field(default_factory=dict)
    #: lower is more urgent; class 0 is conventionally "interactive"
    priority: int = 1
    #: seconds from submission; ``None`` uses the config default
    deadline_s: float | None = None
    #: per-request overrides of the config's hardening knobs
    #: (``runs``, ``max_attempts``, ``degrade``, ``watchdog_budget``,
    #: ``executor_mode``); any other key gets an ``error`` verdict
    #: (:class:`~repro.errors.ServiceError`) before a device is touched
    run_opts: dict = field(default_factory=dict)


@dataclass
class RequestResult:
    """Terminal verdict of one request — every request gets exactly one.

    ``status`` is ``"ok"`` or one of the typed refusals/failures; for
    non-ok results ``error`` names the exception type (the typed-error
    contract: a shed/expired/failed request is always attributable).
    """

    id: str
    status: str              # "ok" | "shed" | "expired" | "error"
    priority: int = 1
    scalars: dict | None = None
    outputs: dict | None = None
    error: str = ""          # exception type name for non-ok statuses
    message: str = ""
    device: str = ""         # device that served the winning dispatch
    devices_tried: list = field(default_factory=list)
    tries: int = 0
    hedged: bool = False
    cache: str = ""          # "hit" | "miss" | "memo" | "uncacheable" | ""
    queue_us: float = 0.0
    compile_us: float = 0.0
    run_us: float = 0.0
    latency_us: float = 0.0
    strategy: str = ""       # lowering strategy that served the answer
    run_attempts: int = 1    # in-run transient-retry attempts
    degradations: int = 0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> dict:
        d = {"id": self.id, "status": self.status,
             "priority": self.priority, "error": self.error,
             "message": self.message, "device": self.device,
             "devices_tried": list(self.devices_tried),
             "tries": self.tries, "hedged": self.hedged,
             "cache": self.cache,
             "queue_us": round(self.queue_us, 1),
             "compile_us": round(self.compile_us, 1),
             "run_us": round(self.run_us, 1),
             "latency_us": round(self.latency_us, 1),
             "strategy": self.strategy,
             "run_attempts": self.run_attempts,
             "degradations": self.degradations}
        if self.scalars is not None:
            d["scalars"] = {k: repr(v) for k, v in self.scalars.items()}
        return d


@dataclass
class ServeConfig:
    """Scheduler policy knobs."""

    queue_depth: int = 64          # bounded queue per priority class
    default_deadline_s: float = 30.0
    hedge_after_s: float | None = None
    max_tries: int = 3             # total cross-device tries per request
    poll_interval_s: float = 0.02  # housekeeping tick (quarantine expiry)
    keep_outputs: bool = True      # carry output arrays on results
    # per-run hardening defaults (per-request run_opts override these)
    runs: int = 1                  # redundant-execution voting replicas
    max_attempts: int = 2          # in-run transient-fault retries
    degrade: bool = False
    watchdog_budget: int | None = 50_000
    executor_mode: str | None = None
    breaker: dict = field(default_factory=dict)
    #: :class:`~repro.obs.slo.SLOConfig` kwargs (objective_ms, target,
    #: window) for the scheduler's SLO monitor
    slo: dict = field(default_factory=dict)
    #: :class:`~repro.obs.trace.TailSampler` kwargs (keep_slowest,
    #: sample_every, keep_statuses) applied when request tracing is on
    trace_sampling: dict = field(default_factory=dict)


class _Dispatch:
    """One execution of a request on one device."""

    __slots__ = ("dev", "future", "abandoned", "kind")

    def __init__(self, dev: PooledDevice, future, kind: str):
        self.dev = dev
        self.future = future
        self.abandoned = False
        self.kind = kind  # "primary" | "hedge" | "retry"


class Scheduler:
    """The asyncio request scheduler over a device pool.

    Use as an async context manager (or call :meth:`start` / :meth:`close`
    explicitly); submit with :meth:`submit` and await the
    :class:`RequestResult`.
    """

    def __init__(self, pool: DevicePool, config: ServeConfig | None = None,
                 *, cache=None, metrics: MetricsRegistry | None = None):
        self.pool = pool
        self.config = config or ServeConfig()
        self.cache = cache
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if pool.metrics is None:
            pool.metrics = self.metrics
        self._queued: dict[int, int] = {}   # priority -> waiting count
        self._waiters: list = []            # [pri, seq, future, exclude]
        self._wseq = itertools.count()
        self._housekeeper: asyncio.Task | None = None
        self._latencies: dict[str, list] = {}  # status -> latency_us list
        self.results: list[RequestResult] = []
        self.slo = SLOMonitor(SLOConfig(**self.config.slo))
        self._sampler = _trace.TailSampler(**self.config.trace_sampling)
        cfg = self.config
        #: run options of every dispatch before per-request overrides
        self._run_base = RunOptions(
            runs=cfg.runs, max_attempts=cfg.max_attempts,
            degrade=cfg.degrade, watchdog_budget=cfg.watchdog_budget,
            executor_mode=cfg.executor_mode)
        self._closed = False

    # -- lifecycle -------------------------------------------------------

    async def __aenter__(self) -> "Scheduler":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    async def start(self) -> None:
        if self._housekeeper is None:
            self._housekeeper = asyncio.ensure_future(self._housekeep())

    async def close(self) -> None:
        self._closed = True
        if self._housekeeper is not None:
            self._housekeeper.cancel()
            try:
                await self._housekeeper
            except asyncio.CancelledError:
                pass
            self._housekeeper = None
        self.pool.shutdown()

    async def _housekeep(self) -> None:
        # periodic waiter dispatch: quarantine expiry is time-driven, so
        # a waiter can become servable with no device-release event
        while True:
            await asyncio.sleep(self.config.poll_interval_s)
            self._dispatch_waiters()

    # -- telemetry helpers ----------------------------------------------

    def _decision(self, name: str, **attrs) -> None:
        tl = _timeline.current()
        if tl is not None:
            tl.decision("serve", name, **attrs)

    def _finish(self, res: RequestResult, t0: float) -> RequestResult:
        res.latency_us = (time.perf_counter() - t0) * 1e6
        self._latencies.setdefault(res.status, []).append(res.latency_us)
        self.metrics.counter(f"serve.requests.{res.status}").inc()
        self.metrics.histogram("serve.latency.all_us").observe(
            res.latency_us)
        self.metrics.histogram(
            f"serve.latency.p{res.priority}_us").observe(res.latency_us)
        self.slo.record(res.priority, res.latency_us, ok=res.ok)
        self.results.append(res)
        self._decision("complete", id=res.id, status=res.status,
                       device=res.device, tries=res.tries,
                       latency_us=round(res.latency_us, 1),
                       error=res.error or None)
        return res

    def _queue_span(self, queue_us: float) -> None:
        """Materialize queue wait as a span in the request's trace."""
        if _timeline.trace_active():
            tl = _timeline.current()
            if tl is not None:
                tl.span("serve", "queue", queue_us)

    # -- device acquisition ---------------------------------------------

    def _dispatch_waiters(self) -> None:
        """Hand free devices to waiting requests in priority order."""
        if not self._waiters:
            return
        self._waiters.sort(key=lambda w: (w[0], w[1]))
        remaining = []
        for waiter in self._waiters:
            pri, seq, fut, exclude = waiter
            if fut.done():
                continue
            dev = self.pool.pick(exclude)
            if dev is None:
                remaining.append(waiter)
                continue
            dev.inflight += 1  # reserve before handoff
            fut.set_result(dev)
        self._waiters = remaining

    async def _acquire(self, req: ComputeRequest, exclude: set[int],
                       remaining_s: float) -> PooledDevice:
        dev = self.pool.pick(exclude)
        if dev is not None:
            dev.inflight += 1
            return dev
        if all(d.breaker.state == "open" and not d.breaker.probe_ready()
               for d in self.pool.devices):
            # nothing can serve until a quarantine expires; still wait
            # (bounded by the deadline) rather than failing instantly,
            # but surface the pool state if the deadline hits first
            self._decision("pool-quarantined", id=req.id)
        loop = asyncio.get_running_loop()
        fut = loop.create_future()
        self._waiters.append([req.priority, next(self._wseq), fut, exclude])
        try:
            return await asyncio.wait_for(fut, timeout=remaining_s)
        except asyncio.TimeoutError:
            if all(d.breaker.state != "closed" for d in self.pool.devices):
                raise CircuitOpenError(
                    f"request {req.id}: every pool device is quarantined"
                ) from None
            raise DeadlineExceededError(
                f"request {req.id} expired after {remaining_s * 1e3:.0f} ms "
                "waiting for a device") from None

    def _release(self, dispatch: _Dispatch) -> None:
        """Done-callback of every device execution (runs on the loop)."""
        dev = dispatch.dev
        dev.inflight = max(0, dev.inflight - 1)
        exc = (dispatch.future.exception()
               if not dispatch.future.cancelled() else None)
        if dispatch.abandoned:
            # deadline already charged this dispatch as a timeout; the
            # late outcome must not also feed the breaker
            pass
        elif isinstance(exc, (KeyboardInterrupt, SystemExit)):
            pass  # interrupts are not device health signals
        elif exc is not None:
            dev.errors += 1
            dev.breaker.record_failure(type(exc).__name__)
        else:
            dev.served += 1
            dev.breaker.record_success()
        self._dispatch_waiters()

    # -- the device-thread execution body --------------------------------

    def _thread_body(self, req: ComputeRequest, dev: PooledDevice):
        """Compile (through the cache) + run; executes on ``dev``'s thread."""
        from repro import acc

        t0 = time.perf_counter()
        cache_status = ""
        if self.cache is not None and isinstance(req.compiler, str):
            key = self.cache.key_for(
                req.source, compiler=req.compiler, pipeline=req.pipeline,
                device=dev.props, num_gangs=req.num_gangs,
                num_workers=req.num_workers,
                vector_length=req.vector_length)
            holder = {}

            def build():
                prog, status = self.cache.compile(
                    req.source, compiler=req.compiler,
                    pipeline=req.pipeline, device=dev.props,
                    num_gangs=req.num_gangs, num_workers=req.num_workers,
                    vector_length=req.vector_length)
                holder["status"] = status
                return prog

            prog = dev.program_for(key, build)
            # "memo": this device already materialized the program
            cache_status = holder.get("status", "memo")
        else:
            prog = dev.program_for(None, lambda: acc.compile(
                req.source, compiler=req.compiler, pipeline=req.pipeline,
                device=dev.props, num_gangs=req.num_gangs,
                num_workers=req.num_workers,
                vector_length=req.vector_length))
            cache_status = "uncacheable"
        t1 = time.perf_counter()

        opts = replace(self._run_base, faults=dev.injector, **req.run_opts)
        res = prog.run(opts, **req.arrays, **req.scalars)
        t2 = time.perf_counter()
        return {"scalars": res.scalars,
                "outputs": res.outputs if self.config.keep_outputs else None,
                "strategy": res.strategy, "attempts": res.attempts,
                "degradations": len(res.degradations),
                "cache": cache_status,
                "compile_us": (t1 - t0) * 1e6,
                "run_us": (t2 - t1) * 1e6}

    def _traced_body(self, req: ComputeRequest, dev: PooledDevice,
                     dispatch: _Dispatch, ids):
        """``_thread_body`` under the request's trace context.

        Executor threads don't inherit contextvars, so the submitting
        task captures its ``(trace_id, parent_span_id)`` and this
        wrapper re-attaches them around the device work — every
        compile/run event lands under a ``dispatch:<dev>`` span of the
        same request tree.  A dispatch abandoned while running (deadline
        expiry, hedge loser) still completes its span, marked
        ``abandoned`` so the tree shows both racers.
        """
        if ids is None:
            return self._thread_body(req, dev)
        with _trace.attach(*ids):
            with _trace.span("serve", f"dispatch:{dev.name}",
                             device=dev.name, mode=dispatch.kind) as sp:
                try:
                    return self._thread_body(req, dev)
                finally:
                    if dispatch.abandoned:
                        sp.attrs["abandoned"] = True

    def _launch(self, req: ComputeRequest, dev: PooledDevice,
                kind: str) -> _Dispatch:
        """Start the request body on an (already reserved) device."""
        loop = asyncio.get_running_loop()
        dispatch = _Dispatch(dev, None, kind)
        if _timeline.trace_active():
            ids = _trace.current_ids()
            fut = loop.run_in_executor(
                dev.executor, self._traced_body, req, dev, dispatch, ids)
        else:
            fut = loop.run_in_executor(
                dev.executor, self._thread_body, req, dev)
        dispatch.future = fut
        fut.add_done_callback(lambda _f: self._release(dispatch))
        self._decision("dispatch", id=req.id, device=dev.name, mode=kind)
        self.metrics.counter(f"serve.dispatch.{kind}").inc()
        return dispatch

    # -- submission ------------------------------------------------------

    def submit_nowait(self, req: ComputeRequest) -> "asyncio.Task":
        """Submit and return the request's task (cancellable)."""
        return asyncio.ensure_future(self.submit(req))

    async def submit(self, req: ComputeRequest) -> RequestResult:
        """Run one request through the service; always returns a result.

        With request tracing active the whole submission runs under a
        ``request:<id>`` root span (the request id names the trace) and
        the completed trace is offered to the tail sampler — kept traces
        stay in the ring, dropped ones are pruned so sustained load
        cannot grow memory.
        """
        if not _timeline.trace_active():
            return await self._submit(req)
        with _trace.span("serve", f"request:{req.id}", trace_id=req.id,
                         priority=req.priority) as sp:
            res = await self._submit(req)
            sp.attrs["status"] = res.status
        self._offer_trace(res)
        return res

    def _offer_trace(self, res: RequestResult) -> None:
        keep, evicted = self._sampler.offer(res.id, res.latency_us,
                                            res.status)
        tl = _timeline.current()
        if tl is not None:
            for tid in evicted:
                tl.prune_trace(tid)
            if not keep:
                self._decision("trace-sampled-out", id=res.id)

    async def _submit(self, req: ComputeRequest) -> RequestResult:
        t0 = time.perf_counter()
        deadline_s = (req.deadline_s if req.deadline_s is not None
                      else self.config.default_deadline_s)
        pri = req.priority

        unknown = sorted(set(req.run_opts) - _RUN_OPTS_KEYS)
        if unknown:
            self._decision("invalid", id=req.id, run_opts=unknown)
            return self._finish(RequestResult(
                id=req.id, status="error", priority=pri,
                error=ServiceError.__name__,
                message=f"unknown run_opts key(s) {unknown} "
                        f"(allowed: {sorted(_RUN_OPTS_KEYS)})"), t0)

        # admission control: bounded queue per priority class
        if self._queued.get(pri, 0) >= self.config.queue_depth:
            self._decision("shed", id=req.id, priority=pri,
                           queued=self._queued.get(pri, 0))
            self.metrics.counter("serve.shed").inc()
            return self._finish(RequestResult(
                id=req.id, status="shed", priority=pri,
                error=AdmissionShedError.__name__,
                message=f"priority-{pri} queue full "
                        f"({self.config.queue_depth})"), t0)
        self._queued[pri] = self._queued.get(pri, 0) + 1
        self.metrics.gauge(f"serve.queue_depth.p{pri}").set(
            self._queued[pri])
        self._decision("admit", id=req.id, priority=pri,
                       queued=self._queued[pri])
        try:
            return await self._process(req, t0, deadline_s)
        finally:
            self.metrics.gauge(f"serve.queue_depth.p{pri}").set(
                self._queued.get(pri, 0))

    def _dequeue(self, pri: int) -> None:
        self._queued[pri] = max(0, self._queued.get(pri, 0) - 1)

    async def _process(self, req: ComputeRequest, t0: float,
                       deadline_s: float) -> RequestResult:
        tried: list[str] = []
        exclude: set[int] = set()
        hedged = False
        dequeued = False
        last_exc: BaseException | None = None
        queue_us = 0.0
        tries = 0

        def remaining() -> float:
            return deadline_s - (time.perf_counter() - t0)

        while tries < self.config.max_tries:
            rem = remaining()
            if rem <= 0:
                break  # -> expired
            try:
                dev = await self._acquire(req, exclude, rem)
            except DeadlineExceededError as exc:
                if not dequeued:
                    self._dequeue(req.priority)
                    self._queue_span((time.perf_counter() - t0) * 1e6)
                self._decision("expired", id=req.id, where="queue")
                self.metrics.counter("serve.expired").inc()
                return self._finish(RequestResult(
                    id=req.id, status="expired", priority=req.priority,
                    error=type(exc).__name__, message=str(exc),
                    devices_tried=tried, tries=tries,
                    queue_us=(time.perf_counter() - t0) * 1e6), t0)
            except CircuitOpenError as exc:
                if not dequeued:
                    self._dequeue(req.priority)
                self.metrics.counter("serve.circuit_open").inc()
                return self._finish(RequestResult(
                    id=req.id, status="error", priority=req.priority,
                    error=type(exc).__name__, message=str(exc),
                    devices_tried=tried, tries=tries), t0)
            if not dequeued:
                dequeued = True
                queue_us = (time.perf_counter() - t0) * 1e6
                self._dequeue(req.priority)
                self._queue_span(queue_us)
            tries += 1
            tried.append(dev.name)
            exclude.add(dev.index)
            dispatch = self._launch(req, dev,
                                    "retry" if tries > 1 else "primary")
            dispatches = [dispatch]

            outcome = await self._await_dispatches(
                req, dispatches, remaining, exclude)
            hedged = hedged or len(dispatches) > 1
            for d in dispatches[1:]:
                tried.append(d.dev.name)
            if outcome == "expired":
                self._decision("expired", id=req.id, where="execution",
                               devices=[d.dev.name for d in dispatches])
                self.metrics.counter("serve.expired").inc()
                return self._finish(RequestResult(
                    id=req.id, status="expired", priority=req.priority,
                    error=DeadlineExceededError.__name__,
                    message=f"request {req.id} expired mid-execution "
                            f"after {deadline_s * 1e3:.0f} ms",
                    devices_tried=tried, tries=tries, hedged=hedged,
                    queue_us=queue_us), t0)
            if isinstance(outcome, dict):
                winner = outcome.pop("_winner")
                return self._finish(RequestResult(
                    id=req.id, status="ok", priority=req.priority,
                    scalars=outcome["scalars"], outputs=outcome["outputs"],
                    device=winner, devices_tried=tried, tries=tries,
                    hedged=hedged, cache=outcome["cache"],
                    queue_us=queue_us, compile_us=outcome["compile_us"],
                    run_us=outcome["run_us"],
                    strategy=outcome["strategy"],
                    run_attempts=outcome["attempts"],
                    degradations=outcome["degradations"]), t0)
            # every dispatch of this try failed: outcome is the last error
            last_exc = outcome
            if tries < self.config.max_tries and remaining() > 0:
                self._decision("retry", id=req.id,
                               error=type(last_exc).__name__,
                               next_try=tries + 1)
                self.metrics.counter("serve.retries").inc()
        if not dequeued:
            self._dequeue(req.priority)
        if last_exc is None:
            self._decision("expired", id=req.id, where="queue")
            self.metrics.counter("serve.expired").inc()
            return self._finish(RequestResult(
                id=req.id, status="expired", priority=req.priority,
                error=DeadlineExceededError.__name__,
                message=f"request {req.id} expired "
                        f"after {deadline_s * 1e3:.0f} ms",
                devices_tried=tried, tries=tries, queue_us=queue_us), t0)
        err = ServiceRetriesExceededError(
            f"request {req.id} failed on {len(tried)} device(s): "
            f"{type(last_exc).__name__}: {last_exc}", cause=last_exc)
        self.metrics.counter("serve.errors").inc()
        return self._finish(RequestResult(
            id=req.id, status="error", priority=req.priority,
            error=type(last_exc).__name__, message=str(err),
            devices_tried=tried, tries=tries, hedged=hedged,
            queue_us=queue_us), t0)

    async def _await_dispatches(self, req: ComputeRequest,
                                dispatches: list, remaining,
                                exclude: set[int]):
        """Wait for the try's dispatches (launching a hedge if configured).

        Returns the winning payload dict (with ``_winner`` device name),
        the last exception when every dispatch failed, or ``"expired"``.
        """
        hedge_after = self.config.hedge_after_s
        while True:
            rem = remaining()
            if rem <= 0:
                for d in dispatches:
                    if not d.future.done():
                        d.abandoned = True
                        d.dev.timeouts += 1
                        d.dev.breaker.record_failure("timeout")
                return "expired"
            pending = {d.future for d in dispatches if not d.future.done()}
            timeout = rem
            may_hedge = (hedge_after is not None and len(dispatches) == 1)
            if may_hedge:
                timeout = min(rem, hedge_after)
            done, _ = await asyncio.wait(
                pending, timeout=timeout,
                return_when=asyncio.FIRST_COMPLETED)
            if not done and may_hedge:
                hedge_dev = self.pool.idle_healthy(exclude)
                if hedge_dev is not None:
                    hedge_dev.inflight += 1
                    exclude.add(hedge_dev.index)
                    self._decision("hedge", id=req.id,
                                   device=hedge_dev.name)
                    self.metrics.counter("serve.hedges").inc()
                    dispatches.append(
                        self._launch(req, hedge_dev, "hedge"))
                else:
                    # no hedge capacity: wait out the primary
                    hedge_after = None
                continue
            if not done:
                continue  # timeout == rem handled at loop top
            # inspect completions: first success wins
            for d in dispatches:
                if not d.future.done():
                    continue
                exc = d.future.exception()
                if exc is None:
                    payload = d.future.result()
                    payload["_winner"] = d.dev.name
                    for other in dispatches:
                        if other is not d and not other.future.done():
                            other.abandoned = True
                    return payload
                if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                    # never swallow an interrupt into a retry loop
                    raise exc
            if all(d.future.done() for d in dispatches):
                last = None
                for d in dispatches:
                    e = d.future.exception()
                    if e is not None:
                        last = e
                if last is not None and not isinstance(last, ReproError):
                    raise last  # unexpected bug: surface, do not retry
                return last

    # -- reporting -------------------------------------------------------

    def latency_summary(self) -> dict:
        ok = self._latencies.get("ok", [])
        allv = [v for vs in self._latencies.values() for v in vs]
        return {
            "ok_p50_us": round(quantile(ok, 0.50), 1),
            "ok_p99_us": round(quantile(ok, 0.99), 1),
            "all_p50_us": round(quantile(allv, 0.50), 1),
            "all_p99_us": round(quantile(allv, 0.99), 1),
            "count": len(allv),
        }

    def report(self) -> dict:
        by_status: dict[str, int] = {}
        for r in self.results:
            by_status[r.status] = by_status.get(r.status, 0) + 1
        return {
            "requests": len(self.results),
            "by_status": dict(sorted(by_status.items())),
            "latency": self.latency_summary(),
            "devices": self.pool.snapshot(),
            "compile_cache": (self.cache.stats()
                              if self.cache is not None else None),
            "metrics": self.metrics.to_dict(),
            "slo": self.slo.snapshot(),
            "traces": self._sampler.stats(),
        }
