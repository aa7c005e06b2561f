"""Scheduler policy: admission, deadlines, retries, hedging, priorities.

Control-flow tests swap in a scripted ``_thread_body`` (keyed by request
id / device) so device behaviour — slow, failing, healthy — is exact and
fast; one end-to-end test keeps the real compile+run path honest.
"""

import asyncio
import time

import numpy as np
import pytest

from repro.errors import (
    AdmissionShedError, DeadlineExceededError, SimulationError,
)
from repro.serve import ComputeRequest, DevicePool, Scheduler, ServeConfig

SRC = """
int a[n];
int s = 0;
#pragma acc parallel copyin(a)
#pragma acc loop gang vector reduction(+:s)
for (i = 0; i < n; i++)
    s += a[i];
"""


def _payload(dev, scalars=None):
    return {"scalars": scalars or {"s": 1}, "outputs": {},
            "strategy": "primary", "attempts": 1, "degradations": 0,
            "cache": "memo", "compile_us": 1.0, "run_us": 1.0}


def _req(rid, **kw):
    kw.setdefault("arrays", {"a": np.arange(16, dtype=np.int32)})
    return ComputeRequest(id=rid, source=SRC, **kw)


def _run(coro):
    return asyncio.run(coro)


def scripted(sched, script):
    """Replace the thread body with ``script(req, dev) -> payload``."""
    sched._thread_body = script


class TestEndToEnd:
    def test_real_compile_and_run(self):
        async def go():
            pool = DevicePool(2)
            async with Scheduler(pool, ServeConfig()) as sched:
                a = np.arange(64, dtype=np.int32)
                res = await sched.submit(_req("r1", arrays={"a": a}))
                assert res.ok, res.message
                assert res.scalars["s"] == a.sum()
                assert res.device in ("dev0", "dev1")
                assert res.tries == 1 and not res.hedged
                assert res.cache == "uncacheable"  # no CompileCache wired
                assert res.latency_us > 0
                return sched.report()

        report = _run(go())
        assert report["by_status"] == {"ok": 1}
        assert report["metrics"]["counters"]["serve.requests.ok"] == 1


class TestRunOpts:
    def test_unknown_run_opts_key_is_refused_before_dispatch(self):
        async def go():
            pool = DevicePool(2)
            async with Scheduler(pool, ServeConfig()) as sched:
                res = await sched.submit(_req(
                    "bad", run_opts={"bogus": 1, "runs": 3},
                    deadline_s=5.0))
                return res, pool.snapshot()

        t0 = time.perf_counter()
        res, devices = _run(go())
        assert time.perf_counter() - t0 < 2.0  # no deadline wait
        assert res.status == "error"
        assert res.error == "ServiceError"
        assert res.message.startswith("unknown run_opts key(s) ['bogus']")
        assert res.tries == 0 and res.devices_tried == []
        for d in devices:  # no device touched, no breaker charged
            assert d["errors"] == 0 and d["served"] == 0

    def test_scalar_named_like_a_run_option(self):
        src = """
int a[n];
int runs;
int s = 0;
#pragma acc parallel copyin(a)
#pragma acc loop gang vector reduction(+:s)
for (i = 0; i < n; i++)
    s += a[i] * runs;
"""

        async def go():
            pool = DevicePool(1)
            async with Scheduler(pool, ServeConfig()) as sched:
                a = np.arange(64, dtype=np.int32)
                res = await sched.submit(ComputeRequest(
                    id="r", source=src, arrays={"a": a},
                    scalars={"runs": 3}, run_opts={"runs": 3}))
                return a, res

        a, res = _run(go())
        assert res.ok, res.message
        assert res.scalars["s"] == 3 * a.sum()


class TestAdmission:
    def test_full_queue_sheds_with_typed_error(self):
        async def go():
            pool = DevicePool(1)
            cfg = ServeConfig(queue_depth=1, poll_interval_s=0.01)
            async with Scheduler(pool, cfg) as sched:
                scripted(sched, lambda req, dev: (time.sleep(0.4),
                                                  _payload(dev))[1])
                t1 = sched.submit_nowait(_req("r1"))
                await asyncio.sleep(0.05)   # r1 holds the device
                t2 = sched.submit_nowait(_req("r2"))
                await asyncio.sleep(0.05)   # r2 fills the p1 queue
                t3 = sched.submit_nowait(_req("r3"))
                return await asyncio.gather(t1, t2, t3)

        r1, r2, r3 = _run(go())
        assert r1.ok and r2.ok
        assert r3.status == "shed"
        assert r3.error == AdmissionShedError.__name__
        assert "queue full" in r3.message

    def test_queues_are_per_priority_class(self):
        async def go():
            pool = DevicePool(1)
            cfg = ServeConfig(queue_depth=1, poll_interval_s=0.01)
            async with Scheduler(pool, cfg) as sched:
                scripted(sched, lambda req, dev: (time.sleep(0.3),
                                                  _payload(dev))[1])
                t1 = sched.submit_nowait(_req("r1"))
                await asyncio.sleep(0.05)
                t2 = sched.submit_nowait(_req("r2", priority=1))
                await asyncio.sleep(0.05)
                # a different class is not shed by p1's full queue
                t3 = sched.submit_nowait(_req("r3", priority=0))
                return await asyncio.gather(t1, t2, t3)

        r1, r2, r3 = _run(go())
        assert [r.status for r in (r1, r2, r3)] == ["ok"] * 3


class TestDeadlines:
    def test_expiry_waiting_in_queue(self):
        async def go():
            pool = DevicePool(1)
            async with Scheduler(pool, ServeConfig(
                    poll_interval_s=0.01)) as sched:
                scripted(sched, lambda req, dev: (time.sleep(0.5),
                                                  _payload(dev))[1])
                t1 = sched.submit_nowait(_req("r1"))
                await asyncio.sleep(0.05)
                t2 = sched.submit_nowait(_req("r2", deadline_s=0.1))
                return await asyncio.gather(t1, t2)

        r1, r2 = _run(go())
        assert r1.ok
        assert r2.status == "expired"
        assert r2.error == DeadlineExceededError.__name__
        assert r2.tries == 0 and r2.devices_tried == []

    def test_expiry_mid_execution_abandons_and_charges_device(self):
        async def go():
            pool = DevicePool(1)
            async with Scheduler(pool, ServeConfig(
                    poll_interval_s=0.01)) as sched:
                def body(req, dev):
                    time.sleep(0.4 if req.id == "slow" else 0.0)
                    return _payload(dev)
                scripted(sched, body)
                res = await sched.submit(_req("slow", deadline_s=0.1))
                assert res.status == "expired"
                assert res.error == DeadlineExceededError.__name__
                assert res.tries == 1 and res.devices_tried == ["dev0"]
                assert pool.devices[0].timeouts == 1
                # the abandoned launch drains; the device is reusable
                res2 = await sched.submit(_req("after", deadline_s=5.0))
                assert res2.ok
                # the late completion of the abandoned dispatch must not
                # double-count device health
                assert pool.devices[0].timeouts == 1

        _run(go())


class TestRetries:
    def test_typed_failure_retries_on_a_different_device(self):
        async def go():
            pool = DevicePool(2)
            async with Scheduler(pool, ServeConfig()) as sched:
                def body(req, dev):
                    if dev.name == "dev0":
                        raise SimulationError("injected dev0 failure")
                    return _payload(dev)
                scripted(sched, body)
                return await sched.submit(_req("r1")), pool

        res, pool = _run(go())
        assert res.ok
        assert res.tries == 2
        assert res.devices_tried == ["dev0", "dev1"]
        assert res.device == "dev1"
        assert pool.devices[0].errors == 1
        assert pool.devices[1].served == 1

    def test_retries_exhausted_is_a_typed_error_verdict(self):
        async def go():
            pool = DevicePool(2)
            cfg = ServeConfig(max_tries=2)
            async with Scheduler(pool, cfg) as sched:
                def body(req, dev):
                    raise SimulationError(f"always fails on {dev.name}")
                scripted(sched, body)
                return await sched.submit(_req("r1"))

        res = _run(go())
        assert res.status == "error"
        assert res.error == SimulationError.__name__
        assert "2 device(s)" in res.message
        assert res.tries == 2
        assert set(res.devices_tried) == {"dev0", "dev1"}

    def test_unexpected_exception_is_not_retried(self):
        async def go():
            pool = DevicePool(2)
            async with Scheduler(pool, ServeConfig()) as sched:
                calls = []

                def body(req, dev):
                    calls.append(dev.name)
                    raise RuntimeError("a bug, not a device fault")
                scripted(sched, body)
                with pytest.raises(RuntimeError):
                    await sched.submit(_req("r1"))
                return calls

        calls = _run(go())
        assert calls == ["dev0"]  # surfaced immediately, no retry

    def test_interrupt_propagates_and_skips_breaker(self):
        async def go():
            pool = DevicePool(1)
            async with Scheduler(pool, ServeConfig()) as sched:
                def body(req, dev):
                    raise KeyboardInterrupt
                scripted(sched, body)
                with pytest.raises(KeyboardInterrupt):
                    await sched.submit(_req("r1"))
                return pool

        pool = _run(go())
        dev = pool.devices[0]
        assert dev.errors == 0
        assert dev.breaker.failure_rate == 0.0  # not a health signal


class TestHedging:
    def test_slow_primary_gets_hedged_and_fast_hedge_wins(self):
        async def go():
            pool = DevicePool(2)
            cfg = ServeConfig(hedge_after_s=0.05, poll_interval_s=0.01)
            async with Scheduler(pool, cfg) as sched:
                def body(req, dev):
                    time.sleep(0.5 if dev.name == "dev0" else 0.0)
                    return _payload(dev)
                scripted(sched, body)
                res = await sched.submit(_req("r1"))
                return res, sched.metrics.to_dict()

        res, metrics = _run(go())
        assert res.ok
        assert res.hedged
        assert res.device == "dev1"       # the hedge won
        assert set(res.devices_tried) == {"dev0", "dev1"}
        assert metrics["counters"]["serve.hedges"] == 1

    def test_no_hedge_when_no_idle_device(self):
        async def go():
            pool = DevicePool(1)
            cfg = ServeConfig(hedge_after_s=0.02, poll_interval_s=0.01)
            async with Scheduler(pool, cfg) as sched:
                scripted(sched, lambda req, dev: (time.sleep(0.15),
                                                  _payload(dev))[1])
                return await sched.submit(_req("r1"))

        res = _run(go())
        assert res.ok and not res.hedged


class TestPriorities:
    def test_freed_device_goes_to_the_most_urgent_waiter(self):
        async def go():
            pool = DevicePool(1)
            order = []

            async with Scheduler(pool, ServeConfig(
                    poll_interval_s=0.01)) as sched:
                def body(req, dev):
                    order.append(req.id)
                    time.sleep(0.1)
                    return _payload(dev)
                scripted(sched, body)
                t0 = sched.submit_nowait(_req("first"))
                await asyncio.sleep(0.03)  # "first" holds the device
                tl = sched.submit_nowait(_req("batch", priority=5))
                await asyncio.sleep(0.01)  # "batch" queued first...
                th = sched.submit_nowait(_req("urgent", priority=0))
                await asyncio.gather(t0, tl, th)
            return order

        order = _run(go())
        assert order == ["first", "urgent", "batch"]


class TestBreakerIntegration:
    def test_tripped_device_is_skipped_on_first_try(self):
        async def go():
            pool = DevicePool(
                2, breaker_kwargs=dict(window=4, failure_threshold=0.5,
                                       min_samples=2, quarantine_s=60.0))
            async with Scheduler(pool, ServeConfig()) as sched:
                def body(req, dev):
                    if dev.name == "dev0":
                        raise SimulationError("dev0 is sick")
                    return _payload(dev)
                scripted(sched, body)
                r1 = await sched.submit(_req("r1"))
                r2 = await sched.submit(_req("r2"))
                # dev0 has 2/2 failures -> breaker open
                r3 = await sched.submit(_req("r3"))
                return (r1, r2, r3), pool

        (r1, r2, r3), pool = _run(go())
        assert r1.ok and r2.ok and r1.tries == r2.tries == 2
        assert pool.devices[0].breaker.state == "open"
        assert r3.ok and r3.tries == 1          # straight to dev1
        assert r3.devices_tried == ["dev1"]

    def test_all_devices_quarantined_waits_then_types_the_refusal(self):
        async def go():
            pool = DevicePool(
                1, breaker_kwargs=dict(window=4, failure_threshold=0.5,
                                       min_samples=2, quarantine_s=60.0))
            async with Scheduler(pool, ServeConfig(
                    poll_interval_s=0.01)) as sched:
                def body(req, dev):
                    raise SimulationError("sick")
                scripted(sched, body)
                # each request fails once on dev0, then waits (the retry
                # excludes the only device) until its deadline; two
                # failures reach min_samples and trip the breaker
                await sched.submit(_req("r1", deadline_s=0.1))
                await sched.submit(_req("r2", deadline_s=0.1))
                assert pool.devices[0].breaker.state == "open"
                return await sched.submit(_req("r3", deadline_s=0.1))

        res = _run(go())
        assert res.status == "error"
        assert res.error == "CircuitOpenError"
        assert "quarantined" in res.message


class TestReporting:
    def test_report_aggregates_all_verdicts(self):
        async def go():
            pool = DevicePool(2)
            async with Scheduler(pool, ServeConfig()) as sched:
                def body(req, dev):
                    if req.id == "bad":
                        raise SimulationError("nope")
                    return _payload(dev)
                scripted(sched, body)
                await sched.submit(_req("a"))
                await sched.submit(_req("b"))
                cfg = sched.config
                cfg.max_tries = 1
                await sched.submit(_req("bad"))
                return sched.report()

        report = _run(go())
        assert report["requests"] == 3
        assert report["by_status"] == {"error": 1, "ok": 2}
        assert report["latency"]["count"] == 3
        assert report["latency"]["ok_p50_us"] > 0
        counters = report["metrics"]["counters"]
        assert counters["serve.requests.ok"] == 2
        assert counters["serve.requests.error"] == 1
        assert len(report["devices"]) == 2
