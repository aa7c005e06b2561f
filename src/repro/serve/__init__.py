"""The resilient compile-and-run service layer.

:mod:`repro.serve` turns the single-shot compiler + simulator into a
long-lived service: an asyncio :class:`~repro.serve.scheduler.Scheduler`
multiplexes concurrent compile+run requests over a
:class:`~repro.serve.pool.DevicePool` of simulated devices, with

* bounded per-priority admission queues (backpressure + load shedding),
* per-request deadlines spanning queue wait and execution,
* cross-device retries and optional tail-latency hedging,
* per-device health via rolling-error-rate circuit breakers
  (quarantine → probation probes → re-admission), and
* a content-addressed, crash-safe, on-disk compile cache
  (:class:`~repro.serve.cache.CompileCache`) under each device's
  in-memory program memo.

Every scheduling decision emits on the ``obs.timeline`` bus and the
metrics registry; :mod:`repro.serve.loadgen` and
:mod:`repro.serve.soak` drive the service under load and chaos
(``python -m repro loadgen`` / the CI chaos-soak gate).
"""

from repro.serve.breaker import CircuitBreaker
from repro.serve.cache import CompileCache, device_fingerprint
from repro.serve.loadgen import build_corpus, run_loadgen
from repro.serve.pool import DevicePool, PooledDevice
from repro.serve.scheduler import (ComputeRequest, RequestResult, Scheduler,
                                   ServeConfig)
from repro.serve.soak import SoakConfig, evaluate_gate, run_soak

__all__ = [
    "CircuitBreaker", "CompileCache", "device_fingerprint",
    "DevicePool", "PooledDevice",
    "ComputeRequest", "RequestResult", "Scheduler", "ServeConfig",
    "build_corpus", "run_loadgen",
    "SoakConfig", "evaluate_gate", "run_soak",
]
