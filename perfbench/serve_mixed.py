"""serve-mixed: an open-loop Poisson arrival schedule through ``repro.serve``.

Requests are integer-operator testsuite programs (exact references) sent
by one generator coroutine on the event-loop thread, at the fixed
:data:`RATE_PER_S`, to a :class:`~repro.serve.Scheduler` over a 2-device
:class:`~repro.serve.DevicePool` with an on-disk
:class:`~repro.serve.CompileCache`.  The two device threads do all the
compute, so the workload uses as many compute threads as the benchmark
machine has cores.

Program popularity is Zipf-skewed over a fixed ranking of
:data:`PROGRAMS` programs, and every run sends the same mix (see
:func:`schedule`).  Set-up serves the top :data:`WARM` programs once on
each device (device memo), compiles the next :data:`ON_DISK` into the
disk cache (then drops the cache's memory index), and leaves the rest
cold, so every run takes the memo, disk-hit and miss paths (about one
request in eight is a disk hit or a miss).  Latency is timed from each
request's due time, so a late generator or a queue shows up in it.
"""

from __future__ import annotations

import asyncio
import shutil
import tempfile
import time

import numpy as np

#: arrival rate, requests per second.  A constant, never derived at run
#: time.  On a 2-core x86 box each device is busy about 7% of the time:
#: under the GIL two busy device threads halve each other's speed, and
#: at higher rates that contention made p90 swing from run to run.
RATE_PER_S = 8.0
#: the latency limit behind ``slo_miss_rate``, timed from the due time
LATENCY_LIMIT_MS = 100.0
N_DEVICES = 2
#: per-position problem sizes that give every program about the same run
#: time (tens of ms on a 2-core x86 box), so the latency percentiles sit
#: in dense stretches of samples rather than on gaps between programs
SIZES = {
    "gang": 40,
    "worker": 40,
    "vector": 160,
    "gang worker": 160,
    "worker vector": 10_000,
    "gang worker vector": 20_000,
    "same line gang worker vector": 20_000,
}
GEOMETRY = dict(num_gangs=2, num_workers=2, vector_length=32)
ZIPF_S = 1.1
WARM = 8
ON_DISK = 8
INT_OPS = ("+", "max", "&", "|")
INT_CTYPES = ("int",)
#: the generator probes host speed only in gaps at least this long
PROBE_GAP_S = 0.01
#: the popularity ranking is part of the op list, so its seed is fixed
RANKING_SEED = 2014


def program_set() -> list:
    """The ranked program set (most popular first); seed-independent."""
    from repro.testsuite.cases import POSITIONS, make_case

    cases = [make_case(p, o, c, size=SIZES[p]) for p in POSITIONS
             for o in INT_OPS for c in INT_CTYPES]
    perm = np.random.default_rng(RANKING_SEED).permutation(len(cases))
    return [cases[int(i)] for i in perm]


PROGRAMS = 7 * len(INT_OPS) * len(INT_CTYPES)  # 28


class Entry:
    """One scheduled request with its inputs and outcome."""

    __slots__ = ("id", "rank", "due_off", "inputs", "res", "t_sub", "done")

    def __init__(self, id_, rank, due_off, inputs):
        self.id, self.rank, self.due_off, self.inputs = \
            id_, rank, due_off, inputs
        self.res = None
        self.t_sub = self.done = 0.0


def schedule(seed: int, seconds: float, programs: list) -> list[Entry]:
    """Seeded arrivals over ``seconds`` with a fixed program mix.

    A Poisson process conditioned on its count: ``RATE_PER_S * seconds``
    arrival times drawn uniformly over the window and sorted.  Program
    counts are the Zipf shares of that count (largest remainder), so every
    run sends the same requests; the seed sets their order, times and
    inputs.
    """
    n = int(round(RATE_PER_S * seconds))
    w = 1.0 / np.arange(1, len(programs) + 1) ** ZIPF_S
    quota = n * w / w.sum()
    counts = np.floor(quota).astype(int)
    rest = np.argsort(-(quota - counts), kind="stable")[:n - counts.sum()]
    counts[rest] += 1
    rng = np.random.default_rng([seed, 11])
    ranks = rng.permutation(np.repeat(np.arange(len(programs)), counts))
    times = np.sort(rng.uniform(0.0, seconds, n))
    out = []
    for j, (t, rank) in enumerate(zip(times, ranks)):
        inputs = programs[rank].make_inputs(np.random.default_rng(
            [seed, 12, j]))
        out.append(Entry(f"r{j:05d}", int(rank), float(t), inputs))
    return out


def _request(entry_id: str, case, inputs):
    from repro.serve import ComputeRequest

    arrays = {k: v for k, v in inputs.items() if isinstance(v, np.ndarray)}
    scalars = {k: v for k, v in inputs.items()
               if not isinstance(v, np.ndarray)}
    return ComputeRequest(id=entry_id, source=case.source, arrays=arrays,
                          scalars=scalars, deadline_s=30.0, **GEOMETRY)


class Service:
    """One set-up of the service: pool, scheduler, populated cache."""

    def __init__(self, runs_dir):
        self.runs_dir = runs_dir
        self.sched = None
        self.cache_dir = None

    async def setup(self, programs: list, seed: int) -> None:
        from repro.serve import CompileCache, DevicePool, Scheduler, \
            ServeConfig

        self.cache_dir = tempfile.mkdtemp(prefix="serve-cache-",
                                          dir=self.runs_dir)
        cache = CompileCache(self.cache_dir)
        pool = DevicePool(N_DEVICES)
        self.sched = Scheduler(pool, ServeConfig(), cache=cache)
        await self.sched.start()
        for case in programs[WARM:WARM + ON_DISK]:
            cache.compile(case.source, device=pool.devices[0].props,
                          **GEOMETRY)
        cache.drop_memory()
        for k, case in enumerate(programs[:WARM]):
            # two at once: both devices are free, so each serves one
            inputs = case.make_inputs(np.random.default_rng([seed, 13, k]))
            for res in await asyncio.gather(*(
                    self.sched.submit(_request(f"warm{k}.{d}", case, inputs))
                    for d in range(N_DEVICES))):
                if not res.ok:
                    raise RuntimeError(f"warm-up request failed: "
                                       f"{res.error} {res.message}")

    async def close(self) -> None:
        if self.sched is not None:
            await self.sched.close()
            for dev in self.sched.pool.devices:
                dev.executor.shutdown(wait=True)
            self.sched = None
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.cache_dir = None


async def run_phase(service: Service, programs: list, entries: list,
                    speed, tracer=None) -> dict:
    """Send ``entries`` on their schedule; wait for every verdict.

    The host-speed probe runs on the generator's thread only while no
    request is in flight and the next one is at least ``PROBE_GAP_S``
    away, so it neither delays a send nor competes with a device.
    """
    sched = service.sched
    devices = sched.pool.devices

    async def one(e: Entry, req) -> None:
        e.t_sub = time.perf_counter()
        e.res = await sched.submit(req)
        e.done = time.perf_counter()

    reqs = [_request(e.id, programs[e.rank], e.inputs) for e in entries]
    tasks, lags = [], []
    for _ in range(3):
        speed.sample(force=True)
    t_base = time.perf_counter() + 0.02
    for e, req in zip(entries, reqs):
        due = t_base + e.due_off
        if due - time.perf_counter() > PROBE_GAP_S and \
                not any(d.inflight for d in devices):
            speed.sample()
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        lags.append(time.perf_counter() - due)
        tasks.append(asyncio.ensure_future(one(e, req)))
    await asyncio.gather(*tasks)
    for _ in range(3):
        speed.sample(force=True)
    t_end = max(e.done for e in entries)
    if tracer is not None:
        for e in entries:
            tracer.add_span("bench.op", e.id, t_base + e.due_off, e.done)
            if e.res.queue_us > 0:
                tracer.add_span("serve.queue", e.id, e.t_sub,
                                e.t_sub + e.res.queue_us / 1e6)
    return {"t_base": t_base, "wall_s": t_end - t_base, "lags_s": lags}


def check(case, inputs, res) -> str | None:
    """Exact comparison with the testsuite's NumPy reference."""
    if not res.ok:
        return f"{res.status}: {res.error} {res.message}"
    for kind, name, want in case.expected(inputs):
        if kind == "scalar":
            got = (res.scalars or {}).get(name)
            good = got is not None and \
                np.asarray(got).tobytes() == np.asarray(want).tobytes()
        else:
            got = (res.outputs or {}).get(name)
            good = got is not None and np.array_equal(got, want)
        if not good:
            return f"{case.label}: {name} = {got!r}, expected {want!r}"
    return None
