"""Load generator for the serve layer: mixed waves, cold/warm contrast.

The request corpus is drawn from the reduction testsuite
(:mod:`repro.testsuite.cases`) restricted to **integer** operators, so
every request carries an exact NumPy reference — a served answer is
either bit-identical to the reference or it is an escaped corruption,
with no floating-point-association grey zone.  Priorities, positions,
and operators are drawn from a seeded RNG, so a loadgen run is
replayable.

Two measured waves make the persistent compile cache's value visible:

* **cold** — fresh cache directory: every distinct program pays the full
  parse + IR + pass-pipeline compile;
* **warm** — a *new* scheduler and pool (empty per-device memos) over
  the same cache directory, with the in-memory payload index dropped, so
  every compile is served by disk read + verify + unpickle.

The report carries per-wave latency and compile-time percentiles.  Most
cold-wave compiles are not cache misses (a program's later requests hit
the device memo or another device's fresh disk entry), so the per-wave
p50s compare memo hits with memo hits.  The acceptance statistic is
therefore *paired* (:func:`paired_compile`): the cold wave's cache-miss
compiles against the warm wave's disk-hit compiles of the same programs.
The gate (warm must beat cold) is asserted by the CLI, not here.
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.obs import timeline as _timeline
from repro.obs.slo import quantile
from repro.serve.cache import CompileCache
from repro.serve.pool import DevicePool
from repro.serve.scheduler import (ComputeRequest, RequestResult, Scheduler,
                                   ServeConfig)

__all__ = ["build_corpus", "run_wave", "run_loadgen", "verify_results",
           "paired_compile"]

#: the corpus grid: integer-only operators (exact references) across the
#: clause positions the paper's Table 2 exercises
_POSITIONS = ("gang", "worker", "vector", "gang worker", "worker vector")
_OPS = ("+", "max", "&", "|")
_GEOMETRY = {"num_gangs": 2, "num_workers": 2, "vector_length": 32}


class LoadRequest:
    """One corpus entry: the service request plus its exact reference."""

    __slots__ = ("request", "case", "expected")

    def __init__(self, request: ComputeRequest, case, expected):
        self.request = request
        self.case = case
        self.expected = expected  # list of (kind, name, value)


def build_corpus(n_requests: int, *, seed: int = 0, size: int = 256,
                 deadline_s: float = 30.0, run_opts: dict | None = None,
                 interactive_fraction: float = 0.25) -> list[LoadRequest]:
    """``n_requests`` seeded requests over the integer-reduction grid."""
    from repro.testsuite.cases import make_case

    rng = np.random.default_rng(seed)
    cases = {}
    out = []
    for i in range(n_requests):
        pos = _POSITIONS[int(rng.integers(len(_POSITIONS)))]
        op = _OPS[int(rng.integers(len(_OPS)))]
        label = f"{pos}|{op}"
        if label not in cases:
            cases[label] = make_case(pos, op, "int", size=size, seed=seed)
        case = cases[label]
        inputs = case.make_inputs(np.random.default_rng(seed + i))
        expected = case.expected(inputs)
        arrays = {k: v for k, v in inputs.items()
                  if isinstance(v, np.ndarray)}
        scalars = {k: v for k, v in inputs.items()
                   if not isinstance(v, np.ndarray)}
        priority = 0 if rng.random() < interactive_fraction else 1
        out.append(LoadRequest(
            ComputeRequest(
                id=f"req-{i:04d}", source=case.source,
                arrays=arrays, scalars=scalars, priority=priority,
                deadline_s=deadline_s, run_opts=dict(run_opts or {}),
                **_GEOMETRY),
            case, expected))
    return out


def verify_results(corpus: list[LoadRequest],
                   results: list[RequestResult]) -> dict:
    """Bit-exact verdict of one wave against the NumPy references.

    Every ``ok`` result must match its reference exactly; a mismatch is
    an **escaped silent corruption** (the thing the whole robustness
    stack exists to prevent).  Every non-ok result must carry a typed
    error name.
    """
    by_id = {lr.request.id: lr for lr in corpus}
    escaped, untyped, ok = [], [], 0
    for res in results:
        lr = by_id[res.id]
        if res.status != "ok":
            if not res.error:
                untyped.append(res.id)
            continue
        ok += 1
        for kind, name, want in lr.expected:
            if kind == "scalar":
                got = (res.scalars or {}).get(name)
                good = got is not None and np.asarray(got).tobytes() == \
                    np.asarray(want).tobytes()
            else:
                got = (res.outputs or {}).get(name)
                good = (got is not None and got.dtype == want.dtype
                        and got.shape == want.shape
                        and np.array_equal(got, want))
            if not good:
                escaped.append({"id": res.id, "name": name,
                                "got": repr(got), "want": repr(want)})
    return {"ok": ok, "escaped": escaped, "escaped_count": len(escaped),
            "untyped_failures": untyped}


async def run_wave(scheduler: Scheduler, corpus: list[LoadRequest], *,
                   stagger_s: float = 0.0,
                   on_submitted=None) -> list[RequestResult]:
    """Submit the corpus (optionally staggered) and gather every verdict.

    ``on_submitted(i)`` fires after request ``i`` is submitted — the soak
    harness uses it to arm chaos mid-load.
    """
    tasks = []
    for i, lr in enumerate(corpus):
        tasks.append(scheduler.submit_nowait(lr.request))
        if on_submitted is not None:
            on_submitted(i)
        if stagger_s > 0:
            await asyncio.sleep(stagger_s)
    return list(await asyncio.gather(*tasks))


def _wave_stats(results: list[RequestResult]) -> dict:
    ok = [r for r in results if r.ok]
    lat = [r.latency_us for r in ok]
    compile_us = [r.compile_us for r in ok]
    by_status: dict[str, int] = {}
    cache: dict[str, int] = {}
    for r in results:
        by_status[r.status] = by_status.get(r.status, 0) + 1
        if r.cache:
            cache[r.cache] = cache.get(r.cache, 0) + 1
    return {
        "requests": len(results), "by_status": dict(sorted(by_status.items())),
        "cache": dict(sorted(cache.items())),
        "latency_p50_us": round(quantile(lat, 0.50), 1),
        "latency_p99_us": round(quantile(lat, 0.99), 1),
        "compile_p50_us": round(quantile(compile_us, 0.50), 1),
        "compile_p99_us": round(quantile(compile_us, 0.99), 1),
        "hedged": sum(r.hedged for r in results),
        "retried": sum(r.tries > 1 for r in results),
    }


def paired_compile(corpus: list[LoadRequest], cold: list[RequestResult],
                   warm: list[RequestResult]) -> dict:
    """Compile cost of the cold miss path against the warm disk-hit path.

    Pairs by program: only programs with a cold-wave ``miss`` *and* a
    warm-wave ``hit`` count.  Each program contributes the median of its
    compiles on each side, so a program requested often weighs no more
    than one requested once; ``speedup_p50`` is the ratio of the two
    medians over programs (``None`` when no program pairs).
    """
    key_of = {lr.request.id: lr.request.source for lr in corpus}

    def by_key(results, path):
        out: dict[str, list[float]] = {}
        for r in results:
            if r.ok and r.cache == path:
                out.setdefault(key_of[r.id], []).append(r.compile_us)
        return out

    miss, hit = by_key(cold, "miss"), by_key(warm, "hit")
    keys = sorted(miss.keys() & hit.keys())
    cold_us = quantile([quantile(miss[k], 0.50) for k in keys], 0.50)
    warm_us = quantile([quantile(hit[k], 0.50) for k in keys], 0.50)
    return {
        "programs": len(keys),
        "cold_miss_p50_us": round(cold_us, 1),
        "warm_hit_p50_us": round(warm_us, 1),
        "speedup_p50": round(cold_us / warm_us, 2)
        if keys and warm_us else None,
    }


def run_loadgen(cache_dir, *, n_requests: int = 64, n_devices: int = 4,
                seed: int = 0, size: int = 256, deadline_s: float = 30.0,
                stagger_s: float = 0.0, config: ServeConfig | None = None,
                run_opts: dict | None = None, warm_pass: bool = True) -> dict:
    """The cold-then-warm measurement: returns the combined report."""
    cfg = config or ServeConfig(default_deadline_s=deadline_s)
    corpus = build_corpus(n_requests, seed=seed, size=size,
                          deadline_s=deadline_s, run_opts=run_opts)
    cache = CompileCache(cache_dir)
    report: dict = {"n_requests": n_requests, "n_devices": n_devices,
                    "seed": seed, "waves": {}}

    async def _one_wave():
        async with Scheduler(DevicePool(n_devices), cfg,
                             cache=cache) as sched:
            results = await run_wave(sched, corpus, stagger_s=stagger_s)
            return results, sched.report()

    wave_results = {}
    for wave in ("cold",) + (("warm",) if warm_pass else ()):
        if wave == "warm":
            # fresh pool + scheduler (empty per-device memos), and forget
            # the in-memory payloads: the warm path is disk read+verify
            cache.drop_memory()
            if _timeline.trace_active():
                # both waves reuse the same request ids; drain the cold
                # wave's events so each trace id keeps exactly one root
                tl = _timeline.current()
                if tl is not None:
                    tl.drain()
        results, sched_report = asyncio.run(_one_wave())
        wave_results[wave] = results
        stats = _wave_stats(results)
        stats["verify"] = verify_results(corpus, results)
        stats["devices"] = sched_report["devices"]
        stats["slo"] = sched_report["slo"]
        report["waves"][wave] = stats
    report["compile_cache"] = cache.stats()
    if warm_pass:
        paired = paired_compile(corpus, wave_results["cold"],
                                wave_results["warm"])
        report["paired_compile"] = paired
        report["warm_speedup_p50"] = paired["speedup_p50"]
    return report
