"""The repo benchmark: four workloads, end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload table2-grid --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` runs an untraced half and a traced half of the same op
schedule and reports the per-layer metrics (see ``README.md``).  Every
op is checked against an independent reference outside its timed
interval.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0
only when every result is correct.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS_DIR = ROOT / ".perfbench_runs"

WORKLOADS = ("table2-grid", "compile-corpus", "apps", "serve-mixed")
#: environment knobs that would silently change what is measured (CI legs
#: export some of them); cleared before ``repro`` is imported
PINNED_ENV = ("REPRO_EXECUTOR", "REPRO_PASSES", "REPRO_LAUNCH_CACHE_MAX")
#: set-ups per run; ``setup_s`` reports their median
SETUP_REPEATS = 3
#: at least this many timed ops, so that 10 samples lie above p90
MIN_OPS = 110

E2E_UNITS = {"setup_s": "s", "op_ms_p50": "ms", "op_ms_p90": "ms",
             "ops_per_s": "1/s", "compile_ms_p50": "ms",
             "peak_rss_mb": "MB"}


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile.

    A weighted mean of all order statistics, with weights from a Beta
    distribution centred on rank ``q * n``.  A single order statistic (the
    plain median, nearest-rank p90) jumps between neighbouring op kinds
    when the sample has gaps — table2-grid's 42 cases do — while this
    estimate moves smoothly, which cuts run-to-run spread.
    """
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if n == 1:
        return float(x[0])
    a, b = q * (n + 1), (1 - q) * (n + 1)
    grid = np.linspace(0.0, 1.0, 20001)[1:-1]
    logpdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    pdf = np.exp(logpdf - logpdf.max())
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)))
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf))
    return float(weights @ x)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def no_telemetry() -> None:
    """Fail if a telemetry bus or request tracer is installed."""
    from repro.obs import timeline
    if timeline.current() is not None or timeline.tracer() is not None:
        raise RuntimeError("a telemetry bus or tracer is installed; the "
                           "untraced run must measure the program bare")


# ---------------------------------------------------------------------------
# sequential workloads
# ---------------------------------------------------------------------------

class SeqPhase:
    """Timed ops of one phase: walls, verdicts and result digests."""

    def __init__(self):
        self.op_ms: list[float] = []  # raw walls
        self.op_t: list[float] = []  # when each op ran (perf_counter)
        self.failures: list[str] = []
        self.digests: dict = {}
        self.passes = 0


def run_sequential(wl, seed: int, seconds: float, min_ops: int, speed,
                   tracer=None) -> SeqPhase:
    """Whole passes over the op list until ``seconds`` is used up.

    A pass starts only if it is predicted to end within ``seconds`` (or
    fewer than ``min_ops`` ops ran), so every run times whole passes and
    the op mix is the same in every run.  Inputs are made and the host
    speed is probed before, and the result is checked after, each op's
    timed interval.
    """
    ph = SeqPhase()
    t0 = time.perf_counter()
    last = 0.0
    while ph.passes == 0 or len(ph.op_ms) < min_ops or \
            time.perf_counter() - t0 + last <= seconds:
        p0 = time.perf_counter()
        for i in wl.order(seed, ph.passes):
            key = (ph.passes, i)
            speed.sample()
            inputs = wl.inputs(seed, ph.passes, i)
            root = None
            if tracer is not None:
                tracer.counting = ph.passes == 0
                root = tracer.begin("bench.op", op=key)
            a = time.perf_counter()
            try:
                result = wl.run(i, inputs)
                err = None
            except Exception as exc:  # a failed op is counted, not fatal
                result, err = None, f"{type(exc).__name__}: {exc}"
            b = time.perf_counter()
            if root is not None:
                tracer.end(root)
            ph.op_ms.append((b - a) * 1e3)
            ph.op_t.append((a + b) / 2)
            if err is None:
                err = wl.check(i, inputs, result)
                ph.digests[key] = wl.digest(result)
            if err is not None:
                ph.failures.append(f"op {key}: {err}")
        ph.passes += 1
        last = time.perf_counter() - p0
    speed.sample(force=True)
    if tracer is not None:
        tracer.counting = False
    return ph


def setup_sequential(name: str, seed: int, speed):
    """Set up ``SETUP_REPEATS`` times; returns the last set-up and the
    walls as ``(seconds, midpoint)``."""
    from workloads import SEQUENTIAL
    walls = []
    for _ in range(SETUP_REPEATS):
        speed.sample(force=True)
        spent = speed.spent_s
        a = time.perf_counter()
        wl = SEQUENTIAL[name]()
        wl.setup(seed, speed.sample)
        b = time.perf_counter()
        walls.append((b - a - (speed.spent_s - spent), (a + b) / 2))
    speed.sample(force=True)
    return wl, walls


# ---------------------------------------------------------------------------
# serve-mixed
# ---------------------------------------------------------------------------

async def run_serve(seed: int, phases, probe, speed):
    """Set up (``SETUP_REPEATS`` times), then run each phase.

    ``phases`` is a list of ``(seconds, traced)``.  Every phase gets a
    fresh service set-up, so each starts from the same cache state.
    Returns ``(setup walls, programs, [(entries, info, tracer or None)])``;
    ``info["compiles"]`` holds the ``acc.compile`` calls ``probe`` saw
    during the phase.
    """
    import serve_mixed as sm
    from tracing import Tracer

    RUNS_DIR.mkdir(exist_ok=True)
    programs = sm.program_set()
    walls = []
    service = None
    for _ in range(SETUP_REPEATS):
        if service is not None:
            await service.close()
        speed.sample(force=True)
        a = time.perf_counter()
        service = sm.Service(RUNS_DIR)
        await service.setup(programs, seed)
        b = time.perf_counter()
        walls.append((b - a, (a + b) / 2))
    speed.sample(force=True)
    out = []
    try:
        for k, (seconds, traced) in enumerate(phases):
            if k:
                await service.close()
                service = sm.Service(RUNS_DIR)
                await service.setup(programs, seed)
            entries = sm.schedule(seed, seconds, programs)
            mark = len(probe.compiles)
            tracer = Tracer() if traced else None
            if tracer is not None:
                tracer.install()
                tracer.counting = True
            try:
                info = await sm.run_phase(service, programs, entries, speed,
                                          tracer)
            finally:
                if tracer is not None:
                    tracer.counting = False
                    tracer.remove()
            info["compiles"] = probe.compiles[mark:]
            out.append((entries, info, tracer))
    finally:
        await service.close()
    return walls, programs, out


def serve_failures(programs, entries) -> dict:
    """Request id -> why it failed, for every request that did."""
    import serve_mixed as sm
    fails = {}
    for e in entries:
        err = sm.check(programs[e.rank], e.inputs, e.res)
        if err is not None:
            fails[e.id] = err
    return fails


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

#: counted over the first traced pass (the whole traced phase for serve)
COUNT_METRICS = {
    "passes.autotune.retuned": "count",
    "passes.cascade-fusion.applied": "count",
    "passes.fuse-finish.applied": "count",
    "codegen.kernels": "count",
    "codegen.kernel_stmts": "count",
    "acc.runs": "count",
    "acc.runtime.host_bytes": "bytes",
    "acc.runtime.modeled_transfer_ms": "modeled_ms",
    "gpu.executor.launches": "count",
    "gpu.executor.mode.trace": "count",
    "gpu.executor.mode.batched": "count",
    "gpu.executor.mode.reference": "count",
    "gpu.memory.global_transactions": "count",
    "gpu.memory.dram_bytes": "bytes",
    "gpu.memory.bank_conflict_extra": "count",
    "gpu.costmodel.modeled_kernel_ms": "modeled_ms",
    "modeled_device_ms": "modeled_ms",
}

SERVE_METRICS = {
    "serve.queue_ms_p50": "ms", "serve.queue_ms_p90": "ms",
    "serve.compile_ms_p50": "ms", "serve.run_ms_p50": "ms",
    "serve.cache.memo": "count", "serve.cache.hit": "count",
    "serve.cache.miss": "count", "serve.cache.reuse_ratio": "ratio",
    "serve.device_busy_share": "ratio", "serve.retried": "count",
    "serve.hedged": "count", "serve.shed": "count",
    "serve.expired": "count", "serve.gen_lag_ms_max": "ms",
}

OTHER_METRICS = {
    "frontend.tokens_per_ms": "1/ms",
    "gpu.executor.launch_ms_p50": "ms",
    "gpu.executor.first_launch_ms": "ms",
    "gpu.executor.blocks_per_ms": "1/ms",
    "gpu.memory.accounting_share": "ratio",
    "bench.trace_overhead": "ratio",
    "bench.unattributed_share": "ratio",
}


def per_layer_units() -> dict:
    from tracing import SPANS
    units = {metric: "ms" for _, metric in SPANS.values()}
    units.update(COUNT_METRICS)
    units.update(SERVE_METRICS)
    units.update(OTHER_METRICS)
    return units


def layer_metrics(tracer, untraced_p50: float, traced_p50: float,
                  serve=None):
    """Per-layer metrics of one traced phase, plus the layer table.

    Returns ``(metrics, layer self ms per op, failed span checks)``.
    """
    from tracing import SPANS

    ops = tracer.self_times()
    n = max(1, len(ops))
    m = {name: 0.0 for name in per_layer_units()}
    self_ms = Counter()
    wall_ms = 0.0
    bad = []
    for op, rec in ops.items():
        total = sum(rec["self"].values())
        if not rec["covered_ok"] or abs(total - rec["wall"]) > \
                1e-9 + 1e-6 * rec["wall"]:
            bad.append(op)
        wall_ms += rec["wall"] * 1e3
        for name, s in rec["self"].items():
            self_ms[name] += s * 1e3
    for name, (_, metric) in SPANS.items():
        m[metric] = self_ms[name] / n
    for name in COUNT_METRICS:
        m[name] = float(tracer.counts.get(name, 0))
    parse_ms = self_ms["frontend.parse"]
    m["frontend.tokens_per_ms"] = tracer.tokens / parse_ms if parse_ms \
        else 0.0
    launches = tracer.launch_ms + tracer.first_launch_ms
    launch_total = sum(launches)
    m["gpu.executor.launch_ms_p50"] = statistics.median(launches) \
        if launches else 0.0
    m["gpu.executor.first_launch_ms"] = (
        statistics.mean(tracer.first_launch_ms)
        if tracer.first_launch_ms else 0.0)
    m["gpu.executor.blocks_per_ms"] = tracer.launch_blocks / launch_total \
        if launch_total else 0.0
    m["gpu.memory.accounting_share"] = (
        self_ms["gpu.memory.accounting"] / launch_total
        if launch_total else 0.0)
    m["bench.trace_overhead"] = traced_p50 / untraced_p50
    m["bench.unattributed_share"] = self_ms["bench.op"] / wall_ms \
        if wall_ms else 0.0
    if serve is not None:
        m.update(serve)
    layers = Counter()
    for name, ms in self_ms.items():
        layers[SPANS[name][0]] += ms / n
    return m, layers, bad


def serve_layer_metrics(entries, info) -> dict:
    from serve_mixed import N_DEVICES
    ok = [e.res for e in entries if e.res.ok]
    res = [e.res for e in entries]

    def med(vals):
        return statistics.median(vals) if vals else 0.0

    cache = Counter(r.cache for r in ok)
    busy = sum(r.compile_us + r.run_us for r in ok) / 1e6
    return {
        "serve.queue_ms_p50": med([r.queue_us / 1e3 for r in ok]),
        "serve.queue_ms_p90": quantile([r.queue_us / 1e3 for r in ok], 0.9)
        if ok else 0.0,
        "serve.compile_ms_p50": med([r.compile_us / 1e3 for r in ok]),
        "serve.run_ms_p50": med([r.run_us / 1e3 for r in ok]),
        "serve.cache.memo": float(cache["memo"]),
        "serve.cache.hit": float(cache["hit"]),
        "serve.cache.miss": float(cache["miss"]),
        "serve.cache.reuse_ratio": (cache["memo"] + cache["hit"]) / len(ok)
        if ok else 0.0,
        "serve.device_busy_share": busy / (N_DEVICES * info["wall_s"]),
        "serve.retried": float(sum(r.tries > 1 for r in res)),
        "serve.hedged": float(sum(r.hedged for r in res)),
        "serve.shed": float(sum(r.status == "shed" for r in res)),
        "serve.expired": float(sum(r.status == "expired" for r in res)),
        "serve.gen_lag_ms_max": max(info["lags_s"]) * 1e3,
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def emit(lines: list[str], workload: str, name: str, value, unit: str):
    lines.append(f"{workload:<15} {name:<34} {value:>16.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for k in PINNED_ENV:
        os.environ.pop(k, None)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401
    import repro.acc  # noqa: F401
    import repro.apps  # noqa: F401
    import repro.serve  # noqa: F401
    import repro.testsuite.cases  # noqa: F401
    from speed import SpeedTrack
    from tracing import Probe, Tracer
    t_imported = time.perf_counter()
    import_s = t_imported - T_START

    no_telemetry()
    w = args.workload
    speed = SpeedTrack()
    probe = Probe()
    probe.install()
    failures: list[str] = []  # ops with a wrong result or an error
    problems: list[str] = []  # failed checks of the benchmark itself
    extra: list[tuple] = []
    traced = None  # (tracer, traced op ms normalized, serve metrics)

    if w == "serve-mixed":
        import serve_mixed as sm
        phases = ([(args.seconds, False)] if not args.trace else
                  [(args.seconds / 2, False), (args.seconds / 2, True)])
        walls, programs, results = asyncio.run(
            run_serve(args.seed, phases, probe, speed))
        entries, info, _ = results[0]
        no_telemetry()
        probe.remove()
        bad = serve_failures(programs, entries)
        failures = [f"{k}: {v}" for k, v in bad.items()]
        attempted = len(entries)
        raw = [(e.done - (info["t_base"] + e.due_off)) * 1e3
               for e in entries]
        op_ms = [speed.normalize(ms, info["t_base"] + e.due_off)
                 for e, ms in zip(entries, raw)]
        ops_per_s = len(entries) / info["wall_s"]
        compiles = info["compiles"]
        slo_miss = sum(1 for e, ms in zip(entries, raw)
                       if e.id in bad or ms > sm.LATENCY_LIMIT_MS)
        extra += [("slo_miss_rate", slo_miss / attempted, "ratio"),
                  ("gen_lag_ms_max", max(info["lags_s"]) * 1e3, "ms"),
                  ("latency_limit_ms", sm.LATENCY_LIMIT_MS, "ms"),
                  ("rate_per_s", sm.RATE_PER_S, "1/s")]
        if args.trace:
            t_entries, t_info, tracer = results[1]
            failures += [f"traced {k}: {v}" for k, v in
                         serve_failures(programs, t_entries).items()]
            attempted += len(t_entries)
            same = {e.id: e.res.scalars for e in entries if e.res.ok}
            for e in t_entries:
                if e.res.ok and e.id in same and \
                        repr(same[e.id]) != repr(e.res.scalars):
                    problems.append(f"{e.id}: traced result differs")
            t_ms = [speed.normalize(
                (e.done - (t_info["t_base"] + e.due_off)) * 1e3,
                t_info["t_base"] + e.due_off) for e in t_entries]
            traced = (tracer, t_ms, serve_layer_metrics(t_entries, t_info))
    else:
        wl, walls = setup_sequential(w, args.seed, speed)
        setup_compiles = list(probe.compiles)
        mark = len(probe.compiles)
        seconds = args.seconds / 2 if args.trace else args.seconds
        ph = run_sequential(wl, args.seed, seconds,
                            1 if args.trace else MIN_OPS, speed)
        no_telemetry()
        probe.remove()
        failures = list(ph.failures)
        attempted = len(ph.op_ms)
        raw = ph.op_ms
        op_ms = [speed.normalize(ms, t) for ms, t in zip(raw, ph.op_t)]
        ops_per_s = len(op_ms) / (sum(op_ms) / 1e3)
        compiles = (probe.compiles[mark:] if w != "table2-grid"
                    else setup_compiles)
        extra.append(("passes", ph.passes, "count"))
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                tph = run_sequential(wl, args.seed, seconds, 1, speed,
                                     tracer)
            finally:
                tracer.remove()
            failures += [f"traced {f}" for f in tph.failures]
            attempted += len(tph.op_ms)
            for key, d in tph.digests.items():
                if key in ph.digests and ph.digests[key] != d:
                    problems.append(f"op {key}: traced result differs")
            traced = (tracer, [speed.normalize(ms, t) for ms, t in
                               zip(tph.op_ms, tph.op_t)], None)

    compile_ms = [speed.normalize(ms, t) for ms, t in compiles]
    p90 = quantile(op_ms, 0.9)
    e2e = {
        "setup_s": import_s * speed.factor(t_imported) + statistics.median(
            speed.normalize(s_, t) for s_, t in walls),
        "op_ms_p50": quantile(op_ms, 0.5),
        "op_ms_p90": p90,
        "ops_per_s": ops_per_s,
        "compile_ms_p50": quantile(compile_ms, 0.5) if compile_ms else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }
    raw_e2e = {
        "raw.setup_s": import_s + statistics.median(s_ for s_, _ in walls),
        "raw.op_ms_p50": quantile(raw, 0.5),
        "raw.op_ms_p90": quantile(raw, 0.9),
        "raw.compile_ms_p50": quantile([ms for ms, _ in compiles], 0.5)
        if compiles else 0.0,
    }
    lines = [f"# {w}  seed {args.seed}  trace {args.trace}  "
             f"pipeline {dict(probe.pipelines)}  "
             f"launches by executor mode {dict(probe.modes)}",
             f"# times at reference host speed (host probe median "
             f"{speed.median_ms():.3f} ms over {len(speed.ms)} probes; "
             f"raw.* are as measured)"]
    for name, v in e2e.items():
        emit(lines, w, name, v, E2E_UNITS[name])
    emit(lines, w, "error_rate", len(failures) / max(1, attempted), "ratio")
    for name, v, unit in extra:
        emit(lines, w, name, v, unit)
    for name, v in raw_e2e.items():
        emit(lines, w, name, v, E2E_UNITS[name[4:]])
    emit(lines, w, "samples", len(op_ms), "count")
    emit(lines, w, "samples_above_p90", sum(v > p90 for v in op_ms),
         "count")
    emit(lines, w, "compile_samples", len(compile_ms), "count")

    if traced is not None:
        tracer, t_ms, serve_m = traced
        lm, layers, bad_ops = layer_metrics(
            tracer, quantile(op_ms, 0.5), quantile(t_ms, 0.5), serve_m)
        if bad_ops:
            problems.append(f"span check: self times do not add up to the "
                            f"op wall for {len(bad_ops)} op(s)")
        lines.append("# traced run: layer self time per op (ms, as "
                     "measured)")
        for layer, ms in sorted(layers.items(), key=lambda kv: -kv[1]):
            lines.append(f"{w:<15} layer {layer:<28} {ms:>16.6g} ms")
        units = per_layer_units()
        for name in sorted(lm):
            emit(lines, w, name, lm[name], units[name])
        RUNS_DIR.mkdir(exist_ok=True)
        out = RUNS_DIR / f"spans-{w}-{args.seed}.jsonl"
        tracer.write(out)
        lines.append(f"# {len(tracer.spans)} spans written to {out}")
        metrics = {k: {"value": v, "unit": units[k]} for k, v in lm.items()}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
                   for k, v in e2e.items()}

    for f in (failures + problems)[:20]:
        lines.append(f"# FAILED {f}")
    correct = not failures and not problems
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
