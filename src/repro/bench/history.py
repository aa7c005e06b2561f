"""``repro.bench.history`` — the performance-regression observatory.

One static benchmark snapshot cannot answer the paper's actually
*comparative* questions (does strategy A still beat B on this device
generation?  did the last PR's executor change hold its speedup?).  This
module keeps an **append-only run ledger** — one JSONL entry per
``(git SHA, config, pipeline, executor mode)`` measurement, median-of-N
repetitions with a MAD (median-absolute-deviation) noise estimate — and
a **regression detector** that flags any config whose current median
leaves the baseline's noise band:

    band = max(k * baseline_MAD, floor * baseline_median)
    regression  ⇔  current_median > baseline_median + band
    improvement ⇔  current_median < baseline_median - band

Two metrics ride in every entry:

* ``modeled_ms`` — the analytic cost model's kernel time.  Deterministic
  and machine-independent, so it compares across hosts and its MAD is
  zero (the ``floor`` term supplies the band).  A modeled regression
  means the *compiler* changed (pass pipeline, lowering, cost model).
* ``wall_ms``   — real wall-clock of the same runs.  Machine-dependent
  and noisy, so the detector only compares entries whose ``host``
  fingerprints match; the MAD band absorbs scheduler noise.  A wall
  regression means the *implementation* got slower (executor, caches).

The measured configurations mirror ``repro.bench.smoke`` (the Table 2
sweep and the 64-gang reduction in each executor mode, plus the
minimal-vs-optimized pass-pipeline grid), so
:func:`import_baseline` can seed the ledger's first reference point from
the committed ``BENCH_table2.json``.  ``python -m repro obs
record|compare|report`` is the CLI face (see ``docs/telemetry.md``).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from dataclasses import asdict, dataclass

from repro.obs import timeline as _timeline

__all__ = ["LedgerEntry", "Verdict", "DEFAULT_LEDGER", "append_entries",
           "load_ledger", "measure", "import_baseline", "detect",
           "format_report", "render_html", "git_sha", "median", "mad"]

DEFAULT_LEDGER = "artifacts/bench_history.jsonl"
SCHEMA = 1

#: detector defaults: k MADs of headroom, but never a band tighter than
#: ``floor`` of the baseline median (MAD is 0 for deterministic metrics)
DEFAULT_K = 3.0
DEFAULT_FLOOR = 0.05

_REDUCTION_SRC = '''float a[n];
float total = 0.0;
#pragma acc parallel copyin(a)
#pragma acc loop gang worker vector reduction(+:total)
for (i = 0; i < n; i++)
    total += a[i];
'''


def median(xs) -> float:
    s = sorted(xs)
    if not s:
        raise ValueError("median of empty sample")
    n = len(s)
    mid = n // 2
    return float(s[mid]) if n % 2 else (s[mid - 1] + s[mid]) / 2.0


def mad(xs) -> float:
    """Median absolute deviation — a robust noise width."""
    m = median(xs)
    return median([abs(x - m) for x in xs])


def git_sha(short: bool = True) -> str:
    try:
        args = ["git", "rev-parse"] + (["--short"] if short else []) \
            + ["HEAD"]
        out = subprocess.run(args, capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


@dataclass(frozen=True)
class LedgerEntry:
    """One measurement of one configuration, appended to the ledger."""

    sha: str
    recorded_at: float        # unix seconds
    host: str                 # wall-clock comparability fingerprint
    config: str               # e.g. "table2_quick", a pass-grid label
    pipeline: str             # "default" | "minimal" | "optimized" | ...
    executor: str             # "batched" | "reference"
    reps: int
    modeled_ms: float         # median over reps
    modeled_mad_ms: float
    wall_ms: float | None     # median over reps (None: not measured)
    wall_mad_ms: float | None
    source: str = "measured"  # "measured" | "baseline-import"
    schema: int = SCHEMA

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.config, self.pipeline, self.executor)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "LedgerEntry":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in d.items() if k in known})


# -- ledger I/O -----------------------------------------------------------

def append_entries(path: str, entries: list[LedgerEntry]) -> str:
    """Append entries to the JSONL ledger (created if missing)."""
    d = os.path.dirname(path)
    if d:
        os.makedirs(d, exist_ok=True)
    with open(path, "a") as f:
        for e in entries:
            f.write(json.dumps(e.to_dict(), sort_keys=True) + "\n")
    return path


def load_ledger(path: str) -> list[LedgerEntry]:
    """All entries, in append (= chronological) order."""
    entries: list[LedgerEntry] = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                entries.append(LedgerEntry.from_dict(json.loads(line)))
    return entries


# -- measurement ----------------------------------------------------------

def _sample(fn, reps: int) -> tuple[list[float], object]:
    """``reps`` timed calls → (wall seconds per rep, last result)."""
    walls, result = [], None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        walls.append(time.perf_counter() - t0)
    return walls, result


def _entry(config: str, pipeline: str, executor: str, reps: int,
           modeled_samples: list[float], wall_samples: list[float] | None,
           *, sha: str, now: float, host: str,
           perturb: float = 1.0) -> LedgerEntry:
    modeled = [m * perturb for m in modeled_samples]
    walls = [w * perturb for w in wall_samples] if wall_samples else None
    return LedgerEntry(
        sha=sha, recorded_at=now, host=host, config=config,
        pipeline=pipeline, executor=executor, reps=reps,
        modeled_ms=median(modeled), modeled_mad_ms=mad(modeled),
        wall_ms=median(walls) * 1e3 if walls else None,
        wall_mad_ms=mad(walls) * 1e3 if walls else None)


def measure(reps: int = 3, quick: bool = False,
            perturb: dict[str, float] | None = None,
            sha: str | None = None) -> list[LedgerEntry]:
    """Measure the observatory's configuration grid.

    Mirrors the bench-smoke workloads: the scaled Table 2 sweep and a
    64-gang reduction, each in every executor mode (``reps`` wall
    samples each), plus the minimal-vs-optimized pass-pipeline grid
    (modeled time is deterministic, so it is run once).  ``quick``
    shrinks sizes/geometry for tests.  ``perturb`` maps config label →
    slowdown factor applied to that config's samples — the documented
    self-test hook that lets the regression detector prove itself
    without waiting for a real regression.

    Emits one ``bench`` counter event per row onto the telemetry bus
    (modeled vs wall-clock, the cost model's fidelity signal).
    """
    import numpy as np

    from repro import acc
    from repro.testsuite.cases import POSITIONS, generate_cases

    perturb = dict(perturb or {})
    sha = sha if sha is not None else git_sha()
    now = time.time()
    host = platform.node() or "unknown-host"
    entries: list[LedgerEntry] = []

    def add(config, pipeline, executor, n, modeled, walls):
        e = _entry(config, pipeline, executor, n, modeled, walls,
                   sha=sha, now=now, host=host,
                   perturb=perturb.get(config, 1.0))
        entries.append(e)
        tl = _timeline.current()
        if tl is not None:
            tl.counter("bench", f"history:{config}", pipeline=pipeline,
                       executor=executor, modeled_ms=e.modeled_ms,
                       wall_ms=e.wall_ms,
                       model_vs_wall=(None if not e.wall_ms else round(
                           e.modeled_ms / e.wall_ms, 6)))

    # 1. the Table 2 sweep (multi-gang launches, what the batched
    #    executor accelerates), per executor mode
    size, geom = ((512, dict(num_gangs=8, num_workers=2, vector_length=32))
                  if quick
                  else (4096, dict(num_gangs=192, num_workers=8,
                                   vector_length=128)))
    cases = generate_cases(positions=POSITIONS, ops=("+",),
                           ctypes=("float",), size=size)
    compiled = [(acc.compile(case.source, **geom),
                 case.make_inputs(np.random.default_rng(42)))
                for case in cases]
    for mode in ("batched", "reference", "trace"):
        opts = acc.RunOptions(executor_mode=mode)

        def sweep():
            return [prog.run(opts, **inputs) for prog, inputs in compiled]
        walls, results = _sample(sweep, reps)
        modeled = [sum(r.kernel_ms for r in results)] * reps
        add("table2_quick", "default", mode, reps, modeled, walls)

    # 2. the 64-gang reduction (launch-overhead-sensitive single kernel)
    rgeom = (dict(num_gangs=8, num_workers=2, vector_length=32) if quick
             else dict(num_gangs=64, num_workers=4, vector_length=32))
    rprog = acc.compile(_REDUCTION_SRC, **rgeom)
    a = (np.arange(1 << (12 if quick else 16)) % 97).astype(np.float32)
    for mode in ("batched", "reference", "trace"):
        opts = acc.RunOptions(executor_mode=mode)
        walls, res = _sample(lambda: rprog.run(opts, a=a), reps)
        add("reduction_64gang", "default", mode, reps,
            [res.kernel_ms] * reps, walls)

    # 3. minimal vs optimized pass pipelines (modeled time only: the
    #    metric is deterministic, one run per cell suffices)
    from repro.testsuite.cases import make_case
    pp_positions = (("gang", "gang worker vector") if quick else
                    ("gang", "gang worker", "gang worker vector",
                     "same line gang worker vector"))
    grid = [(None, make_case(pos, "+", "float", size=size), geom)
            for pos in pp_positions]
    if not quick:
        # the warp-sized-block row from the smoke pass grid (isolates the
        # barrier-elimination win; label must match the imported baseline)
        grid.append(("same-line gwv float + (24x1x32, warp-sized blocks)",
                     make_case("same line gang worker vector", "+", "float",
                               size=size),
                     dict(num_gangs=24, num_workers=1, vector_length=32)))
    for label, case, g in grid:
        inputs = case.make_inputs(np.random.default_rng(7))
        for pipe in ("minimal", "optimized"):
            prog = acc.compile(case.source, pipeline=pipe, **g)
            res = prog.run(**inputs)
            add(f"passes:{label or case.label}", pipe, "batched", 1,
                [res.kernel_ms], None)
    return entries


def import_baseline(baseline_path: str, *,
                    sha: str = "seed-baseline") -> list[LedgerEntry]:
    """Seed entries from a committed ``BENCH_table2.json`` smoke baseline.

    A one-shot importer (``repro obs record --import-baseline``) so the
    very first ``compare`` has a reference point: the smoke document's
    per-workload wall/modeled numbers become ``baseline-import`` entries
    (host ``"baseline-import"``, so cross-machine wall comparisons are
    skipped, and MAD 0, so the detector's relative floor supplies the
    noise band), and the pass-pipeline grid's minimal/optimized modeled
    times become per-config entries.
    """
    with open(baseline_path) as f:
        doc = json.load(f)
    now = time.time()
    reps = int(doc.get("reps", 1))
    entries: list[LedgerEntry] = []
    for name, w in doc.get("workloads", {}).items():
        for mode in ("batched", "reference", "trace"):
            if f"{mode}_wall_s" not in w:  # pre-trace-executor baselines
                continue
            entries.append(LedgerEntry(
                sha=sha, recorded_at=now, host="baseline-import",
                config=name, pipeline="default", executor=mode, reps=reps,
                modeled_ms=float(w["modeled_ms_total"]), modeled_mad_ms=0.0,
                wall_ms=float(w[f"{mode}_wall_s"]) * 1e3, wall_mad_ms=0.0,
                source="baseline-import"))
    # the trace gate's per-row Table 2 timings (one config per row, one
    # entry per executor mode) — the speedup ledger the gate refers to
    for row in doc.get("trace_executor", {}).get("rows", []):
        for mode in ("batched", "reference", "trace"):
            entries.append(LedgerEntry(
                sha=sha, recorded_at=now, host="baseline-import",
                config=f"trace:{row['config']}", pipeline="default",
                executor=mode, reps=reps,
                modeled_ms=float(row["modeled_ms"]), modeled_mad_ms=0.0,
                wall_ms=float(row[f"{mode}_wall_s"]) * 1e3,
                wall_mad_ms=0.0, source="baseline-import"))
    for row in doc.get("pass_pipeline", {}).get("configs", []):
        for pipe in ("minimal", "optimized"):
            entries.append(LedgerEntry(
                sha=sha, recorded_at=now, host="baseline-import",
                config=f"passes:{row['config']}", pipeline=pipe,
                executor="batched", reps=1,
                modeled_ms=float(row[f"{pipe}_ms"]), modeled_mad_ms=0.0,
                wall_ms=None, wall_mad_ms=None, source="baseline-import"))
    return entries


# -- the regression detector ----------------------------------------------

@dataclass(frozen=True)
class Verdict:
    """The detector's finding for one config key."""

    config: str
    pipeline: str
    executor: str
    metric: str           # "modeled" | "wall"
    status: str           # "ok" | "regression" | "improvement" | "skipped"
    baseline: float | None
    current: float | None
    band: float | None
    delta_pct: float | None
    note: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def _metric_of(e: LedgerEntry, metric: str):
    if metric == "modeled":
        return e.modeled_ms, e.modeled_mad_ms
    return e.wall_ms, e.wall_mad_ms


def detect(entries: list[LedgerEntry], *, metric: str = "modeled",
           k: float = DEFAULT_K, floor: float = DEFAULT_FLOOR,
           against: str = "baseline") -> list[Verdict]:
    """Compare the latest entry per key against its baseline entry.

    ``against="baseline"`` anchors on each key's *first* entry (an
    imported baseline when present), so slow drift cannot creep in one
    tolerated step at a time; ``against="previous"`` compares
    consecutive entries instead.  Wall-clock comparisons require
    matching ``host`` fingerprints — cross-machine wall deltas are
    reported ``skipped``, never flagged.
    """
    if metric not in ("modeled", "wall"):
        raise ValueError(f"unknown metric {metric!r}")
    groups: dict[tuple, list[LedgerEntry]] = {}
    for e in entries:
        groups.setdefault(e.key, []).append(e)

    verdicts: list[Verdict] = []
    for key in sorted(groups):
        group = groups[key]
        cur = group[-1]
        if against == "previous" and len(group) >= 2:
            base = group[-2]
        else:
            imported = [e for e in group if e.source == "baseline-import"]
            base = imported[0] if imported else group[0]
        config, pipeline, executor = key

        def verdict(status, b=None, c=None, band=None, note=""):
            delta = (None if not b or c is None
                     else round((c - b) / b * 100.0, 2))
            return Verdict(config=config, pipeline=pipeline,
                           executor=executor, metric=metric, status=status,
                           baseline=b, current=c, band=band,
                           delta_pct=delta, note=note)

        if cur is base:
            verdicts.append(verdict(
                "skipped", note="single entry; record again to compare"))
            continue
        b, b_mad = _metric_of(base, metric)
        c, _ = _metric_of(cur, metric)
        if b is None or c is None:
            verdicts.append(verdict(
                "skipped", note=f"{metric} not recorded on both entries"))
            continue
        if metric == "wall" and base.host != cur.host:
            verdicts.append(verdict(
                "skipped", b, c,
                note=f"hosts differ ({base.host} vs {cur.host}); "
                     "wall times are not comparable"))
            continue
        band = max(k * (b_mad or 0.0), floor * b)
        if c > b + band:
            verdicts.append(verdict("regression", b, c, band,
                                    note=f"median left the noise band "
                                         f"(+{(c - b) / b:.1%})"))
        elif c < b - band:
            verdicts.append(verdict("improvement", b, c, band))
        else:
            verdicts.append(verdict("ok", b, c, band))
    return verdicts


# -- reporting ------------------------------------------------------------

_SPARKS = "▁▂▃▄▅▆▇█"


def _sparkline(values: list[float]) -> str:
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if hi <= lo:
        return _SPARKS[0] * len(values)
    return "".join(_SPARKS[int((v - lo) / (hi - lo) * (len(_SPARKS) - 1))]
                   for v in values)


def _series(entries: list[LedgerEntry], metric: str):
    """key → chronological list of (sha, value) with the metric present."""
    out: dict[tuple, list[tuple[str, float]]] = {}
    for e in entries:
        v, _ = _metric_of(e, metric)
        if v is not None:
            out.setdefault(e.key, []).append((e.sha, v))
    return out


def format_report(entries: list[LedgerEntry], *, metric: str = "modeled",
                  k: float = DEFAULT_K,
                  floor: float = DEFAULT_FLOOR) -> str:
    """Markdown trend report: one row per config key."""
    verdicts = {(v.config, v.pipeline, v.executor): v
                for v in detect(entries, metric=metric, k=k, floor=floor)}
    series = _series(entries, metric)
    lines = [
        f"# Perf observatory — {metric} ms per config",
        "",
        f"{len(entries)} ledger entries, {len(series)} config keys; "
        f"band = max({k:g}·MAD, {floor:.0%}·baseline).",
        "",
        "| config | pipeline | executor | trend | baseline | latest "
        "| Δ% | verdict |",
        "|---|---|---|---|---:|---:|---:|---|",
    ]
    for key in sorted(series):
        config, pipeline, executor = key
        vals = [v for _, v in series[key]]
        v = verdicts.get(key)
        status = v.status if v else "?"
        mark = {"regression": "**REGRESSION**",
                "improvement": "improvement"}.get(status, status)
        base = f"{v.baseline:.4f}" if v and v.baseline is not None else "-"
        curr = f"{v.current:.4f}" if v and v.current is not None else \
            (f"{vals[-1]:.4f}" if vals else "-")
        delta = (f"{v.delta_pct:+.1f}" if v and v.delta_pct is not None
                 else "-")
        lines.append(f"| {config} | {pipeline} | {executor} "
                     f"| `{_sparkline(vals)}` | {base} | {curr} "
                     f"| {delta} | {mark} |")
    return "\n".join(lines)


def render_html(entries: list[LedgerEntry], *, metric: str = "modeled",
                k: float = DEFAULT_K, floor: float = DEFAULT_FLOOR) -> str:
    """Self-contained HTML dashboard (inline SVG trend per config)."""
    verdicts = {(v.config, v.pipeline, v.executor): v
                for v in detect(entries, metric=metric, k=k, floor=floor)}
    series = _series(entries, metric)
    status_color = {"regression": "#c0392b", "improvement": "#1e8449",
                    "ok": "#566573", "skipped": "#aab7b8"}

    def svg(points: list[tuple[str, float]]) -> str:
        vals = [v for _, v in points]
        w, h, pad = 220, 48, 4
        lo, hi = min(vals), max(vals)
        span = (hi - lo) or 1.0
        n = len(vals)
        xs = [pad + i * (w - 2 * pad) / max(1, n - 1) for i in range(n)]
        ys = [h - pad - (v - lo) / span * (h - 2 * pad) for v in vals]
        pts = " ".join(f"{x:.1f},{y:.1f}" for x, y in zip(xs, ys))
        dots = "".join(
            f'<circle cx="{x:.1f}" cy="{y:.1f}" r="2.5">'
            f'<title>{sha}: {v:.5f} ms</title></circle>'
            for x, y, (sha, v) in zip(xs, ys, points))
        line = (f'<polyline points="{pts}" fill="none" '
                'stroke="currentColor" stroke-width="1.5"/>'
                if n > 1 else "")
        return (f'<svg width="{w}" height="{h}" '
                f'viewBox="0 0 {w} {h}">{line}{dots}</svg>')

    rows = []
    for key in sorted(series):
        config, pipeline, executor = key
        v = verdicts.get(key)
        status = v.status if v else "?"
        color = status_color.get(status, "#000")
        curr = (f"{v.current:.4f}" if v and v.current is not None
                else f"{series[key][-1][1]:.4f}")
        delta = (f"{v.delta_pct:+.1f}%" if v and v.delta_pct is not None
                 else "—")
        rows.append(
            "<tr>"
            f"<td><code>{config}</code></td><td>{pipeline}</td>"
            f"<td>{executor}</td><td>{svg(series[key])}</td>"
            f"<td class='num'>{curr}</td><td class='num'>{delta}</td>"
            f"<td style='color:{color};font-weight:600'>{status}</td>"
            "</tr>")
    return f"""<!doctype html>
<html><head><meta charset="utf-8">
<title>repro perf observatory — {metric} trends</title>
<style>
 body {{ font: 14px/1.5 system-ui, sans-serif; margin: 2rem; }}
 table {{ border-collapse: collapse; }}
 th, td {{ padding: .35rem .8rem; border-bottom: 1px solid #ddd;
           text-align: left; vertical-align: middle; }}
 td.num {{ text-align: right; font-variant-numeric: tabular-nums; }}
 svg {{ color: #2e86c1; display: block; }}
 code {{ background: #f4f6f6; padding: 0 .25rem; }}
</style></head><body>
<h1>Perf observatory — {metric} ms per config</h1>
<p>{len(entries)} ledger entries · {len(series)} config keys ·
band = max({k:g}·MAD, {floor:.0%}·baseline)</p>
<table><thead><tr><th>config</th><th>pipeline</th><th>executor</th>
<th>trend</th><th>latest</th><th>Δ%</th><th>verdict</th></tr></thead>
<tbody>
{chr(10).join(rows)}
</tbody></table></body></html>
"""
