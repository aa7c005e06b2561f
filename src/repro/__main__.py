"""Compiler driver CLI.

Usage examples::

    # inspect the compilation pipeline of an OpenACC source file;
    # --dump-ir prints each pass's before/after IR listings
    python -m repro compile examples/programs/vecsum.c --dump-ir \\
        --dump-plan --dump-kernels

    # per-pass timing/notes and the autotuner's cost-model decisions;
    # --ir adds before/after diffs for every pass that changed the IR
    python -m repro explain examples/programs/vecsum.c
    python -m repro explain examples/programs/vecsum.c --ir \\
        --pipeline optimized

    # compile and run, synthesizing input data
    python -m repro run examples/programs/vecsum.c \\
        --array "a=arange:1024:float" --compiler vendor-b

    # nvprof-style per-kernel profile (arrays synthesized automatically);
    # --json writes a chrome://tracing-loadable profile document and
    # --lines adds per-statement attribution + annotated listings
    python -m repro profile examples/programs/vecsum.c
    python -m repro profile examples/programs/vecsum.c --json profile.json
    python -m repro profile examples/programs/vecsum.c --lines

    # annotated kernel listings only (per-line %time / transactions /
    # conflicts gutters + roofline verdict); --json dumps the rows
    python -m repro annotate examples/programs/vecsum.c
    python -m repro annotate examples/programs/vecsum.c --json -

    # seeded fault-injection campaign; exit 1 if any fault escapes
    python -m repro faultcheck examples/programs/vecsum.c --seed 0 \\
        --campaign 50

    # regenerate the paper's artifacts
    python -m repro table2 --quick
    python -m repro fig11 --quick
    python -m repro fig12 --quick
    python -m repro ablations --quick

Array specs for ``run``: ``NAME=KIND:SHAPE:CTYPE`` where KIND is ``zeros``,
``ones``, ``arange`` or ``rand`` and SHAPE is ``x``-separated (e.g.
``input=rand:4x8x32:float``), or ``NAME=path/to/file.npy``.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro import acc
from repro.dtypes import ctype_to_dtype
from repro.errors import ReproError

__all__ = ["main"]


def _parse_array_spec(spec: str) -> tuple[str, np.ndarray]:
    if "=" not in spec:
        raise SystemExit(f"bad --array spec {spec!r} (need NAME=...)")
    name, rhs = spec.split("=", 1)
    if rhs.endswith(".npy"):
        return name, np.load(rhs)
    parts = rhs.split(":")
    if len(parts) != 3:
        raise SystemExit(
            f"bad --array spec {spec!r} (need KIND:SHAPE:CTYPE or *.npy)")
    kind, shape_s, ctype = parts
    shape = tuple(int(x) for x in shape_s.split("x"))
    dt = ctype_to_dtype(ctype).np
    n = int(np.prod(shape))
    if kind == "zeros":
        arr = np.zeros(n, dtype=dt)
    elif kind == "ones":
        arr = np.ones(n, dtype=dt)
    elif kind == "arange":
        arr = np.arange(n).astype(dt)
    elif kind == "rand":
        arr = (np.random.default_rng(0).random(n) * 8).astype(dt)
    else:
        raise SystemExit(f"unknown array kind {kind!r}")
    return name, arr.reshape(shape)


def _render_pass_table(prog) -> str:
    """One line per pass: changed-marker, name, kind, wall time, note."""
    lines = [f"pipeline {prog.pipeline!r}"]
    for rec in prog.pass_records:
        mark = "*" if rec.changed else " "
        note = f"  {rec.note}" if rec.note else ""
        lines.append(f"  {mark} {rec.name:<18} {rec.kind:<9} "
                     f"{rec.wall_ms:7.2f} ms{note}")
    if any(r.changed for r in prog.pass_records):
        lines.append("  (* = pass changed the IR listing)")
    return "\n".join(lines)


def _render_pass_ir(prog) -> str:
    """Before/after listings for every pass that changed the IR.

    A listing a pass introduces (the region after build-ir, the kernels
    after lowering) prints in full; a listing a pass rewrote prints as a
    unified diff so barrier elimination or fusion reads at a glance.
    """
    import difflib
    out = []
    for rec in prog.pass_records:
        if not rec.changed:
            continue
        out.append(f"== pass {rec.name} " + "=" * max(1, 56 - len(rec.name)))
        for nm in sorted(set(rec.before) | set(rec.after)):
            before, after = rec.before.get(nm), rec.after.get(nm)
            if before == after:
                continue
            if before is None:
                out.append(f"-- {nm} (new)")
                out.append(after.rstrip())
            elif after is None:
                out.append(f"-- {nm} (removed)")
            else:
                out.append("\n".join(difflib.unified_diff(
                    before.splitlines(), after.splitlines(),
                    fromfile=f"{nm} before {rec.name}",
                    tofile=f"{nm} after {rec.name}", lineterm="")))
        out.append("")
    return "\n".join(out).rstrip()


def _render_autotune(prog) -> str:
    if not prog.autotune:
        return ("autotune: no decisions (pass not in this pipeline, or no "
                "tunable reductions)")
    lines = ["autotune decisions:"]
    for var, rec in sorted(prog.autotune.items()):
        if "skipped" in rec:
            lines.append(f"  {var}: skipped -- {rec['skipped']}")
            continue
        for fld, dec in sorted(rec.items()):
            est = ", ".join(f"{c}={us:.3f}us" for c, us
                            in dec["estimates_us"].items())
            tag = ("" if dec["choice"] == dec["default"]
                   else f"  (profile default: {dec['default']})")
            lines.append(f"  {var}.{fld} = {dec['choice']}{tag}")
            lines.append(f"    modeled: {est}")
    return "\n".join(lines)


def _compile_from_args(args, *, capture_ir=False, profiler=None):
    source = open(args.file).read()
    return acc.compile(source, compiler=args.compiler,
                       num_gangs=args.num_gangs,
                       num_workers=args.num_workers,
                       vector_length=args.vector_length,
                       pipeline=args.pipeline, capture_ir=capture_ir,
                       profiler=profiler)


def _cmd_compile(args) -> int:
    from repro.ir.pprint import format_plan

    prog = _compile_from_args(args, capture_ir=args.dump_ir)
    geom = prog.lowered.geometry
    if args.dump_ir:
        print(_render_pass_table(prog))
        dumps = _render_pass_ir(prog)
        if dumps:
            print()
            print(dumps)
        print()
    if args.dump_plan:
        print(format_plan(prog.lowered.plan))
        print()
    print(f"compiled with profile {prog.profile.name!r} "
          f"(pipeline {prog.pipeline!r}): "
          f"{len(prog.lowered.kernels)} kernel(s), geometry "
          f"{geom.num_gangs}x{geom.num_workers}x{geom.vector_length}")
    if args.dump_kernels:
        print()
        print(prog.dump_kernels())
    return 0


def _cmd_explain(args) -> int:
    prog = _compile_from_args(args, capture_ir=True)
    geom = prog.lowered.geometry
    print(f"profile {prog.profile.name!r}, geometry "
          f"{geom.num_gangs}x{geom.num_workers}x{geom.vector_length}, "
          f"{len(prog.lowered.kernels)} kernel(s): "
          f"{', '.join(k.name for k in prog.lowered.kernels)}")
    print()
    print(_render_pass_table(prog))
    print()
    print(_render_autotune(prog))
    if args.ir:
        dumps = _render_pass_ir(prog)
        if dumps:
            print()
            print(dumps)
    return 0


def _parse_run_inputs(args) -> dict:
    kwargs: dict = {}
    for spec in args.array or []:
        name, arr = _parse_array_spec(spec)
        kwargs[name] = arr
    for spec in args.scalar or []:
        name, val = spec.split("=", 1)
        kwargs[name] = float(val) if "." in val else int(val)
    return kwargs


def _timeline_scope(args):
    """``--timeline PATH`` / ``--trace-requests``: an installed bus (and,
    for request tracing, a tracer) scoped to the command's duration."""
    import contextlib

    from repro.obs import timeline as tl
    want_bus = bool(getattr(args, "timeline", None))
    want_trace = bool(getattr(args, "trace_requests", False))
    if not (want_bus or want_trace):
        return contextlib.nullcontext()
    stack = contextlib.ExitStack()
    stack.enter_context(tl.enabled())
    if want_trace:
        from repro.obs import trace as _trace
        stack.enter_context(_trace.tracing())
    return stack


def _export_timeline(args, bus) -> None:
    if getattr(args, "timeline", None) and bus is not None:
        from repro.obs import timeline as tl
        if args.timeline == "-":
            sys.stdout.write(bus.to_jsonl())
        else:
            bus.export_jsonl(args.timeline)
            st = bus.stats()
            print(f"timeline: {st['emitted']} event(s) "
                  f"({st['dropped']} dropped) written to {args.timeline}",
                  file=sys.stderr)


def _cmd_run(args) -> int:
    from repro.obs import timeline as _tl

    profiler = None
    if args.profile:
        from repro.obs import Profiler
        profiler = Profiler()
    with _timeline_scope(args):
        prog = _compile_from_args(args, profiler=profiler)
        kwargs = _parse_run_inputs(args)
        res = prog.run(acc.RunOptions(profiler=profiler), **kwargs)
        _export_timeline(args, _tl.current())
    for name, value in res.scalars.items():
        print(f"scalar {name} = {value}")
    for name, arr in res.outputs.items():
        flat = arr.ravel()
        head = ", ".join(f"{v}" for v in flat[:6])
        print(f"array  {name}: shape {arr.shape}, [{head}"
              f"{', ...' if flat.size > 6 else ''}]")
        if args.save:
            np.save(f"{name}.npy", arr)
            print(f"       saved to {name}.npy")
    print(f"modeled: {res.modeled_ms:.3f} ms total "
          f"({res.kernel_ms:.3f} ms kernels)")
    if profiler is not None:
        from repro.obs.report import format_profile
        print()
        print(format_profile(profiler, ledger=res.ledger))
    return 0


def _write_profile_json(args, profiler, *, report_to,
                        truncated_by: BaseException | None = None) -> None:
    """Write ``--json`` profile output; used on both success and failure.

    When a run dies mid-flight the partial trace is still worth having —
    it shows exactly how far execution got — so the error path writes
    whatever was captured and stamps the document ``truncated``.
    """
    if not args.json:
        return
    doc = profiler.to_json(indent=2, truncated_by=truncated_by)
    if args.json == "-":
        print(doc)
        return
    with open(args.json, "w") as f:
        f.write(doc)
    suffix = (" (truncated: run failed mid-flight)" if truncated_by
              else "")
    print(f"profile written to {args.json}{suffix}", file=report_to)


def _cmd_profile(args) -> int:
    from repro.faults.campaign import synthesize_inputs
    from repro.obs import Profiler
    from repro.obs import timeline as _tl
    from repro.obs.report import format_profile

    profiler = Profiler()
    # with --json - the profile document owns stdout; report goes to stderr
    report_to = sys.stderr if args.json == "-" else sys.stdout
    with _timeline_scope(args):
        prog = _compile_from_args(args, profiler=profiler)
        kwargs = _parse_run_inputs(args)
        synthesize_inputs(prog, kwargs, args.size)
        opts = acc.RunOptions(profiler=profiler, trace=args.trace,
                              attribution=args.lines)
        res = None
        try:
            for _ in range(max(1, args.runs)):
                res = prog.run(opts, **kwargs)
        except ReproError as exc:
            # flush the partial trace before the error surfaces: a failed
            # run is precisely when the profile is most wanted
            _write_profile_json(args, profiler, report_to=report_to,
                                truncated_by=exc)
            _export_timeline(args, _tl.current())
            raise
        _export_timeline(args, _tl.current())

    for name, value in res.scalars.items():
        print(f"scalar {name} = {value}", file=report_to)
    print(format_profile(profiler, ledger=res.ledger), file=report_to)
    _write_profile_json(args, profiler, report_to=report_to)
    return 0


def _cmd_annotate(args) -> int:
    from repro.faults.campaign import synthesize_inputs
    from repro.obs import Profiler, annotate_record, record_rows
    from repro.obs.report import _first_attributed

    profiler = Profiler()
    prog = _compile_from_args(args)
    kwargs = _parse_run_inputs(args)
    synthesize_inputs(prog, kwargs, args.size)
    prog.run(acc.RunOptions(profiler=profiler, attribution=True), **kwargs)

    records = _first_attributed(profiler.kernels)
    # with --json - the rows document owns stdout; listing goes to stderr
    report_to = sys.stderr if args.json == "-" else sys.stdout
    print("\n\n".join(annotate_record(r) for r in records), file=report_to)
    if args.json:
        import json
        doc = json.dumps({"kernels": [
            {"kernel": r.name,
             "executor": r.executor,
             "roofline": r.roofline().to_dict(),
             "statements": record_rows(r)}
            for r in records]}, indent=2)
        if args.json == "-":
            print(doc)
        else:
            with open(args.json, "w") as f:
                f.write(doc + "\n")
            print(f"attribution written to {args.json}", file=report_to)
    return 0


def _cmd_faultcheck(args) -> int:
    from repro.faults import run_campaign
    from repro.obs import timeline as _tl

    source = open(args.file).read()
    # modest default geometry: a fault campaign runs the program hundreds
    # of times (trials × voting replicas), so the full paper geometry
    # (192×8×128) would be needlessly slow for a robustness check
    num_gangs = args.num_gangs if args.num_gangs is not None else 8
    num_workers = args.num_workers if args.num_workers is not None else 2
    vector_length = (args.vector_length if args.vector_length is not None
                     else 32)
    detect = not args.no_detect
    with _timeline_scope(args):
        result = run_campaign(source, seed=args.seed, trials=args.campaign,
                              compiler=args.compiler, num_gangs=num_gangs,
                              num_workers=num_workers,
                              vector_length=vector_length, detect=detect,
                              size=args.size,
                              watchdog_budget=args.watchdog_budget,
                              pipeline=args.pipeline)
        _export_timeline(args, _tl.current())
    if args.json:
        import json
        doc = json.dumps(result.to_dict(), indent=2)
        if args.json == "-":
            print(doc)
        else:
            with open(args.json, "w") as f:
                f.write(doc + "\n")
            print(f"campaign written to {args.json}", file=sys.stderr)
    if args.json != "-":
        print(result.table())
    if detect and result.escaped:
        # per-kind gate: name every kind that escaped, so a regression in
        # one hardening path is attributable straight from the CI log
        for kind, n in sorted(result.escaped_by_kind.items()):
            print(f"FAIL: {n} {kind} fault(s) escaped with detection on",
                  file=sys.stderr)
        return 1
    return 0


def _serve_config_from_args(args):
    from repro.serve import ServeConfig
    return ServeConfig(
        queue_depth=args.queue_depth,
        default_deadline_s=args.deadline,
        hedge_after_s=args.hedge_after,
        max_tries=args.max_tries,
        runs=args.runs, max_attempts=args.max_attempts,
        degrade=args.degrade,
        watchdog_budget=args.watchdog_budget,
        slo=dict(objective_ms=args.slo_objective_ms,
                 target=args.slo_target))


def _write_json(doc: dict, path: str | None, label: str) -> None:
    if not path:
        return
    import json
    text = json.dumps(doc, indent=2, default=str)
    if path == "-":
        print(text)
    else:
        with open(path, "w") as f:
            f.write(text + "\n")
        print(f"{label} written to {path}", file=sys.stderr)


def _cmd_serve(args) -> int:
    """JSONL request/response service over a device pool.

    Each input line is one request object: ``{"id": ..., "source": ...
    or "file": ..., "arrays": {NAME: SPEC}, "scalars": {...},
    "priority": 0|1, "deadline_s": ...}`` (array SPECs use the same
    ``KIND:SHAPE:CTYPE`` / ``*.npy`` forms as ``run --array``).  One
    JSON verdict is written per line, in completion order.
    """
    import asyncio
    import json as _json

    from repro.obs import timeline as _tl
    from repro.serve import (CompileCache, ComputeRequest, DevicePool,
                             Scheduler)

    cfg = _serve_config_from_args(args)
    cache = CompileCache(args.cache_dir) if args.cache_dir else None
    out = sys.stdout if args.output == "-" else open(args.output, "w")

    def to_request(i, doc):
        source = doc.get("source")
        if source is None:
            source = open(doc["file"]).read()
        arrays = {}
        for name, spec in (doc.get("arrays") or {}).items():
            _, arr = _parse_array_spec(f"{name}={spec}")
            arrays[name] = arr
        return ComputeRequest(
            id=str(doc.get("id", f"req-{i:04d}")), source=source,
            compiler=doc.get("compiler", "openuh"),
            pipeline=doc.get("pipeline"),
            num_gangs=doc.get("num_gangs"),
            num_workers=doc.get("num_workers"),
            vector_length=doc.get("vector_length"),
            arrays=arrays, scalars=doc.get("scalars") or {},
            priority=int(doc.get("priority", 1)),
            deadline_s=doc.get("deadline_s"),
            run_opts=doc.get("run_opts") or {})

    async def _serve():
        requests = []
        with (sys.stdin if args.requests == "-"
              else open(args.requests)) as f:
            for i, line in enumerate(f):
                line = line.strip()
                if line:
                    requests.append(to_request(i, _json.loads(line)))
        async with Scheduler(DevicePool(args.devices), cfg,
                             cache=cache) as sched:
            tasks = [sched.submit_nowait(r) for r in requests]
            for fut in asyncio.as_completed(tasks):
                res = await fut
                doc = res.to_dict()
                if res.outputs and args.save_outputs:
                    for name, arr in res.outputs.items():
                        np.save(f"{res.id}.{name}.npy", arr)
                        doc.setdefault("saved", []).append(
                            f"{res.id}.{name}.npy")
                out.write(_json.dumps(doc) + "\n")
                out.flush()
            return sched.report()

    with _timeline_scope(args):
        report = asyncio.run(_serve())
        _export_timeline(args, _tl.current())
    if out is not sys.stdout:
        out.close()
    _write_json(report, args.report, "serve report")
    failed = sum(n for s, n in report["by_status"].items() if s != "ok")
    print(f"served {report['requests']} request(s): "
          f"{report['by_status']}", file=sys.stderr)
    if args.status:
        from repro.obs.slo import format_slo
        print(format_slo(report["slo"]), file=sys.stderr)
    return 1 if (args.strict and failed) else 0


def _cmd_loadgen(args) -> int:
    """Synthetic load (and, with --chaos, the soak gate) over the serve
    layer; see :mod:`repro.serve.loadgen` / :mod:`repro.serve.soak`."""
    import tempfile

    from repro.obs import timeline as _tl

    cache_dir = args.cache_dir
    tmp = None
    if not cache_dir:
        tmp = tempfile.TemporaryDirectory(prefix="repro-serve-cache-")
        cache_dir = tmp.name
    try:
        with _timeline_scope(args):
            if args.chaos:
                from repro.serve import SoakConfig, run_soak
                report = run_soak(cache_dir, SoakConfig(
                    n_requests=args.requests, n_devices=args.devices,
                    seed=args.seed, size=args.size,
                    deadline_s=args.deadline,
                    stagger_s=args.stagger,
                    queue_depth=args.queue_depth,
                    hedge_after_s=args.hedge_after,
                    slo=dict(objective_ms=args.slo_objective_ms,
                             target=args.slo_target)))
            else:
                from repro.serve import run_loadgen
                report = run_loadgen(
                    cache_dir, n_requests=args.requests,
                    n_devices=args.devices, seed=args.seed,
                    size=args.size, deadline_s=args.deadline,
                    stagger_s=args.stagger,
                    config=_serve_config_from_args(args),
                    warm_pass=not args.no_warm)
            _export_timeline(args, _tl.current())
    finally:
        if tmp is not None:
            tmp.cleanup()
    _write_json(report, args.json, "loadgen report")

    if args.status:
        from repro.obs.slo import format_slo
        snap = report.get("slo")
        if snap is None:  # non-chaos: per-wave snapshots; show the last
            waves = report.get("waves") or {}
            for stats in waves.values():
                snap = stats.get("slo")
        if snap is not None:
            print(format_slo(snap), file=sys.stderr)

    if args.chaos:
        gate = report["gate"]
        for c in gate["checks"]:
            mark = "ok  " if c["passed"] else "FAIL"
            print(f"  {mark} {c['name']:<20} {c['detail']}",
                  file=sys.stderr)
        print(f"soak gate: {'PASSED' if gate['passed'] else 'FAILED'} "
              f"({report['by_status']})", file=sys.stderr)
        return 0 if gate["passed"] else 1
    # fault-free loadgen gates: nothing escaped, and (with a warm pass)
    # the persistent cache measurably beat the cold compile path
    rc = 0
    for wave, stats in report["waves"].items():
        v = stats["verify"]
        print(f"  {wave}: {stats['by_status']} "
              f"p50 {stats['latency_p50_us'] / 1e3:.1f}ms "
              f"compile-p50 {stats['compile_p50_us'] / 1e3:.1f}ms "
              f"escaped {v['escaped_count']}", file=sys.stderr)
        if v["escaped_count"] or v["untyped_failures"]:
            rc = 1
    if not args.no_warm:
        # paired statistic: cold misses vs warm disk hits of the same
        # programs (most cold compiles are memo hits, so the per-wave
        # p50s would compare the memo path with itself)
        paired = report["paired_compile"]
        speedup = paired["speedup_p50"]
        print(f"  warm compile p50 speedup: {speedup}x "
              f"(cold miss {paired['cold_miss_p50_us'] / 1e3:.1f}ms vs "
              f"warm disk hit {paired['warm_hit_p50_us'] / 1e3:.1f}ms "
              f"over {paired['programs']} programs)", file=sys.stderr)
        if not speedup or speedup <= 1.0:
            print("FAIL: warm pass no faster than cold", file=sys.stderr)
            rc = 1
    return rc


def _parse_perturb(specs) -> dict[str, float]:
    out = {}
    for spec in specs or []:
        if ":" not in spec:
            raise SystemExit(
                f"bad --perturb spec {spec!r} (need CONFIG:FACTOR, e.g. "
                "table2_quick:1.2)")
        label, factor = spec.rsplit(":", 1)
        out[label] = float(factor)
    return out


def _cmd_obs(args) -> int:
    from repro.bench import history as H

    if args.obs_cmd == "record":
        if args.import_baseline:
            entries = H.import_baseline(args.import_baseline)
            H.append_entries(args.ledger, entries)
            print(f"imported {len(entries)} baseline entr"
                  f"{'y' if len(entries) == 1 else 'ies'} from "
                  f"{args.import_baseline} into {args.ledger}",
                  file=sys.stderr)
            return 0
        from repro.obs import timeline as tl
        with tl.enabled():
            entries = H.measure(reps=args.reps, quick=args.quick,
                                perturb=_parse_perturb(args.perturb))
            bus = tl.current()
            if args.timeline:
                bus.export_jsonl(args.timeline)
        H.append_entries(args.ledger, entries)
        for e in entries:
            wall = f"{e.wall_ms:9.2f}" if e.wall_ms is not None else \
                "        -"
            print(f"  {e.config:<42} {e.pipeline:<9} {e.executor:<9} "
                  f"modeled {e.modeled_ms:9.4f} ms  wall {wall} ms",
                  file=sys.stderr)
        print(f"recorded {len(entries)} entries @ {entries[0].sha} "
              f"into {args.ledger}", file=sys.stderr)
        return 0

    entries = H.load_ledger(args.ledger)

    if args.obs_cmd == "compare":
        metrics = (["modeled", "wall"] if args.metric == "both"
                   else [args.metric])
        regressions = 0
        for metric in metrics:
            for v in H.detect(entries, metric=metric, k=args.k,
                              floor=args.floor, against=args.against):
                mark = {"regression": "REGRESSION", "improvement":
                        "improvement", "ok": "ok", "skipped": "skipped"}[
                            v.status]
                delta = (f"{v.delta_pct:+.1f}%"
                         if v.delta_pct is not None else "-")
                note = f"  ({v.note})" if v.note else ""
                print(f"  {metric:<7} {v.config:<42} {v.pipeline:<9} "
                      f"{v.executor:<9} {mark:<11} {delta:>8}{note}")
                regressions += v.status == "regression"
        if regressions:
            print(f"FAIL: {regressions} config(s) regressed beyond the "
                  "noise band", file=sys.stderr)
            return 1
        print("[observatory ok: no regressions]", file=sys.stderr)
        return 0

    if args.obs_cmd == "report":
        if args.format == "html":
            doc = H.render_html(entries, metric=args.metric, k=args.k,
                                floor=args.floor)
        else:
            doc = H.format_report(entries, metric=args.metric, k=args.k,
                                  floor=args.floor) + "\n"
        if args.out:
            with open(args.out, "w") as f:
                f.write(doc)
            print(f"report written to {args.out}", file=sys.stderr)
        else:
            sys.stdout.write(doc)
        return 0

    raise SystemExit(f"unknown obs subcommand {args.obs_cmd!r}")


def _cmd_obs_events(args) -> int:
    """Filter/pretty-print a timeline JSONL export."""
    import json
    shown = 0
    with open(args.file) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            ev = json.loads(line)
            if "category" not in ev:
                continue  # the export's header record
            if args.category and ev.get("category") != args.category:
                continue
            if args.kind and ev.get("kind") != args.kind:
                continue
            if args.grep and args.grep not in line:
                continue
            attrs = ev.get("attrs") or {}
            extra = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
            dur = (f" {ev['dur_us']:.1f}us"
                   if ev.get("dur_us") else "")
            print(f"[{ev['ts_us']:>12.1f}] {ev['category']:<7} "
                  f"{ev['kind']:<8} {ev['name']}{dur}"
                  f"{'  ' + extra if extra else ''}")
            shown += 1
            if args.limit and shown >= args.limit:
                break
    print(f"[{shown} event(s)]", file=sys.stderr)
    return 0


def _cmd_obs_trace(args) -> int:
    """Assemble request traces from a timeline export and render them."""
    import json as _json

    from repro.obs import timeline as tl
    from repro.obs import trace as _trace

    header, events = tl.read_jsonl(args.file)
    trees = _trace.assemble(events)
    if not trees:
        print("no traced events in this export (was it produced with "
              "--trace-requests?)", file=sys.stderr)
        return 1
    if header and (header.get("dropped") or header.get("sampled_out")):
        print(f"note: export is truncated ({header.get('dropped', 0)} "
              f"ring-dropped, {header.get('sampled_out', 0)} sampled-out "
              "event(s)) — trees may be partial", file=sys.stderr)

    verdict = _trace.verify_request_traces(trees)
    if args.check:
        for p in verdict["problems"]:
            print(f"FAIL: {p}", file=sys.stderr)
        slow = verdict["slowest"]
        if slow is not None:
            print(f"slowest request {slow['trace_id']}: "
                  f"{slow['dur_us'] / 1e3:.1f} ms, critical path "
                  f"{' -> '.join(slow['critical_path'])}",
                  file=sys.stderr)
        print(f"checked {verdict['requests']} request trace(s): "
              f"{'ok' if verdict['ok'] else 'FAILED'}", file=sys.stderr)
        return 0 if verdict["ok"] else 1

    if args.id:
        if args.id not in trees:
            known = ", ".join(str(t) for t in list(trees)[:10])
            print(f"error: no trace {args.id!r} in {args.file} "
                  f"(have: {known}{', ...' if len(trees) > 10 else ''})",
                  file=sys.stderr)
            return 1
        chosen = [args.id]
    elif args.all:
        chosen = list(trees)
    else:
        # default: the slowest request trace (else the first trace)
        slow = verdict["slowest"]
        chosen = [slow["trace_id"]] if slow else [next(iter(trees))]

    if args.chrome:
        if len(chosen) != 1:
            print("error: --chrome exports exactly one trace (use --id)",
                  file=sys.stderr)
            return 1
        doc = _trace.tree_to_chrome(trees[chosen[0]])
        with open(args.chrome, "w") as f:
            _json.dump(doc, f, indent=2, default=str)
        print(f"chrome trace for {chosen[0]} written to {args.chrome}",
              file=sys.stderr)

    for tid in chosen:
        print(_trace.render_tree(trees[tid]))
        print()
    print(f"[{len(chosen)}/{len(trees)} trace(s) shown]", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro",
        description="OpenACC reduction compiler + simulated GPU "
                    "(PMAM'14 reproduction)")
    ap.add_argument("--debug", action="store_true",
                    help="re-raise errors with a full traceback instead "
                         "of the one-line message")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add_common(p):
        p.add_argument("file", help="OpenACC source fragment")
        p.add_argument("--compiler", default="openuh",
                       choices=["openuh", "vendor-a", "vendor-b",
                                "caps-like", "pgi-like"])
        p.add_argument("--num-gangs", type=int, default=None)
        p.add_argument("--num-workers", type=int, default=None)
        p.add_argument("--vector-length", type=int, default=None)
        p.add_argument("--pipeline", default=None, metavar="NAME",
                       help="pass pipeline: 'minimal', 'optimized', or a "
                            "comma list of optimization passes (default: "
                            "REPRO_PASSES env, then the profile's choice)")
        # default=SUPPRESS so a subcommand without --debug does not
        # clobber a top-level `python -m repro --debug <cmd>`
        p.add_argument("--debug", action="store_true",
                       default=argparse.SUPPRESS, help=argparse.SUPPRESS)

    pc = sub.add_parser("compile", help="compile and inspect")
    add_common(pc)
    pc.add_argument("--dump-ir", action="store_true",
                    help="print the pass table and before/after IR for "
                         "every pass that changed it")
    pc.add_argument("--dump-plan", action="store_true")
    pc.add_argument("--dump-kernels", action="store_true")

    pe = sub.add_parser(
        "explain",
        help="show the pass pipeline: per-pass timing/notes and the "
             "autotuner's cost-model strategy decisions")
    add_common(pe)
    pe.add_argument("--ir", action="store_true",
                    help="also print before/after IR diffs per pass")

    pr = sub.add_parser("run", help="compile and execute")
    add_common(pr)
    pr.add_argument("--array", action="append",
                    help="NAME=KIND:SHAPE:CTYPE or NAME=file.npy")
    pr.add_argument("--scalar", action="append", help="NAME=VALUE")
    pr.add_argument("--save", action="store_true",
                    help="save output arrays to NAME.npy")
    pr.add_argument("--profile", action="store_true",
                    help="attach a profiler and print the per-kernel "
                         "report after the run")
    pr.add_argument("--timeline", metavar="PATH",
                    help="enable the telemetry bus and export its events "
                         "as JSONL ('-' for stdout)")
    pr.add_argument("--trace-requests", action="store_true",
                    help="request tracing: the run forms one span tree "
                         "in the timeline (inspect with 'obs trace')")

    pp = sub.add_parser(
        "profile", help="compile, run, and print an nvprof-style report")
    add_common(pp)
    pp.add_argument("--array", action="append",
                    help="NAME=KIND:SHAPE:CTYPE or NAME=file.npy "
                         "(missing region arrays are synthesized)")
    pp.add_argument("--scalar", action="append", help="NAME=VALUE")
    pp.add_argument("--size", type=int, default=1024,
                    help="extent for synthesized arrays (default 1024)")
    pp.add_argument("--runs", type=int, default=1,
                    help="launch the program N times into one profile")
    pp.add_argument("--trace", action="store_true",
                    help="also collect per-access structured trace events")
    pp.add_argument("--json", metavar="PATH",
                    help="write the Chrome-trace profile document "
                         "(chrome://tracing loadable; '-' for stdout)")
    pp.add_argument("--lines", action="store_true",
                    help="per-statement attribution: annotated kernel "
                         "listings in the report, statement counter "
                         "tracks and roofline verdicts in the JSON")
    pp.add_argument("--timeline", metavar="PATH",
                    help="enable the telemetry bus and export its events "
                         "as JSONL ('-' for stdout)")
    pp.add_argument("--trace-requests", action="store_true",
                    help="request tracing: each run forms one span tree "
                         "in the timeline (inspect with 'obs trace')")

    pa = sub.add_parser(
        "annotate",
        help="print kernels with per-line %%time/transaction/conflict "
             "gutters and a roofline verdict")
    add_common(pa)
    pa.add_argument("--array", action="append",
                    help="NAME=KIND:SHAPE:CTYPE or NAME=file.npy "
                         "(missing region arrays are synthesized)")
    pa.add_argument("--scalar", action="append", help="NAME=VALUE")
    pa.add_argument("--size", type=int, default=1024,
                    help="extent for synthesized arrays (default 1024)")
    pa.add_argument("--json", metavar="PATH",
                    help="write per-statement rows + roofline verdicts "
                         "as JSON ('-' for stdout)")

    pf = sub.add_parser(
        "faultcheck",
        help="run a seeded fault-injection campaign and classify outcomes")
    add_common(pf)
    pf.add_argument("--seed", type=int, default=0,
                    help="campaign base seed (default 0)")
    pf.add_argument("--campaign", type=int, default=50, metavar="N",
                    help="number of fault trials (default 50)")
    pf.add_argument("--no-detect", action="store_true",
                    help="disable retries, voting and degradation to "
                         "measure the bare escape rate")
    pf.add_argument("--size", type=int, default=256,
                    help="extent for synthesized arrays (default 256)")
    pf.add_argument("--watchdog-budget", type=int, default=20_000,
                    help="per-launch loop-step budget (default 20000)")
    pf.add_argument("--json", metavar="PATH",
                    help="write the campaign document as JSON "
                         "('-' for stdout)")
    pf.add_argument("--timeline", metavar="PATH",
                    help="enable the telemetry bus and export its events "
                         "as JSONL ('-' for stdout)")

    def add_serve_common(p):
        p.add_argument("--devices", type=int, default=4,
                       help="simulated devices in the pool (default 4)")
        p.add_argument("--cache-dir", metavar="DIR",
                       help="persistent compile-cache directory "
                            "(loadgen default: a fresh temp dir)")
        p.add_argument("--queue-depth", type=int, default=64,
                       help="bounded queue per priority class (default 64)")
        p.add_argument("--deadline", type=float, default=30.0,
                       help="default per-request deadline in seconds")
        p.add_argument("--hedge-after", type=float, default=None,
                       metavar="S",
                       help="hedge a still-running request onto an idle "
                            "device after S seconds (default: off)")
        p.add_argument("--max-tries", type=int, default=3,
                       help="cross-device tries per request (default 3)")
        p.add_argument("--runs", type=int, default=1,
                       help="redundant-execution voting replicas per run")
        p.add_argument("--max-attempts", type=int, default=2,
                       help="in-run transient-fault retries (default 2)")
        p.add_argument("--degrade", action="store_true",
                       help="walk the fallback chain on strategy failure")
        p.add_argument("--watchdog-budget", type=int, default=50_000,
                       help="per-launch loop-step budget (default 50000)")
        p.add_argument("--timeline", metavar="PATH",
                       help="enable the telemetry bus and export its "
                            "events as JSONL ('-' for stdout)")
        p.add_argument("--trace-requests", action="store_true",
                       help="request-scoped causal tracing: every request "
                            "gets a span tree in the timeline (inspect "
                            "with 'obs trace')")
        p.add_argument("--slo-objective-ms", type=float, default=1000.0,
                       metavar="MS",
                       help="SLO latency objective in ms (default 1000)")
        p.add_argument("--slo-target", type=float, default=0.99,
                       metavar="FRAC",
                       help="fraction of requests that must be ok within "
                            "the objective (default 0.99)")
        p.add_argument("--status", action="store_true",
                       help="print the SLO monitor snapshot (per-priority "
                            "latency, error-budget burn) after the run")
        p.add_argument("--debug", action="store_true",
                       default=argparse.SUPPRESS, help=argparse.SUPPRESS)

    ps = sub.add_parser(
        "serve",
        help="JSONL compile-and-run service over a simulated device pool")
    ps.add_argument("requests", help="JSONL request file ('-' for stdin)")
    add_serve_common(ps)
    ps.add_argument("--output", default="-", metavar="PATH",
                    help="JSONL verdict stream (default stdout)")
    ps.add_argument("--report", metavar="PATH",
                    help="write the scheduler report as JSON "
                         "('-' for stdout)")
    ps.add_argument("--save-outputs", action="store_true",
                    help="save each ok result's arrays to ID.NAME.npy")
    ps.add_argument("--strict", action="store_true",
                    help="exit 1 if any request was not served ok")

    pl = sub.add_parser(
        "loadgen",
        help="drive the serve layer with synthetic load; --chaos arms "
             "faults mid-load and enforces the soak gate")
    add_serve_common(pl)
    pl.add_argument("--requests", type=int, default=64,
                    help="requests per wave (default 64)")
    pl.add_argument("--seed", type=int, default=0)
    pl.add_argument("--size", type=int, default=256,
                    help="reduction extent per request (default 256)")
    pl.add_argument("--stagger", type=float, default=0.0, metavar="S",
                    help="seconds between submissions (default: burst)")
    pl.add_argument("--chaos", action="store_true",
                    help="chaos soak: arm seeded fault plans on pool "
                         "devices mid-load and gate on zero escapes, "
                         "typed errors, and breaker trip+re-admission")
    pl.add_argument("--no-warm", action="store_true",
                    help="skip the disk-warm second wave")
    pl.add_argument("--json", metavar="PATH",
                    help="write the full report as JSON ('-' for stdout)")

    po = sub.add_parser(
        "obs",
        help="the perf observatory: record/compare/report the bench "
             "history ledger, pretty-print timeline events")
    po.add_argument("--debug", action="store_true",
                    default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    obs_sub = po.add_subparsers(dest="obs_cmd", required=True)

    def add_ledger(p):
        p.add_argument("--ledger", default="artifacts/bench_history.jsonl",
                       metavar="PATH",
                       help="JSONL run ledger (default "
                            "artifacts/bench_history.jsonl)")

    orec = obs_sub.add_parser(
        "record", help="measure the config grid and append to the ledger")
    add_ledger(orec)
    orec.add_argument("--reps", type=int, default=3,
                      help="wall-clock repetitions per config (default 3)")
    orec.add_argument("--quick", action="store_true",
                      help="small sizes/geometry (tests, sanity runs)")
    orec.add_argument("--import-baseline", nargs="?",
                      const="BENCH_table2.json", default=None,
                      metavar="PATH",
                      help="seed the ledger from a committed bench-smoke "
                           "baseline instead of measuring (default "
                           "BENCH_table2.json)")
    orec.add_argument("--perturb", action="append", metavar="CONFIG:FACTOR",
                      help="scale one config's samples (self-test hook, "
                           "e.g. table2_quick:1.2)")
    orec.add_argument("--timeline", metavar="PATH",
                      help="also export the run's telemetry events as "
                           "JSONL")

    ocmp = obs_sub.add_parser(
        "compare",
        help="flag configs whose latest median left the baseline's "
             "noise band (exit 1 on regression)")
    add_ledger(ocmp)
    ocmp.add_argument("--metric", default="modeled",
                      choices=["modeled", "wall", "both"],
                      help="modeled ms (deterministic, cross-machine; "
                           "default), wall ms (same-host only), or both")
    ocmp.add_argument("--k", type=float, default=3.0,
                      help="noise-band width in MADs (default 3)")
    ocmp.add_argument("--floor", type=float, default=0.05,
                      help="relative band floor (default 0.05 = 5%%)")
    ocmp.add_argument("--against", default="baseline",
                      choices=["baseline", "previous"],
                      help="anchor: each key's first entry (default; "
                           "drift-proof) or the previous entry")

    orep = obs_sub.add_parser(
        "report", help="trend report over the ledger (markdown or HTML)")
    add_ledger(orep)
    orep.add_argument("--metric", default="modeled",
                      choices=["modeled", "wall"])
    orep.add_argument("--k", type=float, default=3.0)
    orep.add_argument("--floor", type=float, default=0.05)
    orep.add_argument("--format", default="md", choices=["md", "html"])
    orep.add_argument("--out", metavar="PATH",
                      help="write to PATH instead of stdout")

    oev = obs_sub.add_parser(
        "events", help="filter/pretty-print a timeline JSONL export")
    oev.add_argument("file", help="timeline JSONL (from --timeline PATH)")
    oev.add_argument("--category", help="keep one category (gpu, passes, "
                                        "faults, bench)")
    oev.add_argument("--kind", choices=["span", "counter", "decision",
                                        "fault"])
    oev.add_argument("--grep", metavar="SUBSTR",
                     help="keep events whose JSONL line contains SUBSTR")
    oev.add_argument("--limit", type=int, default=0, metavar="N",
                     help="stop after N events (default: all)")

    otr = obs_sub.add_parser(
        "trace",
        help="assemble request span trees from a timeline export and "
             "render tree + critical path (default: slowest request)")
    otr.add_argument("file", help="timeline JSONL produced with "
                                  "--trace-requests")
    otr.add_argument("--id", metavar="TRACE_ID",
                     help="render one trace (a request id, or tNNNN for "
                          "top-level runs)")
    otr.add_argument("--all", action="store_true",
                     help="render every assembled trace")
    otr.add_argument("--chrome", metavar="PATH",
                     help="also export the chosen trace as a Chrome "
                          "trace-event JSON (flamegraph-shaped)")
    otr.add_argument("--check", action="store_true",
                     help="verify every request trace is single-rooted "
                          "with no orphans and the slowest request's "
                          "span tree accounts for its wall time "
                          "(exit 1 on failure)")

    for bench in ("table2", "fig11", "fig12", "ablations"):
        sub.add_parser(bench, help=f"regenerate {bench} "
                                   "(remaining args forwarded)")

    args, extra = ap.parse_known_args(argv)
    try:
        if args.cmd == "compile":
            if extra:
                ap.error(f"unrecognized arguments: {' '.join(extra)}")
            return _cmd_compile(args)
        if args.cmd == "explain":
            if extra:
                ap.error(f"unrecognized arguments: {' '.join(extra)}")
            return _cmd_explain(args)
        if args.cmd == "run":
            if extra:
                ap.error(f"unrecognized arguments: {' '.join(extra)}")
            return _cmd_run(args)
        if args.cmd == "profile":
            if extra:
                ap.error(f"unrecognized arguments: {' '.join(extra)}")
            return _cmd_profile(args)
        if args.cmd == "annotate":
            if extra:
                ap.error(f"unrecognized arguments: {' '.join(extra)}")
            return _cmd_annotate(args)
        if args.cmd == "faultcheck":
            if extra:
                ap.error(f"unrecognized arguments: {' '.join(extra)}")
            return _cmd_faultcheck(args)
        if args.cmd == "serve":
            if extra:
                ap.error(f"unrecognized arguments: {' '.join(extra)}")
            return _cmd_serve(args)
        if args.cmd == "loadgen":
            if extra:
                ap.error(f"unrecognized arguments: {' '.join(extra)}")
            return _cmd_loadgen(args)
        if args.cmd == "obs":
            if extra:
                ap.error(f"unrecognized arguments: {' '.join(extra)}")
            if args.obs_cmd == "events":
                return _cmd_obs_events(args)
            if args.obs_cmd == "trace":
                return _cmd_obs_trace(args)
            return _cmd_obs(args)
        import importlib
        mod = importlib.import_module(f"repro.bench.{args.cmd}")
        return mod.main(extra)
    except (ReproError, OSError) as exc:
        if getattr(args, "debug", False):
            raise
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
