"""Layer spans and probes installed from outside the program.

Two instruments, both installed by patching public entry points of
``repro`` for the duration of one phase and removed afterwards; neither
touches ``src/``:

* :class:`Probe` — the only instrument of the untraced run.  It counts
  launches per effective executor mode, notes the pass pipeline of every
  program run, and times ``acc.compile`` calls.  A few microseconds per
  call, no spans, no telemetry bus.
* :class:`Tracer` — the traced run.  Every wrapped entry point records a
  span ``(id, parent, op, name, start, end)``; spans live in memory and
  are written once, when the run ends.  A span's self time is its
  duration minus the part of it that its child spans cover; every span
  belongs to one layer, and an op's root span (layer ``bench``) keeps the
  time no layer claims: the unattributed time.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import threading
import time
import weakref
from collections import Counter, defaultdict

#: span name -> (layer, per-layer metric of its self time per op).  The
#: metric names are part of the benchmark's contract (BENCHMARK.json).
SPANS = {
    "bench.op": ("bench", "bench.unattributed_ms"),
    "frontend.parse": ("frontend", "frontend.parse_ms"),
    "ir.build": ("ir", "ir.build_ms"),
    "ir.autopar": ("ir", "ir.autopar_ms"),
    "ir.analyze": ("ir", "ir.analyze_ms"),
    "passes.manager": ("passes", "passes.manager_ms"),
    "passes.autotune": ("passes", "passes.autotune_ms"),
    "passes.cascade-fusion": ("passes", "passes.cascade-fusion_ms"),
    "passes.fuse-finish": ("passes", "passes.fuse-finish_ms"),
    "passes.fold-constants": ("passes", "passes.fold-constants_ms"),
    "passes.eliminate-barriers": ("passes", "passes.eliminate-barriers_ms"),
    "passes.stamp-sids": ("passes", "passes.stamp-sids_ms"),
    "passes.trace-codegen": ("passes", "passes.trace-codegen_ms"),
    "passes.verify": ("passes", "passes.verify_ms"),
    "codegen.lower": ("codegen", "codegen.lower_ms"),
    "acc.compile": ("acc", "acc.program_build_ms"),
    "acc.run": ("acc", "acc.run_self_ms"),
    "acc.runtime.bind": ("acc.runtime", "acc.runtime.bind_ms"),
    "acc.runtime.transfer": ("acc.runtime", "acc.runtime.transfer_ms"),
    "gpu.executor.launch": ("gpu.executor", "gpu.executor.launch_ms"),
    "gpu.memory.accounting": ("gpu.memory", "gpu.memory.accounting_ms"),
    "gpu.costmodel.kernel_time": ("gpu.costmodel",
                                  "gpu.costmodel.kernel_time_ms"),
    "serve.queue": ("serve", "serve.queue_ms"),
    "serve.dispatch": ("serve", "serve.dispatch_ms"),
    "serve.cache.get": ("serve", "serve.cache.get_ms"),
    "serve.cache.put": ("serve", "serve.cache.put_ms"),
}

#: registered passes timed one by one (the frontend passes and ``lower``
#: are timed at the frontend/ir/codegen entry points they call instead)
WRAPPED_PASSES = ("autotune", "cascade-fusion", "fuse-finish",
                  "fold-constants", "eliminate-barriers", "stamp-sids",
                  "trace-codegen")


class Patches:
    """Attribute patches applied together and undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, name: str, value) -> None:
        """Set ``owner.name`` (or ``owner[name]`` for a dict)."""
        if isinstance(owner, dict):
            self._undo.append((owner, name, owner[name]))
            owner[name] = value
            return
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, old = self._undo.pop()
            if isinstance(owner, dict):
                owner[name] = old
            else:
                setattr(owner, name, old)


def _static_counts(prog) -> Counter:
    """Kernel and optimization counts read off one compiled Program."""
    from repro.gpu.kernelir import walk_stmts

    c = Counter()
    kernels = prog.lowered.kernels
    c["codegen.kernels"] = len(kernels)
    c["codegen.kernel_stmts"] = sum(
        sum(1 for _ in walk_stmts(k.body)) for k in kernels)
    for k in kernels:
        note = k.note or ""
        marker = "fused finish kernel(s): "
        if marker in note:
            names = note.split(marker, 1)[1].split(";", 1)[0]
            c["passes.fuse-finish.applied"] += len(names.split(","))
    c["passes.cascade-fusion.applied"] = sum(
        1 for g in prog.lowered.gang_reductions if g.cascade_fused)
    c["passes.autotune.retuned"] = sum(
        1 for rec in prog.autotune.values() if isinstance(rec, dict)
        for dec in rec.values()
        if isinstance(dec, dict) and "choice" in dec
        and dec["choice"] != dec.get("default"))
    return c


class Probe:
    """Counters for the untraced run: modes, pipelines, compile walls."""

    def __init__(self):
        self.modes = Counter()
        self.pipelines = Counter()
        #: (wall ms, midpoint perf_counter s) per ``acc.compile`` call
        self.compiles: list[tuple[float, float]] = []
        self._patches = None

    def install(self) -> None:
        from repro import acc
        from repro.acc import compiler as acc_compiler
        from repro.acc.compiler import Program
        from repro.gpu.executor import CompiledKernel

        probe = self
        orig_compile = acc_compiler.compile
        orig_run = Program.run
        orig_launch = CompiledKernel.run

        @functools.wraps(orig_compile)
        def compile_(*a, **kw):
            t0 = time.perf_counter()
            prog = orig_compile(*a, **kw)
            t1 = time.perf_counter()
            probe.compiles.append(((t1 - t0) * 1e3, (t0 + t1) / 2))
            return prog

        @functools.wraps(orig_run)
        def run(self, *a, **kw):
            probe.pipelines[self.pipeline or "-"] += 1
            return orig_run(self, *a, **kw)

        @functools.wraps(orig_launch)
        def launch(self, gmem, grid_dim, block_dim, params=None,
                   trace=False, **kw):
            probe.modes[self.effective_mode(
                kw.get("mode"), grid_dim, gmem, kw.get("faults"),
                trace_events=trace)] += 1
            return orig_launch(self, gmem, grid_dim, block_dim, params,
                               trace, **kw)

        p = self._patches = Patches()
        p.set(acc, "compile", compile_)
        p.set(acc_compiler, "compile", compile_)
        p.set(Program, "run", run)
        p.set(CompiledKernel, "run", launch)

    def remove(self) -> None:
        if self._patches is not None:
            self._patches.restore()
            self._patches = None


class Tracer:
    """In-memory span recorder over the wrapped layer entry points.

    Parent links follow a per-thread stack, so spans recorded on a serve
    device thread nest under that thread's ``serve.dispatch`` span; a
    span opened with an empty stack is an op root (``bench.op``) or a
    thread-level span whose op root is synthesized later
    (:meth:`add_span`).
    """

    def __init__(self):
        #: [id, parent, op, name, start, end] per span (times: perf_counter s)
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = None
        #: counts over the first pass only (see ``counting``)
        self.counts = Counter()
        self.counting = False
        self.launch_ms: list[float] = []
        self.first_launch_ms: list[float] = []
        self.launch_blocks = 0
        self.tokens = 0
        self._seen_programs = weakref.WeakSet()

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def begin(self, name: str, op=None) -> list:
        st = self._stack()
        if st:
            parent, op = st[-1][0], st[-1][2]
        else:
            parent = None
        rec = [next(self._ids), parent, op, name, time.perf_counter(), None]
        st.append(rec)
        return rec

    def end(self, rec: list) -> None:
        rec[5] = time.perf_counter()
        st = self._stack()
        st.pop()
        with self._lock:
            self.spans.append(rec)

    def add_span(self, name: str, op, start: float, end: float) -> None:
        """Record a span measured elsewhere (serve queue wait, op roots)."""
        with self._lock:
            self.spans.append([next(self._ids), None, op, name, start, end])

    def count(self, updates) -> None:
        """Add to the first-pass counters (device threads call this too)."""
        with self._lock:
            self.counts.update(updates)

    def first_sight(self, prog) -> bool:
        """True the first time ``prog`` runs while counting."""
        with self._lock:
            if prog in self._seen_programs:
                return False
            self._seen_programs.add(prog)
            return True

    def span(self, name: str, fn):
        """Wrap ``fn`` so every call records one ``name`` span."""
        tracer = self

        @functools.wraps(fn)
        def wrapped(*a, **kw):
            rec = tracer.begin(name)
            try:
                return fn(*a, **kw)
            finally:
                tracer.end(rec)
        return wrapped

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        from repro import acc
        from repro.acc import compiler as acc_compiler
        from repro.acc.compiler import Program
        from repro.acc.runtime import DataEnv
        from repro.codegen import lowering
        from repro.frontend import cparser
        from repro.gpu import executor_batched, executor_trace, memory
        from repro.gpu.costmodel import CostModel
        from repro.gpu.executor import CompiledKernel
        from repro.ir import analysis, autopar, builder
        from repro.passes import manager
        from repro.serve.cache import CompileCache
        from repro.serve.scheduler import Scheduler

        t = self
        p = self._patches = Patches()
        span = self.span

        orig_tokenize = cparser.tokenize

        def tokenize(src):
            toks = orig_tokenize(src)
            with t._lock:
                t.tokens += len(toks)
            return toks

        p.set(cparser, "tokenize", tokenize)
        p.set(cparser, "parse_region",
              span("frontend.parse", cparser.parse_region))
        p.set(builder, "build_region",
              span("ir.build", builder.build_region))
        p.set(autopar, "auto_parallelize",
              span("ir.autopar", autopar.auto_parallelize))
        p.set(analysis, "analyze_region",
              span("ir.analyze", analysis.analyze_region))
        p.set(lowering, "lower_region",
              span("codegen.lower", lowering.lower_region))
        p.set(manager, "verify_kernel",
              span("passes.verify", manager.verify_kernel))
        for name in WRAPPED_PASSES:
            entry = manager.PASS_REGISTRY[name]
            p.set(manager.PASS_REGISTRY, name, dataclasses.replace(
                entry, fn=span(f"passes.{name}", entry.fn)))
        p.set(manager.PassManager, "run",
              span("passes.manager", manager.PassManager.run))

        compile_ = span("acc.compile", acc_compiler.compile)
        p.set(acc, "compile", compile_)
        p.set(acc_compiler, "compile", compile_)

        orig_run = Program.run

        @functools.wraps(orig_run)
        def run(self, *a, **kw):
            rec = t.begin("acc.run")
            try:
                res = orig_run(self, *a, **kw)
            finally:
                t.end(rec)
            if t.counting:
                add = _static_counts(self) if t.first_sight(self) \
                    else Counter()
                add.update({"acc.runs": 1,
                            "modeled_device_ms": res.modeled_ms,
                            "gpu.costmodel.modeled_kernel_ms": res.kernel_ms,
                            "acc.runtime.modeled_transfer_ms":
                                res.transfer_ms})
                t.count(add)
            return res

        p.set(Program, "run", run)

        p.set(DataEnv, "bind", span("acc.runtime.bind", DataEnv.bind))
        orig_enter, orig_exit = DataEnv.enter, DataEnv.exit_outputs
        orig_read = DataEnv.read_result

        def enter(self):
            rec = t.begin("acc.runtime.transfer")
            try:
                orig_enter(self)
            finally:
                t.end(rec)
            if t.counting:
                t.count({"acc.runtime.host_bytes": sum(
                    self.host_arrays[a.name].nbytes
                    for a in self.region.arrays
                    if a.transfer in ("copy", "copyin")
                    and not self._resident(a.name))})

        def exit_outputs(self):
            rec = t.begin("acc.runtime.transfer")
            try:
                out = orig_exit(self)
            finally:
                t.end(rec)
            if t.counting:
                t.count({"acc.runtime.host_bytes": sum(
                    out[a.name].nbytes for a in self.region.arrays
                    if a.transfer in ("copy", "copyout") and a.name in out)})
            return out

        def read_result(self, buf):
            rec = t.begin("acc.runtime.transfer")
            try:
                value = orig_read(self, buf)
            finally:
                t.end(rec)
            if t.counting:
                t.count({"acc.runtime.host_bytes": int(value.nbytes)})
            return value

        p.set(DataEnv, "enter", enter)
        p.set(DataEnv, "exit_outputs", exit_outputs)
        p.set(DataEnv, "read_result", read_result)

        orig_launch = CompiledKernel.run

        def launch(self, gmem, grid_dim, block_dim, params=None,
                   trace=False, **kw):
            mode = self.effective_mode(kw.get("mode"), grid_dim, gmem,
                                       kw.get("faults"), trace_events=trace)
            # a first launch builds the kernel's lazy executor artifact
            first = ((mode == "batched" and self._batched_body is None)
                     or (mode == "trace" and self._trace_fn is None))
            rec = t.begin("gpu.executor.launch")
            try:
                stats = orig_launch(self, gmem, grid_dim, block_dim, params,
                                    trace, **kw)
            finally:
                t.end(rec)
            ms = (rec[5] - rec[4]) * 1e3
            with t._lock:
                (t.first_launch_ms if first else t.launch_ms).append(ms)
                t.launch_blocks += grid_dim
            if t.counting:
                t.count({"gpu.executor.launches": 1,
                         f"gpu.executor.mode.{mode}": 1,
                         "gpu.memory.global_transactions":
                             stats.global_transactions,
                         "gpu.memory.dram_bytes": stats.dram_bytes,
                         "gpu.memory.bank_conflict_extra":
                             stats.bank_conflict_extra})
            return stats

        p.set(CompiledKernel, "run", launch)

        acct = "gpu.memory.accounting"
        p.set(memory.GlobalMemory, "_count_transactions",
              span(acct, memory.GlobalMemory._count_transactions))
        p.set(memory.GlobalMemory, "_count_transactions_batched",
              span(acct, memory.GlobalMemory._count_transactions_batched))
        p.set(memory.SharedMemory, "_count_banks",
              span(acct, memory.SharedMemory._count_banks))
        fsr = span(acct, memory.finalize_segment_reuse)
        for mod in (memory, executor_batched, executor_trace):
            p.set(mod, "finalize_segment_reuse", fsr)

        p.set(CostModel, "kernel_time",
              span("gpu.costmodel.kernel_time", CostModel.kernel_time))
        orig_body = Scheduler._thread_body

        def thread_body(self, req, dev):
            # a device-thread root: its op root is added when the request
            # completes (see serve_mixed.run_phase)
            rec = t.begin("serve.dispatch", op=req.id)
            try:
                return orig_body(self, req, dev)
            finally:
                t.end(rec)

        p.set(Scheduler, "_thread_body", thread_body)
        p.set(CompileCache, "get", span("serve.cache.get", CompileCache.get))
        p.set(CompileCache, "put", span("serve.cache.put", CompileCache.put))

    def remove(self) -> None:
        if self._patches is not None:
            self._patches.restore()
            self._patches = None

    # -- analysis ---------------------------------------------------------

    def self_times(self):
        """Per-op span breakdown.

        Returns ``{op: {"wall": root duration s, "self": {span name: s},
        "covered_ok": bool}}``.  Spans without a parent that are not op
        roots hang under their op's root.  ``covered_ok`` is False when a
        child pokes out of its parent or two siblings overlap — then the
        self times would not add up to the op's wall.
        """
        by_op: dict = defaultdict(list)
        for rec in self.spans:
            by_op[rec[2]].append(rec)
        out = {}
        for op, recs in by_op.items():
            roots = [r for r in recs if r[3] == "bench.op"]
            if len(roots) != 1:
                continue
            root = roots[0]
            children = defaultdict(list)
            for r in recs:
                if r is root:
                    continue
                children[r[1] if r[1] is not None else root[0]].append(r)
            selfs: dict = defaultdict(float)
            ok = True
            tol = 1e-6
            for r in recs:
                kids = sorted(children.get(r[0], ()), key=lambda k: k[4])
                covered = 0.0
                last_end = r[4]
                for k in kids:
                    if k[4] < r[4] - tol or k[5] > r[5] + tol \
                            or k[4] < last_end - tol:
                        ok = False
                    s, e = max(k[4], last_end), min(k[5], r[5])
                    if e > s:
                        covered += e - s
                    last_end = max(last_end, e)
                selfs[r[3]] += (r[5] - r[4]) - covered
            out[op] = {"wall": root[5] - root[4], "self": dict(selfs),
                       "covered_ok": ok}
        return out

    def write(self, path) -> None:
        """Write every span as one JSON array per line."""
        with open(path, "w") as f:
            f.write(json.dumps({"fields": ["id", "parent", "op", "name",
                                           "start_s", "end_s"]}) + "\n")
            for r in sorted(self.spans, key=lambda r: r[0]):
                f.write(json.dumps([r[0], r[1], r[2], r[3],
                                    round(r[4], 7), round(r[5], 7)]) + "\n")
