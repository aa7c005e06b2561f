"""Static lane-affinity analysis of kernel memory indices.

The memory counters (coalescing, segment reuse, bank conflicts) depend
only on which addresses the active lanes of each warp touch.  When an
access's index is, within every warp, a warp-uniform term plus
``c * threadIdx.x`` with a *launch-uniform* stride ``c`` (constants and
kernel parameters), those addresses are an arithmetic progression, and
the counters have a closed form per warp
(:meth:`~repro.gpu.memory.GlobalMemory._count_transactions_batched`,
:meth:`~repro.gpu.memory.SharedMemory._count_banks`).
:func:`lane_affine_stmts` proves that shape once per kernel, for the
batched and the trace executors alike.

The lattice of an expression is *uniform* (stride 0) → *affine*
(stride ``c``) → *varying*:

* ``threadIdx.x`` and ``tid`` have stride 1; ``threadIdx.y`` and
  ``blockIdx.x`` are uniform; constants, parameters and the launch
  geometry are uniform *and* carry their value, so a product with an
  affine term scales its stride by a launch-uniform expression;
* ``+``/``-`` add strides, ``*`` by a launch-uniform value scales them,
  and anything else (``tx*tx``, ``tx % 7``, loaded data, shuffles) is
  varying unless every operand is uniform;
* a register's form is the join of its assignments' forms (equal
  strides, or varying); it keeps a launch-uniform value only when every
  assignment sits at the kernel's top level, where all lanes run it.

Forms alone are not enough under divergence: lanes of one warp that
took different paths may hold values from different assignments.  A
second, flow-sensitive pass therefore tracks which registers are
*incoherent* — possibly last assigned by different dynamic
assignments on different active lanes of a warp.  A register assigned
inside a lane-divergent ``If`` or ``While`` becomes incoherent once the
construct ends (its lanes leave at different times); inside the
construct every still-active lane took the same path, so the fused
finish loop ``i = tid; while (i < n) { ... p[i] ...; i += 256; }`` stays
affine.  An index is lane-affine when its form is not varying and every
register it reads is coherent.

The verdict holds when ``blockDim.x % warp_size == 0`` — then
``threadIdx.y`` is constant within a warp and lane ``l`` of a warp has
``threadIdx.x = x0 + l`` — which the executors check per launch, taking
the enumerated per-lane path otherwise.  Registers are assumed to be
read only after an assignment on every path, as lowered kernels do.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.gpu import kernelir as K

__all__ = ["LaneAffine", "lane_affine_stmts"]


class LaneAffine(NamedTuple):
    """Verdict for one lane-affine memory access.

    ``stride`` is the per-lane index step — an ``int``, or a
    launch-uniform :class:`~repro.gpu.kernelir.Expr` (constants,
    parameters, launch geometry) the executor evaluates per launch.
    """

    stride: object


#: geometry specials that are the same for every thread of a launch
_LAUNCH_SPECIALS = frozenset({"bdx", "bdy", "gdx", "ntid"})
#: geometry specials with stride 1 in ``threadIdx.x`` within a warp
_LANE_SPECIALS = frozenset({"tx", "tid"})

#: "not assigned yet" — the join identity of the register fixed point
_BOT = object()


def _walk_expr(e, regs, specials):
    """Collect register names and thread-geometry specials of ``e``."""
    if isinstance(e, K.Reg):
        regs.add(e.name)
    elif isinstance(e, K.Special):
        specials.add(e.kind)
    elif isinstance(e, K.Bin):
        _walk_expr(e.a, regs, specials)
        _walk_expr(e.b, regs, specials)
    elif isinstance(e, (K.Un, K.Cast)):
        _walk_expr(e.a, regs, specials)
    elif isinstance(e, K.Call):
        for a in e.args:
            _walk_expr(a, regs, specials)
    elif isinstance(e, K.Select):
        _walk_expr(e.cond, regs, specials)
        _walk_expr(e.a, regs, specials)
        _walk_expr(e.b, regs, specials)
    # Const / Param carry no registers


def _num(x):
    """``x`` as a Python int when it is an integer constant."""
    if isinstance(x, int):
        return x
    if isinstance(x, K.Const) and isinstance(x.value, (int,)) \
            and not isinstance(x.value, bool):
        return int(x.value)
    return x


def _lin(op: str, a, b):
    """Stride arithmetic, folded when both sides are constant."""
    a, b = _num(a), _num(b)
    if isinstance(a, int) and isinstance(b, int):
        return a + b if op == "+" else a - b if op == "-" else a * b
    if op == "*":
        if a == 0 or b == 0:
            return 0
        if a == 1:
            return b
        if b == 1:
            return a
    elif b == 0:
        return a
    ea = K.const_int(a) if isinstance(a, int) else a
    eb = K.const_int(b) if isinstance(b, int) else b
    return K.Bin(op, ea, eb)


class _Analysis:
    def __init__(self, kernel: K.Kernel):
        self.kernel = kernel
        #: register -> form: ``(stride, value)``, None (varying) or _BOT
        self.forms: dict[str, object] = {}
        self.regs_of: dict[int, frozenset] = {}
        self.defs_of: dict[int, frozenset] = {}
        #: forms of conditions and indices once the registers' are final
        self.final: dict[int, object] = {}
        #: loop body walks by (loop, entry state)
        self.bodies: dict[tuple, set] = {}
        self.out: dict[int, LaneAffine | None] = {}

    # -- forms --------------------------------------------------------------

    def form(self, e):
        """``(stride, value)`` of ``e``, None when varying, or _BOT."""
        if isinstance(e, (K.Const, K.Param)):
            return (0, e)
        if isinstance(e, K.Reg):
            return self.forms.get(e.name, _BOT)
        if isinstance(e, K.Special):
            if e.kind in _LAUNCH_SPECIALS:
                return (0, e)
            return (1, None) if e.kind in _LANE_SPECIALS else (0, None)
        if isinstance(e, K.Bin):
            fa, fb = self.form(e.a), self.form(e.b)
            if fa is None or fb is None:
                return None
            if fa is _BOT or fb is _BOT:
                return _BOT
            (sa, va), (sb, vb) = fa, fb
            if sa == 0 and sb == 0:
                val = None if va is None or vb is None \
                    else K.Bin(e.op, va, vb)
                return (0, val)
            if e.op in ("+", "-"):
                return (_lin(e.op, sa, sb), None)
            if e.op == "*":
                if sb == 0 and vb is not None:
                    return (_lin("*", sa, vb), None)
                if sa == 0 and va is not None:
                    return (_lin("*", va, sb), None)
            return None
        if isinstance(e, (K.Un, K.Cast)):
            fa = self.form(e.a)
            if fa is None or fa is _BOT:
                return fa
            s, v = fa
            if isinstance(e, K.Un) and e.op == "neg":
                return (_lin("-", 0, s),
                        None if v is None else K.Un("neg", v))
            if s != 0:
                return None
            if v is None:
                return (0, None)
            return (0, K.Un(e.op, v) if isinstance(e, K.Un)
                    else K.Cast(e.dtype, v))
        parts = (e.args if isinstance(e, K.Call)
                 else (e.cond, e.a, e.b))  # Select
        fs = [self.form(a) for a in parts]
        if any(f is None for f in fs):
            return None
        if any(f is _BOT for f in fs):
            return _BOT
        if any(f[0] != 0 for f in fs):
            return None
        vals = [f[1] for f in fs]
        if any(v is None for v in vals):
            return (0, None)
        if isinstance(e, K.Call):
            return (0, K.Call(e.fn, tuple(vals)))
        return (0, K.Select(*vals))

    def solve_forms(self) -> None:
        assigns, data = [], set()
        for s, depth in K.walk_stmts(self.kernel.body):
            if isinstance(s, K.Assign):
                assigns.append((s.dst, s.value, depth == 0))
            elif isinstance(s, (K.GLoad, K.SLoad, K.ShflDown)):
                data.add(s.dst)
        forms = self.forms
        for name in data:
            forms[name] = None
        changed = True
        while changed:
            changed = False
            for dst, value, top in assigns:
                old = forms.get(dst, _BOT)
                if old is None:
                    continue
                f = self.form(value)
                if f is _BOT:
                    continue
                if f is not None and not top and f[1] is not None:
                    f = (f[0], None)
                if old is _BOT:
                    new = f
                elif f is None or f[0] != old[0]:
                    new = None
                elif old[1] is None or f[1] == old[1]:
                    new = old
                else:
                    new = (old[0], None)
                if new is not old:
                    forms[dst] = new
                    changed = True

    # -- coherence ----------------------------------------------------------

    def final_form(self, e):
        f = self.final.get(id(e), _BOT)
        if f is _BOT:
            f = self.final[id(e)] = self.form(e)
        return f

    def regs(self, e) -> frozenset:
        r = self.regs_of.get(id(e))
        if r is None:
            names: set[str] = set()
            _walk_expr(e, names, set())
            r = self.regs_of[id(e)] = frozenset(names)
        return r

    def defs(self, stmts: tuple) -> frozenset:
        d = self.defs_of.get(id(stmts))
        if d is None:
            d = self.defs_of[id(stmts)] = frozenset(
                s.dst for s, _ in K.walk_stmts(stmts)
                if isinstance(s, (K.Assign, K.GLoad, K.SLoad, K.ShflDown)))
        return d

    def divergent(self, cond, inc) -> bool:
        """Whether lanes of one warp may disagree on ``cond``."""
        f = self.final_form(cond)
        return f is None or f is _BOT or f[0] != 0 \
            or not self.regs(cond).isdisjoint(inc)

    def record(self, s, inc) -> None:
        # a loop body is walked once per fixed-point round, with states
        # that only grow: the last visit is the most conservative one
        f = self.final_form(s.index)
        ok = f is not None and f is not _BOT \
            and self.regs(s.index).isdisjoint(inc)
        self.out[id(s)] = LaneAffine(f[0]) if ok else None

    def walk(self, stmts: tuple, inc: set) -> set:
        """Incoherent registers after ``stmts``, entered with ``inc``."""
        for s in stmts:
            if isinstance(s, K.Assign):
                if self.regs(s.value).isdisjoint(inc):
                    inc.discard(s.dst)
                else:
                    inc.add(s.dst)
            elif isinstance(s, (K.GLoad, K.GStore, K.SLoad, K.SStore)):
                self.record(s, inc)
            elif isinstance(s, K.If):
                div = self.divergent(s.cond, inc)
                t = self.walk(s.then, set(inc))
                e = self.walk(s.orelse, set(inc))
                inc = t | e
                if div:
                    inc |= self.defs(s.then) | self.defs(s.orelse)
            elif isinstance(s, (K.While, K.UniformWhile)):
                # a UniformWhile runs its body on the enclosing mask of
                # every live block: it never splits a warp
                head = set(inc)
                while True:
                    div = isinstance(s, K.While) \
                        and self.divergent(s.cond, head)
                    key = (id(s), frozenset(head))
                    out = self.bodies.get(key)
                    if out is None:
                        # an enclosing loop's later rounds re-enter with
                        # the same state: same walk, same verdicts
                        out = self.bodies[key] = self.walk(
                            s.body, set(head))
                    new = head | out
                    if new == head:
                        break
                    head = new
                inc = head | self.defs(s.body) if div else head
        return inc


def lane_affine_stmts(kernel: K.Kernel) -> dict:
    """``id(stmt) -> LaneAffine`` for every lane-affine GLoad, GStore,
    SLoad and SStore of ``kernel``; accesses missing from the map are
    varying and take the enumerated per-lane accounting.

    The result is shared (do not mutate it): trace codegen at compile
    time and the batched executor's first launch ask about the same
    kernel object, so the last verdicts are kept by kernel identity.
    """
    hit = _VERDICTS.get(id(kernel))
    if hit is not None and hit[0] is kernel:
        return hit[1]
    a = _Analysis(kernel)
    a.solve_forms()
    a.walk(kernel.body, set())
    out = {k: v for k, v in a.out.items() if v is not None}
    if len(_VERDICTS) >= 16:
        _VERDICTS.clear()
    _VERDICTS[id(kernel)] = (kernel, out)
    return out


#: ``id(kernel) -> (kernel, verdicts)``; holding the kernel keeps its id
#: from being reused while the entry lives.  Device threads share it: an
#: entry is read once and checked by identity, and a race between two
#: threads only analyzes a kernel twice
_VERDICTS: dict[int, tuple] = {}
