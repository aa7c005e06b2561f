"""The generic reduction library: NumPy in, OpenACC pipeline underneath.

Every entry point here is a thin front end over ``acc.compile``: the
specs are rendered to an OpenACC source fragment (declaration preamble +
``reduction`` pragmas, exactly what a user would write by hand), the
fragment is compiled through the full pass pipeline — autotuner, cascade
fusion, fuse-finish, the lot — and executed on the simulated device.
Nothing reduction-shaped is special-cased: a ``tuple_reduce`` is one
parallel loop with one ``reduction`` clause per variable, an ``argmax``
is the ``reduction(argmax:v,i)`` pragma extension, and a
``segmented_reduce`` is a ``#pragma acc atomic`` scatter.  Compiled
programs are memoized per (source, geometry, compiler, pipeline,
options) so repeated library calls pay compilation once.
"""

from __future__ import annotations

import numpy as np

from repro import acc
from repro.dtypes import DType, from_numpy, is_integer
from repro.errors import AnalysisError
from repro.reduce.spec import ReductionSpec

__all__ = ["reduce", "tuple_reduce", "argmax", "argmin",
           "segmented_reduce", "build_source", "program_cache_clear"]

#: operators with a C compound-assignment spelling — the forms
#: ``#pragma acc atomic update`` accepts for the segmented scatter
_ATOMIC_OPS = ("+", "*", "&", "|", "^")

#: memoized compiled programs: full compile configuration -> Program
_PROGRAMS: dict[tuple, object] = {}


def program_cache_clear() -> None:
    """Drop the library's memoized compiled programs."""
    _PROGRAMS.clear()


def _zero_literal(dtype: DType) -> str:
    """A parseable placeholder initializer (real inits bind at run)."""
    if dtype is DType.FLOAT:
        return "0.0f"
    if dtype is DType.DOUBLE:
        return "0.0"
    return "0"


def _as_array(values) -> np.ndarray:
    arr = np.ascontiguousarray(values)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    return arr


def build_source(specs: tuple[ReductionSpec, ...],
                 dtypes: tuple[DType, ...]) -> str:
    """Render specs to the OpenACC fragment the compiler ingests.

    One input array, accumulator declaration, and ``reduction`` clause
    per spec; a single ``gang worker vector`` loop carries every update
    so multi-variable reductions lower into one kernel (and cascade
    with any consumer the caller composes around them).
    """
    decls, clauses, updates, arrays = [], [], [], []
    for k, (spec, dt) in enumerate(zip(specs, dtypes)):
        a, r = f"a{k}", f"r{k}"
        arrays.append(a)
        decls.append(f"{dt.ctype} {a}[n];")
        decls.append(f"{dt.ctype} {r} = {_zero_literal(dt)};")
        if spec.is_pair:
            decls.append(f"int {r}_i = 0;")
            clauses.append(f"reduction({spec.kind}:{r},{r}_i)")
            cmp = ">" if spec.kind == "argmax" else "<"
            updates.append(f"  if ({a}[i] {cmp} {r}) "
                           f"{{ {r} = {a}[i]; {r}_i = i; }}")
        else:
            clauses.append(f"reduction({spec.op}:{r})")
            updates.append("  " + spec.update_stmt(r, f"{a}[i]"))
    body = "\n".join(updates)
    return (
        "\n".join(decls) + "\n"
        f"#pragma acc parallel copyin({', '.join(arrays)})\n"
        f"#pragma acc loop gang worker vector {' '.join(clauses)}\n"
        f"for (i = 0; i < n; i++) {{\n{body}\n}}\n")


def _compile(source: str, *, compiler, pipeline, num_gangs, num_workers,
             vector_length, **options):
    key = (source, compiler, repr(pipeline), num_gangs, num_workers,
           vector_length, tuple(sorted((k, repr(v))
                                       for k, v in options.items())))
    prog = _PROGRAMS.get(key)
    if prog is None:
        prog = acc.compile(source, compiler=compiler, pipeline=pipeline,
                           num_gangs=num_gangs, num_workers=num_workers,
                           vector_length=vector_length, **options)
        _PROGRAMS[key] = prog
    return prog


def tuple_reduce(arrays, specs, *, compiler: str = "openuh",
                 pipeline=None, num_gangs: int = 16, num_workers: int = 1,
                 vector_length: int = 64,
                 run_options: acc.RunOptions | None = None,
                 **options) -> tuple:
    """Reduce several same-length arrays in one parallel loop.

    ``arrays`` and ``specs`` pair up positionally; every array must have
    the same length (one loop carries all updates).  Returns one result
    per spec — a NumPy scalar for scalar reductions, a ``(value,
    index)`` pair for ``argmax``/``argmin`` specs.  Extra keyword
    ``options`` are ``acc.compile`` lowering overrides (pinned against
    the autotuner as usual); ``run_options`` is the
    :class:`~repro.acc.RunOptions` of the run (e.g.
    ``RunOptions(executor_mode="reference")``).
    """
    specs = tuple(s if isinstance(s, ReductionSpec)
                  else ReductionSpec(op=s) for s in specs)
    hosts = [_as_array(a) for a in arrays]
    if len(hosts) != len(specs):
        raise AnalysisError(
            f"{len(hosts)} arrays for {len(specs)} reduction specs")
    if not hosts:
        raise AnalysisError("tuple_reduce needs at least one array")
    n = hosts[0].size
    if any(h.size != n for h in hosts):
        raise AnalysisError(
            "tuple_reduce arrays must share one length "
            f"(got {[h.size for h in hosts]})")
    dtypes = []
    for spec, h in zip(specs, hosts):
        dt = spec.dtype or from_numpy(h.dtype)
        if dt.np != h.dtype:
            raise AnalysisError(
                f"spec dtype {dt.ctype} does not match array dtype "
                f"{h.dtype} (cast the array on the host)")
        dtypes.append(dt)
    dtypes = tuple(dtypes)

    prog = _compile(build_source(specs, dtypes), compiler=compiler,
                    pipeline=pipeline, num_gangs=num_gangs,
                    num_workers=num_workers, vector_length=vector_length,
                    **options)
    kwargs: dict = {}
    for k, (spec, dt, h) in enumerate(zip(specs, dtypes, hosts)):
        kwargs[f"a{k}"] = h
        kwargs[f"r{k}"] = spec.host_init(dt)
        if spec.is_pair:
            # index identity: "no element seen yet" — any real index wins
            kwargs[f"r{k}_i"] = np.int32(np.iinfo(np.int32).max)
    res = prog.run(run_options, **kwargs)
    out = []
    for k, spec in enumerate(specs):
        if spec.is_pair:
            out.append((res.scalars[f"r{k}"], int(res.scalars[f"r{k}_i"])))
        else:
            out.append(res.scalars[f"r{k}"])
    return tuple(out)


def reduce(values, op: str | ReductionSpec = "+", *, init=None,
           update: str | None = None, **kw):
    """Reduce one array with one operator (built-in or user-defined).

    ``op`` may be an operator token or a full :class:`ReductionSpec`;
    ``init`` seeds the fold (identity by default), ``update`` supplies
    the C update statement for custom operators.  Remaining keywords
    are forwarded to :func:`tuple_reduce`.
    """
    spec = op if isinstance(op, ReductionSpec) else \
        ReductionSpec(op=op, init=init, update=update)
    return tuple_reduce([values], [spec], **kw)[0]


def argmax(values, **kw) -> tuple:
    """``(max value, index of first max)`` via ``reduction(argmax:..)``.

    Ties break toward the smaller index; NaNs never win the strict
    compare, so an all-NaN input returns the seed pair.
    """
    spec = ReductionSpec(op="max", kind="argmax")
    return tuple_reduce([values], [spec], **kw)[0]


def argmin(values, **kw) -> tuple:
    """``(min value, index of first min)`` via ``reduction(argmin:..)``."""
    spec = ReductionSpec(op="min", kind="argmin")
    return tuple_reduce([values], [spec], **kw)[0]


def segmented_reduce(values, segments, num_segments: int, op: str = "+",
                     *, compiler: str = "openuh", pipeline=None,
                     num_gangs: int = 16, num_workers: int = 1,
                     vector_length: int = 64,
                     run_options: acc.RunOptions | None = None,
                     **options) -> np.ndarray:
    """Per-segment reduction via an atomic scatter.

    ``segments[i]`` names the output slot element ``i`` combines into;
    the loop scatters with ``#pragma acc atomic`` so colliding updates
    from different lanes serialize.  Only operators with a C compound
    assignment (``+ * & | ^``) are supported — the atomic directive
    accepts exactly those update shapes.  The output array is seeded
    with the operator identity.
    """
    if op not in _ATOMIC_OPS:
        raise AnalysisError(
            f"segmented_reduce supports {', '.join(_ATOMIC_OPS)} "
            f"(atomic compound updates); got {op!r}")
    vals = _as_array(values)
    segs = _as_array(segments).astype(np.int32, copy=False)
    if vals.size != segs.size:
        raise AnalysisError(
            f"values ({vals.size}) and segments ({segs.size}) must "
            "share one length")
    if segs.size and (segs.min() < 0 or segs.max() >= num_segments):
        raise AnalysisError(
            f"segment ids must lie in [0, {num_segments}); got "
            f"[{segs.min()}, {segs.max()}]")
    dt = from_numpy(vals.dtype)
    spec = ReductionSpec(op=op)
    if spec.operator.integer_only and not is_integer(dt):
        raise AnalysisError(
            f"operator {op!r} requires an integer dtype, got {dt.ctype}")
    source = (
        f"{dt.ctype} vals[n];\n"
        "int segs[n];\n"
        f"{dt.ctype} out[k];\n"
        "#pragma acc parallel copyin(vals, segs) copy(out)\n"
        "#pragma acc loop gang worker vector\n"
        "for (i = 0; i < n; i++) {\n"
        "  #pragma acc atomic update\n"
        f"  out[segs[i]] {op}= vals[i];\n"
        "}\n")
    prog = _compile(source, compiler=compiler, pipeline=pipeline,
                    num_gangs=num_gangs, num_workers=num_workers,
                    vector_length=vector_length, **options)
    seed = np.full(num_segments, spec.operator.identity(dt), dtype=dt.np)
    res = prog.run(run_options, vals=vals, segs=segs, out=seed)
    return res.outputs["out"]
