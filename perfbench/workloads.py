"""The benchmark's four workloads.

Three are sequential: a fixed op list run in whole passes, each op with
fresh inputs drawn from ``(seed, pass, op)``.  ``serve-mixed`` is an
open-loop arrival schedule through the serve layer (see ``serve_mixed``).

A workload receives only generated inputs; the seed never reaches the
program.  The op list does not depend on the seed (pinned by
``tests/test_determinism.py``).
"""

from __future__ import annotations

import hashlib

import numpy as np

#: Table 2 launch (the paper's 192 gangs x 8 workers x 128 vector)
TABLE2_GEOMETRY = dict(num_gangs=192, num_workers=8, vector_length=128)
TABLE2_N = 4096
#: compile-corpus: small runs, so the op is dominated by compile + first
#: launch
CORPUS_GEOMETRY = dict(num_gangs=4, num_workers=2, vector_length=32)
CORPUS_N = 64
#: apps sizes.  On a 2-core x86 box a call takes about 145 ms (heat),
#: 80 ms (matmul, softmax) and 55 ms (pi).  matmul and softmax are sized
#: alike on purpose: with four op kinds in equal numbers the median falls
#: between the second and third kind, and two overlapping kinds put it
#: inside a dense stretch of samples instead of on a gap.
HEAT_N, HEAT_ITERS = 16, 100
MATMUL_N = 44
PI_N = 1 << 19
SOFTMAX_N = 90_000


def _rng(*key) -> np.random.Generator:
    return np.random.default_rng([int(k) for k in key])


def digest(*parts) -> str:
    """Bit-level fingerprint of result arrays/scalars (dict or array)."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, dict):
            for k in sorted(part):
                h.update(k.encode())
                h.update(np.asarray(part[k]).tobytes())
        else:
            h.update(np.asarray(part).tobytes())
    return h.hexdigest()[:16]


def _matches(want, got, ctype: str) -> bool:
    """Testsuite rule: exact for integers, relative tolerance for floats."""
    got = np.asarray(got)
    if ctype in ("float", "double"):
        rtol = 1e-5 if ctype == "float" else 1e-9
        return bool(np.allclose(got, want, rtol=rtol, atol=0))
    return bool(np.array_equal(got, want))


def check_case(case, inputs, scalars, outputs):
    """Compare one testsuite run with the case's NumPy reference."""
    for kind, name, want in case.expected(inputs):
        got = scalars.get(name) if kind == "scalar" else outputs.get(name)
        if got is None or not _matches(want, got, case.ctype):
            return (f"{case.label}: {name} = {np.asarray(got).ravel()[:4]}"
                    f", expected {np.asarray(want).ravel()[:4]}")
    return None


class Sequential:
    """Base of the pass-structured workloads."""

    name = ""
    ops: list

    def order(self, seed: int, pass_no: int) -> list[int]:
        return list(range(len(self.ops)))

    def setup(self, seed: int, tick=lambda: None) -> None:
        """Prepare everything the timed ops need (repeatable); ``tick``
        is called between set-up steps (the host-speed probe)."""

    def inputs(self, seed: int, pass_no: int, i: int):
        raise NotImplementedError

    def run(self, i: int, inputs):
        raise NotImplementedError

    def check(self, i: int, inputs, result) -> str | None:
        """``None`` when the result matches the reference, else why not."""
        raise NotImplementedError

    def digest(self, result) -> str:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# table2-grid
# ---------------------------------------------------------------------------

class Table2Grid(Sequential):
    """One ``Program.run`` of a precompiled Table 2 case per op."""

    name = "table2-grid"

    def __init__(self):
        from repro.testsuite.cases import generate_cases
        self.ops = generate_cases(size=TABLE2_N)
        self.programs = []

    def setup(self, seed, tick=lambda: None):
        from repro import acc
        self.programs = []
        for i, case in enumerate(self.ops):
            tick()
            prog = acc.compile(case.source, **TABLE2_GEOMETRY)
            # warm: first launch builds the executor closures
            prog.run(**case.make_inputs(_rng(seed, 1_000_000, i)))
            self.programs.append(prog)

    def inputs(self, seed, pass_no, i):
        return self.ops[i].make_inputs(_rng(seed, pass_no, i))

    def run(self, i, inputs):
        return self.programs[i].run(**inputs)

    def check(self, i, inputs, result):
        return check_case(self.ops[i], inputs, result.scalars,
                          result.outputs)

    def digest(self, result):
        return digest(result.scalars, result.outputs)


# ---------------------------------------------------------------------------
# compile-corpus
# ---------------------------------------------------------------------------

#: a `kernels` region: the auto-parallelizer schedules it and recognizes
#: the reduction (no other corpus source runs `auto-parallelize`)
KERNELS_MATMUL_SRC = """
float A[n2];
float B[n2];
float C[n2];
#pragma acc kernels copyin(A, B) copyout(C)
{
  for (i = 0; i < n; i++) {
    for (j = 0; j < n; j++) {
      float c = 0.0f;
      for (k = 0; k < n; k++)
        c += A[i*n+k] * B[k*n+j];
      C[i*n+j] = c;
    }
  }
}
"""

#: compiled once during set-up so one-time lazy imports and first-use
#: costs of the process do not land in the first timed op
WARM_SRC = """
float a[n];
float total = 0.0f;
#pragma acc parallel copyin(a)
#pragma acc loop gang worker vector reduction(+:total)
for (i = 0; i < n; i++)
    total += a[i];
"""


class _AppSource:
    """A corpus entry built from an app's C source, with its reference."""

    def __init__(self, label, source, make_inputs, check, **geometry):
        self.geometry = {**CORPUS_GEOMETRY, **geometry}
        self.label = label
        self.source = source
        self.make_inputs = make_inputs
        #: ``check(inputs, result)`` -> None, or why the result is wrong
        self.check = check


def _close(got, want, rtol=1e-5, atol=1e-6) -> bool:
    got = np.asarray(got)
    return got.shape == np.shape(want) and bool(
        np.allclose(got, want, rtol=rtol, atol=atol))


def _app_sources(n: int) -> list[_AppSource]:
    from repro.apps.heat2d import ERROR_SRC, UPDATE_SRC
    from repro.apps.matmul import MATMUL_SRC
    from repro.apps.montecarlo_pi import PI_SRC
    from repro.apps.softmax import SOFTMAX_SRC

    side = 8  # heat grid and matmul side: n2 = side * side

    def grid(rng):
        return (rng.random((side, side), dtype=np.float32) * 100.0)

    def heat_update_inputs(rng):
        t = grid(rng)
        return {"temp1": t, "temp2": t.copy()}

    def heat_update_check(inp, res):
        t = inp["temp1"]
        want = t.copy()
        want[1:-1, 1:-1] = np.float32(0.25) * (
            t[:-2, 1:-1] + t[2:, 1:-1] + t[1:-1, :-2] + t[1:-1, 2:])
        return None if _close(res.outputs["temp2"], want) else \
            "heat update differs from the NumPy stencil"

    def heat_error_inputs(rng):
        return {"temp1": grid(rng), "temp2": grid(rng)}

    def heat_error_check(inp, res):
        want = np.abs(inp["temp1"][1:-1, 1:-1]
                      - inp["temp2"][1:-1, 1:-1]).max()
        return None if res.scalars["error"] == want else \
            f"heat error {res.scalars['error']} != {want}"

    def matmul_inputs(rng):
        a = rng.random(side * side, dtype=np.float32)
        b = rng.random(side * side, dtype=np.float32)
        return {"A": a, "B": b, "C": np.zeros_like(a), "n": side}

    def matmul_check(inp, res):
        a = inp["A"].reshape(side, side).astype(np.float64)
        b = inp["B"].reshape(side, side).astype(np.float64)
        want = (a @ b).reshape(-1)
        return None if _close(res.outputs["C"], want, 1e-4, 1e-4) else \
            "matmul differs from NumPy"

    def pi_inputs(rng):
        return {"x": rng.random(n, dtype=np.float32) * 2 - 1,
                "y": rng.random(n, dtype=np.float32) * 2 - 1}

    def pi_check(inp, res):
        x, y = inp["x"], inp["y"]
        want = int(np.count_nonzero(x * x + y * y < np.float32(1.0)))
        return None if int(res.scalars["m"]) == want else \
            f"pi count {res.scalars['m']} != {want}"

    def softmax_inputs(rng):
        return {"x": rng.standard_normal(n).astype(np.float32),
                "y": np.zeros(n, np.float32),
                "m": np.float32(-np.inf), "s": np.float32(0.0)}

    def softmax_check(inp, res):
        x = inp["x"].astype(np.float64)
        e = np.exp(x - x.max())
        return None if _close(res.outputs["y"], e / e.sum()) else \
            "softmax differs from NumPy"

    return [
        # the heat kernels span gang and vector only (no worker loop)
        _AppSource("app heat update", UPDATE_SRC, heat_update_inputs,
                   heat_update_check, num_workers=1),
        _AppSource("app heat error", ERROR_SRC, heat_error_inputs,
                   heat_error_check, num_workers=1),
        _AppSource("app matmul", MATMUL_SRC, matmul_inputs, matmul_check),
        _AppSource("app kernels matmul", KERNELS_MATMUL_SRC, matmul_inputs,
                   matmul_check),
        _AppSource("app pi", PI_SRC, pi_inputs, pi_check),
        _AppSource("app softmax", SOFTMAX_SRC, softmax_inputs,
                   softmax_check),
    ]


class CompileCorpus(Sequential):
    """``acc.compile`` + first ``Program.run`` of one source per op."""

    name = "compile-corpus"

    def __init__(self):
        from repro.testsuite.cases import ALL_CTYPES, ALL_OPS, \
            generate_cases
        self.ops = (generate_cases(ops=ALL_OPS, ctypes=ALL_CTYPES,
                                   size=CORPUS_N)
                    + _app_sources(CORPUS_N))

    def setup(self, seed, tick=lambda: None):
        from repro import acc
        prog = acc.compile(WARM_SRC, **CORPUS_GEOMETRY)
        prog.run(a=np.ones(CORPUS_N, np.float32))

    def order(self, seed, pass_no):
        return [int(i) for i in _rng(seed, pass_no, 7).permutation(
            len(self.ops))]

    def inputs(self, seed, pass_no, i):
        # a comment naming the pass makes every op's source text new to
        # the process, so no source-keyed memo can serve it
        src = f"// corpus pass {pass_no}\n{self.ops[i].source}"
        return src, self.ops[i].make_inputs(_rng(seed, pass_no, i))

    def run(self, i, inputs):
        from repro import acc
        src, arrays = inputs
        prog = acc.compile(src, **getattr(self.ops[i], "geometry",
                                          CORPUS_GEOMETRY))
        return prog.run(**arrays)

    def check(self, i, inputs, result):
        op = self.ops[i]
        if isinstance(op, _AppSource):
            return op.check(inputs[1], result)
        return check_case(op, inputs[1], result.scalars, result.outputs)

    def digest(self, result):
        return digest(result.scalars, result.outputs)


# ---------------------------------------------------------------------------
# apps
# ---------------------------------------------------------------------------

class Apps(Sequential):
    """One call of an evaluation app per op."""

    name = "apps"
    ops = ["heat", "matmul", "pi", "softmax"]

    def setup(self, seed, tick=lambda: None):
        for i in range(len(self.ops)):
            tick()
            self.run(i, self.inputs(seed, 1_000_000, i))

    def inputs(self, seed, pass_no, i):
        rng = _rng(seed, pass_no, i)
        kind = self.ops[i]
        if kind == "heat":
            return {"boundary_temp": float(50.0 + 100.0 * rng.random())}
        if kind == "matmul":
            return {"A": rng.random((MATMUL_N, MATMUL_N), dtype=np.float32),
                    "B": rng.random((MATMUL_N, MATMUL_N), dtype=np.float32)}
        if kind == "pi":
            return {"seed": int(rng.integers(1 << 30))}
        return {"x": (rng.standard_normal(SOFTMAX_N) * 4).astype(
            np.float32)}

    def run(self, i, inputs):
        from repro import apps
        kind = self.ops[i]
        if kind == "heat":
            # tol=0 never converges early: exactly HEAT_ITERS iterations
            return apps.solve_heat(HEAT_N, tol=0.0, max_iters=HEAT_ITERS,
                                   **inputs)
        if kind == "matmul":
            return apps.matmul(inputs["A"], inputs["B"])
        if kind == "pi":
            return apps.estimate_pi(PI_N, seed=inputs["seed"])
        return apps.softmax_result(inputs["x"])

    def check(self, i, inputs, res):
        kind = self.ops[i]
        if kind == "heat":
            from repro.apps.heat2d import reference_solver
            t, errors, _ = reference_solver(
                HEAT_N, tol=0.0, max_iters=HEAT_ITERS,
                boundary_temp=inputs["boundary_temp"])
            if res.iterations != HEAT_ITERS or not _close(
                    res.temperature, t, 1e-5, 1e-4):
                return "heat temperature differs from reference_solver"
            if not _close(res.errors, errors, 1e-4, 1e-5):
                return "heat error trace differs from reference_solver"
            return None
        if kind == "matmul":
            want = inputs["A"].astype(np.float64) @ inputs["B"].astype(
                np.float64)
            return None if _close(res.C, want, 1e-4, 1e-3) else \
                "matmul differs from NumPy"
        if kind == "pi":
            rng = np.random.default_rng(inputs["seed"])
            x = (rng.random(PI_N, dtype=np.float32) * 2.0 - 1.0).astype(
                np.float32)
            y = (rng.random(PI_N, dtype=np.float32) * 2.0 - 1.0).astype(
                np.float32)
            want = int(np.count_nonzero(x * x + y * y < np.float32(1.0)))
            return None if res.inside == want else \
                f"pi inside {res.inside} != {want}"
        x = inputs["x"].astype(np.float64)
        e = np.exp(x - x.max())
        return None if _close(res.y, e / e.sum()) else \
            "softmax differs from NumPy"

    def digest(self, res):
        kind = type(res).__name__
        if kind == "HeatResult":
            return digest(res.temperature, np.asarray(res.errors))
        if kind == "MatmulResult":
            return digest(res.C)
        if kind == "PiResult":
            return digest(np.int64(res.inside))
        return digest(res.y)


SEQUENTIAL = {w.name: w for w in (Table2Grid, CompileCorpus, Apps)}
