"""The pass pipeline's bit-identity contract (acceptance pin).

The full testsuite grid — every Table 2 reduction position x operator x
dtype — must produce bitwise-identical results under the ``minimal``
pipeline (the paper-shape lowering, no optimization passes) and the
default ``optimized`` pipeline, on all three executors (reference,
batched, trace — the trace mode transparently demotes ineligible
kernels, so requesting it is always safe).  The kernel-IR passes
(fusion, barrier elimination, folding) are transformations that preserve
the combination tree exactly, and the autotuner only retunes reductions
whose combine is grouping-invariant — so any bitwise divergence here is
a bug in a pass, not an accepted rounding difference.
"""

import numpy as np
import pytest

from repro import acc
from repro.acc import RunOptions
from repro.testsuite.cases import generate_cases

GEOM = dict(num_gangs=4, num_workers=2, vector_length=32)

CASES = generate_cases(size=256)


def _bits(res):
    return {name: np.asarray(val).tobytes()
            for name, val in res.scalars.items()}


@pytest.mark.parametrize("case", CASES, ids=[c.label for c in CASES])
def test_minimal_and_optimized_pipelines_bit_identical(case):
    rng = np.random.default_rng(3)
    inputs = case.make_inputs(rng)
    progs = {pipe: acc.compile(case.source, **GEOM, pipeline=pipe)
             for pipe in ("minimal", "optimized")}
    results = {(pipe, mode): prog.run(RunOptions(executor_mode=mode), **inputs)
               for pipe, prog in progs.items()
               for mode in ("reference", "batched", "trace")}

    baseline = _bits(results[("minimal", "reference")])
    for key, res in results.items():
        assert _bits(res) == baseline, \
            f"pipeline/executor {key} diverged bitwise from " \
            "minimal/reference"

    # and the shared answer verifies against the host oracle
    res = results[("optimized", "batched")]
    for kind, name, expect in case.expected(inputs):
        got = res.scalars[name] if kind == "scalar" else res.outputs[name]
        np.testing.assert_allclose(
            np.asarray(got, dtype=np.float64),
            np.asarray(expect, dtype=np.float64), rtol=1e-5)


#: cascaded-reduction workloads for the cascade-fusion on/off pin:
#: (label, source) — each has at least one reduce→consume stage handoff
_SOFTMAX_SRC = """
float x[n];
float y[n];
float m = -3.0e38f;
float s = 0.0f;
#pragma acc parallel copyin(x) copyout(y)
{
#pragma acc loop gang worker vector reduction(max:m)
for (i = 0; i < n; i++) if (x[i] > m) m = x[i];
#pragma acc loop gang worker vector
for (i = 0; i < n; i++) y[i] = expf(x[i] - m);
#pragma acc loop gang worker vector reduction(+:s)
for (i = 0; i < n; i++) s = s + y[i];
#pragma acc loop gang worker vector
for (i = 0; i < n; i++) y[i] = y[i] / s;
}
"""

_MEANDEV_SRC = """
float x[n];
float s = 0.0f;
float d = 0.0f;
#pragma acc parallel copyin(x)
{
#pragma acc loop gang worker vector reduction(+:s)
for (i = 0; i < n; i++) s = s + x[i];
#pragma acc loop gang worker vector reduction(max:d)
for (i = 0; i < n; i++) if (x[i] - s > d) d = x[i] - s;
}
"""

CASCADES = [("softmax", _SOFTMAX_SRC), ("mean-dev", _MEANDEV_SRC)]


@pytest.mark.parametrize("label,src", CASCADES,
                         ids=[c[0] for c in CASCADES])
def test_cascade_fusion_on_off_bit_identical(label, src):
    """The cascade-fusion acceptance pin: fused, pinned-unfused, and
    minimal builds of each cascaded workload agree bitwise on every
    scalar and output array, in all three executor modes."""
    rng = np.random.default_rng(17)
    x = rng.standard_normal(256).astype(np.float32)
    progs = {
        "fused": acc.compile(src, **GEOM, pipeline="optimized"),
        "never": acc.compile(src, **GEOM, pipeline="optimized",
                             cascade_fusion="never"),
        "minimal": acc.compile(src, **GEOM, pipeline="minimal"),
    }
    extra = {"y": np.zeros_like(x)} if "float y[n]" in src else {}
    baseline = None
    for pipe, prog in progs.items():
        for mode in ("reference", "batched", "trace"):
            res = prog.run(RunOptions(executor_mode=mode), x=x, **extra)
            bits = {name: np.asarray(val).tobytes()
                    for name, val in res.scalars.items()}
            bits.update({name: arr.tobytes()
                         for name, arr in res.outputs.items()})
            if baseline is None:
                baseline = bits
            assert bits == baseline, \
                f"{label}: {pipe}/{mode} diverged bitwise"
