"""``repro.reduce`` library tests: specs, operators, pairs, segments."""

import numpy as np
import pytest

from repro import reduce as R
from repro.acc import RunOptions
from repro.dtypes import DType
from repro.errors import AnalysisError
from repro.gpu import kernelir as K

GEOM = dict(num_gangs=4, num_workers=2, vector_length=32)
MODES = ("reference", "batched", "trace")


def rng():
    return np.random.default_rng(42)


class TestScalarReduce:
    def test_float_sum_matches_numpy(self):
        x = rng().standard_normal(777).astype(np.float32)
        got = R.reduce(x, **GEOM)
        np.testing.assert_allclose(got, x.sum(dtype=np.float64),
                                   rtol=1e-5)

    @pytest.mark.parametrize("op,ref", [
        ("max", np.max), ("min", np.min),
    ])
    def test_minmax_bit_exact(self, op, ref):
        x = rng().standard_normal(500).astype(np.float32)
        assert R.reduce(x, op, **GEOM) == ref(x)

    @pytest.mark.parametrize("op,ufunc", [
        ("&", np.bitwise_and), ("|", np.bitwise_or),
        ("^", np.bitwise_xor),
    ])
    def test_bitwise_int(self, op, ufunc):
        x = rng().integers(0, 1 << 30, 300).astype(np.int32)
        assert R.reduce(x, op, **GEOM) == ufunc.reduce(x)

    def test_init_folds_with_host_on_the_left(self):
        x = rng().integers(-50, 50, 200).astype(np.int64)
        assert R.reduce(x, "+", init=1000, **GEOM) == x.sum() + 1000

    def test_int_sum_wraps_like_c(self):
        x = np.full(64, np.iinfo(np.int32).max // 2, np.int32)
        with np.errstate(over="ignore"):
            expect = x.sum(dtype=np.int32)
        got = R.reduce(x, "+", **GEOM)
        assert got.dtype == np.int32
        assert got == expect

    @pytest.mark.parametrize("mode", MODES)
    def test_executor_modes_bit_identical(self, mode):
        x = rng().standard_normal(333).astype(np.float32)
        base = R.reduce(x, "+", **GEOM,
                        run_options=RunOptions(executor_mode="reference"))
        got = R.reduce(x, "+", **GEOM,
                       run_options=RunOptions(executor_mode=mode))
        assert got.tobytes() == base.tobytes()

    def test_dtype_mismatch_rejected(self):
        x = rng().standard_normal(10).astype(np.float64)
        with pytest.raises(AnalysisError, match="dtype"):
            R.reduce(x, R.ReductionSpec(op="+", dtype=DType.FLOAT),
                     **GEOM)


class TestTupleReduce:
    def test_mixed_operators_one_loop(self):
        x = rng().standard_normal(400).astype(np.float32)
        y = rng().integers(0, 1000, 400).astype(np.int32)
        s, mx = R.tuple_reduce(
            [x, y], [R.ReductionSpec("+"), R.ReductionSpec("max")],
            **GEOM)
        np.testing.assert_allclose(s, x.sum(dtype=np.float64), rtol=1e-5)
        assert mx == y.max()

    def test_scalar_and_pair_together(self):
        x = rng().standard_normal(256).astype(np.float32)
        (s, (v, i)) = R.tuple_reduce(
            [x, x], [R.ReductionSpec("+"),
                     R.ReductionSpec("max", kind="argmax")], **GEOM)
        assert v == x.max() and i == int(np.argmax(x))

    def test_length_mismatch_rejected(self):
        with pytest.raises(AnalysisError, match="length"):
            R.tuple_reduce([np.zeros(4, np.float32),
                            np.zeros(5, np.float32)], ["+", "+"], **GEOM)

    def test_source_shape(self):
        src = R.build_source(
            (R.ReductionSpec("+"), R.ReductionSpec("max", kind="argmax")),
            (DType.FLOAT, DType.FLOAT))
        assert "reduction(+:r0)" in src
        assert "reduction(argmax:r1,r1_i)" in src
        assert "gang worker vector" in src


class TestPairs:
    @pytest.mark.parametrize("mode", MODES)
    def test_argmax_matches_numpy(self, mode):
        x = rng().standard_normal(1000).astype(np.float32)
        v, i = R.argmax(x, **GEOM,
                        run_options=RunOptions(executor_mode=mode))
        assert v == x.max() and i == int(np.argmax(x))

    @pytest.mark.parametrize("mode", MODES)
    def test_argmin_matches_numpy(self, mode):
        x = rng().standard_normal(1000).astype(np.float32)
        v, i = R.argmin(x, **GEOM,
                        run_options=RunOptions(executor_mode=mode))
        assert v == x.min() and i == int(np.argmin(x))

    def test_duplicate_extremum_takes_first_index(self):
        x = np.zeros(300, np.float32)
        x[[37, 150, 250]] = 9.0
        _, i = R.argmax(x, **GEOM)
        assert i == 37

    def test_nan_never_wins(self):
        x = rng().standard_normal(128).astype(np.float32)
        x[[5, 60]] = np.nan
        v, i = R.argmax(x, **GEOM)
        finite = np.where(np.isfinite(x), x, -np.inf)
        assert v == finite.max() and i == int(np.argmax(finite))

    def test_pair_kind_requires_minmax_op(self):
        with pytest.raises(AnalysisError, match="value-index"):
            R.ReductionSpec("+", kind="argmax")


class TestSegmented:
    @pytest.mark.parametrize("mode", MODES)
    def test_float_sum_segments(self, mode):
        r = rng()
        vals = r.standard_normal(600).astype(np.float32)
        segs = r.integers(0, 12, 600).astype(np.int32)
        got = R.segmented_reduce(
            vals, segs, 12, **GEOM,
            run_options=RunOptions(executor_mode=mode))
        expect = np.zeros(12, np.float32)
        np.add.at(expect, segs, vals)
        np.testing.assert_allclose(got, expect, rtol=1e-4)

    def test_bitwise_or_segments(self):
        r = rng()
        vals = r.integers(0, 1 << 16, 256).astype(np.int32)
        segs = r.integers(0, 4, 256).astype(np.int32)
        got = R.segmented_reduce(vals, segs, 4, op="|", **GEOM)
        expect = np.zeros(4, np.int32)
        np.bitwise_or.at(expect, segs, vals)
        np.testing.assert_array_equal(got, expect)

    def test_empty_segment_keeps_identity(self):
        vals = np.ones(8, np.int32)
        segs = np.zeros(8, np.int32)
        got = R.segmented_reduce(vals, segs, 3, op="*", **GEOM)
        # segment 0 multiplies eight 1s; 1 and 2 keep the identity seed
        np.testing.assert_array_equal(got, [1, 1, 1])

    def test_out_of_range_segment_rejected(self):
        with pytest.raises(AnalysisError, match="segment ids"):
            R.segmented_reduce(np.ones(4, np.int32),
                               np.array([0, 1, 5, 0], np.int32), 3,
                               **GEOM)

    def test_unsupported_operator_rejected(self):
        with pytest.raises(AnalysisError, match="segmented_reduce"):
            R.segmented_reduce(np.ones(4, np.float32),
                               np.zeros(4, np.int32), 1, op="max",
                               **GEOM)


class TestCustomOperators:
    def test_define_and_reduce(self):
        R.define_operator(
            "smin3", identity=lambda d: np.iinfo(d.np).max,
            combine_ir=lambda a, b, d: K.Call("min", (a, b)),
            np_combine=np.minimum, integer_only=True)
        x = rng().integers(-1000, 1000, 300).astype(np.int32)
        got = R.reduce(x, "smin3",
                       update="if ({val} < {acc}) {acc} = {val};",
                       **GEOM)
        assert got == x.min()

    def test_custom_token_usable_in_pragma(self):
        from repro import acc

        R.define_operator(
            "gcd2", identity=0,
            combine_ir=lambda a, b, d: K.Call("min", (a, b)),
            np_combine=np.gcd, integer_only=True)
        # the clause parses; semantics here only exercise the frontend
        prog = acc.compile("""
int x[n];
int g = 0;
#pragma acc parallel copyin(x)
#pragma acc loop gang reduction(gcd2:g)
for (i = 0; i < n; i++) g = g + x[i];
""", **GEOM, pipeline="minimal")
        assert any(g.var == "g"
                   for g in prog.lowered.gang_reductions)

    def test_custom_without_update_template_rejected(self):
        R.define_operator(
            "noupd", identity=0,
            combine_ir=lambda a, b, d: K.Bin("+", a, b),
            np_combine=np.add)
        with pytest.raises(AnalysisError, match="update"):
            R.reduce(np.zeros(4, np.int32), "noupd", **GEOM)

    def test_builtin_token_cannot_be_redefined(self):
        with pytest.raises(AnalysisError, match="built-in"):
            R.define_operator("max", identity=0,
                              combine_ir=lambda a, b, d: a,
                              np_combine=np.add)
