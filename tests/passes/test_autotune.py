"""Cost-model autotune pass: exactness gating, pinned-option respect,
and the visibility of its decisions."""

import numpy as np

from repro import acc
from repro.acc import RunOptions

INT_GANG = """
float a[n];
long total = 0;
#pragma acc parallel copyin(a)
#pragma acc loop gang worker vector reduction(+:total)
for (i = 0; i < n; i++)
    total += a[i];
"""

FLOAT_GANG = INT_GANG.replace("long total = 0;", "float total = 0.0;")

MAX_GANG = """
float a[n];
float best = 0.0;
#pragma acc parallel copyin(a)
#pragma acc loop gang worker vector reduction(max:best)
for (i = 0; i < n; i++)
    best = fmaxf(best, a[i]);
"""

GEOM = dict(num_gangs=8, num_workers=2, vector_length=32)


class TestExactnessGate:
    def test_integer_reduction_is_tuned(self):
        prog = acc.compile(INT_GANG, **GEOM)
        rec = prog.autotune["total"]
        assert "skipped" not in rec
        assert "gang_partial_style" in rec
        dec = rec["gang_partial_style"]
        assert dec["choice"] in ("buffer", "atomic")
        assert set(dec["estimates_us"]) == {"buffer", "atomic"}
        assert all(us > 0 for us in dec["estimates_us"].values())

    def test_float_sum_is_skipped(self):
        prog = acc.compile(FLOAT_GANG, **GEOM)
        rec = prog.autotune["total"]
        assert "skipped" in rec and "inexact" in rec["skipped"]
        # profile defaults untouched: the finish kernel is still fused
        # away by fuse-finish, but the handoff stays 'buffer'
        assert prog.lowered.options.gang_partial_style == "buffer"
        assert "autotune" not in prog.strategy

    def test_float_max_is_exact_and_tuned(self):
        prog = acc.compile(MAX_GANG, **GEOM)
        rec = prog.autotune["best"]
        assert "skipped" not in rec
        assert "gang_partial_style" in rec

    def test_tuned_results_match_minimal_bitwise(self):
        a = (np.arange(4096) % 97).astype(np.float32)
        r0 = acc.compile(INT_GANG, **GEOM, pipeline="minimal").run(a=a)
        r1 = acc.compile(INT_GANG, **GEOM).run(a=a)
        assert np.asarray(r0.scalars["total"]).tobytes() == \
            np.asarray(r1.scalars["total"]).tobytes()


class TestPinnedOptions:
    def test_explicit_override_is_never_retuned(self):
        prog = acc.compile(INT_GANG, **GEOM, gang_partial_style="buffer")
        rec = prog.autotune.get("total", {})
        assert "gang_partial_style" not in rec
        # the pinned style really is in effect
        assert prog.lowered.options.gang_partial_style == "buffer"

    def test_vector_strategy_pin_respected(self):
        prog = acc.compile(INT_GANG, **GEOM, vector_strategy="logstep")
        rec = prog.autotune.get("total", {})
        assert "vector_strategy" not in rec

    def test_unpinned_fields_still_tuned(self):
        prog = acc.compile(INT_GANG, **GEOM, vector_strategy="logstep")
        assert "gang_partial_style" in prog.autotune.get("total", {})


class TestVisibility:
    def test_strategy_carries_overriding_choices(self):
        prog = acc.compile(INT_GANG, **GEOM)
        tuned = prog.strategy.get("autotune", {})
        overrides = {fld: dec["choice"]
                     for fld, dec in prog.autotune["total"].items()
                     if dec["choice"] != dec["default"]}
        if overrides:
            assert tuned["total"] == overrides
        else:
            assert "total" not in tuned

    def test_minimal_pipeline_records_nothing(self):
        prog = acc.compile(INT_GANG, **GEOM, pipeline="minimal")
        assert prog.autotune == {}
        assert "autotune" not in prog.strategy

    def test_decisions_in_profiler_record(self):
        from repro.obs import Profiler

        prof = Profiler()
        prog = acc.compile(INT_GANG, **GEOM, profiler=prof)
        prog.run(RunOptions(profiler=prof), a=np.ones(1024, dtype=np.float32))
        rec = prof.kernels_named("acc_region_main")[0]
        assert rec.strategy["pipeline"] == "optimized"
        if "autotune" in prog.strategy:
            assert rec.strategy["autotune"] == prog.strategy["autotune"]
