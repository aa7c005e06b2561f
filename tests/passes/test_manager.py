"""Pass-manager tests: pipeline resolution, per-pass records, and the
pipeline's visibility in the compiled program."""

import pytest

from repro import acc
from repro.passes import (
    OPTIONAL_PASSES, PIPELINES, PassManager, PipelineSpec, resolve_pipeline,
)
from repro.acc.profiles import OPENUH, VENDOR_A, VENDOR_B

VECSUM = """
float a[n];
long total = 0;
#pragma acc parallel copyin(a)
#pragma acc loop gang worker vector reduction(+:total)
for (i = 0; i < n; i++)
    total += a[i];
"""

GEOM = dict(num_gangs=4, num_workers=2, vector_length=32)


class TestResolution:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_PASSES", "optimized")
        assert resolve_pipeline("minimal", OPENUH).name == "minimal"

    def test_env_beats_profile(self, monkeypatch):
        monkeypatch.setenv("REPRO_PASSES", "minimal")
        assert resolve_pipeline(None, OPENUH).name == "minimal"

    def test_profile_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_PASSES", raising=False)
        assert resolve_pipeline(None, OPENUH).name == "optimized"
        assert resolve_pipeline(None, VENDOR_A).name == "minimal"
        assert resolve_pipeline(None, VENDOR_B).name == "minimal"

    def test_comma_list_builds_custom_spec(self):
        spec = resolve_pipeline("fuse-finish,eliminate-barriers")
        assert spec.name == "custom:fuse-finish+eliminate-barriers"
        assert "fuse-finish" in spec.passes
        assert "eliminate-barriers" in spec.passes
        assert "autotune" not in spec.passes
        # canonical order preserved regardless of list order
        assert spec.passes == resolve_pipeline(
            "eliminate-barriers,fuse-finish").passes

    def test_empty_custom_list_is_minimal_shaped(self):
        spec = resolve_pipeline("")
        assert spec.name == "custom:none"
        assert spec.passes == PIPELINES["minimal"].passes

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown pipeline"):
            resolve_pipeline("turbo")
        with pytest.raises(ValueError, match="unknown pipeline"):
            resolve_pipeline("fuse-finish,frobnicate")

    def test_spec_passthrough(self):
        spec = PIPELINES["minimal"]
        assert resolve_pipeline(spec) is spec

    def test_optional_passes_are_a_subset_of_optimized(self):
        assert set(OPTIONAL_PASSES) < set(PIPELINES["optimized"].passes)
        assert not set(OPTIONAL_PASSES) & set(PIPELINES["minimal"].passes)


class TestManager:
    def test_unregistered_pass_rejected(self):
        with pytest.raises(ValueError, match="unregistered"):
            PassManager(PipelineSpec("bad", ("parse", "no-such-pass")))

    def test_records_one_per_pass(self):
        prog = acc.compile(VECSUM, **GEOM)
        assert [r.name for r in prog.pass_records] == \
            list(PIPELINES["optimized"].passes)
        assert all(r.wall_ms >= 0 for r in prog.pass_records)
        # without capture_ir no listings are retained
        assert all(r.before is None and r.after is None
                   for r in prog.pass_records)

    def test_capture_ir_listings(self):
        prog = acc.compile(VECSUM, **GEOM, capture_ir=True)
        recs = {r.name: r for r in prog.pass_records}
        assert recs["build-ir"].changed
        assert "region" in recs["build-ir"].after
        assert recs["lower"].changed
        assert any(name.startswith("acc_region")
                   for name in recs["lower"].after)
        # resolve-geometry only computes numbers; the listing is stable
        assert not recs["resolve-geometry"].changed


class TestProgramVisibility:
    def test_strategy_records_pipeline(self):
        prog = acc.compile(VECSUM, **GEOM, pipeline="minimal")
        assert prog.pipeline == "minimal"
        assert prog.strategy["pipeline"] == "minimal"

    def test_vendor_profiles_pin_minimal(self, monkeypatch):
        monkeypatch.delenv("REPRO_PASSES", raising=False)
        for compiler in ("vendor-a", "vendor-b"):
            prog = acc.compile(VECSUM, compiler=compiler, **GEOM)
            assert prog.pipeline == "minimal"

    def test_env_reaches_compile(self, monkeypatch):
        monkeypatch.setenv("REPRO_PASSES", "minimal")
        assert acc.compile(VECSUM, **GEOM).pipeline == "minimal"
        # explicit argument still wins over the environment
        assert acc.compile(VECSUM, **GEOM,
                           pipeline="optimized").pipeline == "optimized"
