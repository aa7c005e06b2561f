"""Data-region tests: persistent device data across program runs."""

import numpy as np
import pytest

from repro import acc
from repro.acc import RunOptions
from repro.errors import RuntimeDataError
from repro.acc.dataregion import DataRegion

GEOM = dict(num_gangs=4, num_workers=2, vector_length=32)

SCALE = """
float a[n];
#pragma acc parallel copy(a)
#pragma acc loop gang worker vector
for (i = 0; i < n; i++)
    a[i] = a[i] * 2.0f;
"""

SUM = """
float a[n];
long s = 0;
#pragma acc parallel copyin(a)
#pragma acc loop gang worker vector reduction(+:s)
for (i = 0; i < n; i++)
    s += a[i];
"""


class TestLifetime:
    def test_data_stays_resident_across_runs(self):
        prog = acc.compile(SCALE, **GEOM)
        a = np.ones(128, np.float32)
        with DataRegion(copy={"a": a}) as region:
            for _ in range(3):
                prog.run(RunOptions(data_region=region))
        np.testing.assert_allclose(region.results["a"], 8.0)

    def test_original_host_array_untouched(self):
        prog = acc.compile(SCALE, **GEOM)
        a = np.ones(64, np.float32)
        with DataRegion(copy={"a": a}) as region:
            prog.run(RunOptions(data_region=region))
        assert (a == 1.0).all()

    def test_no_per_run_transfers(self):
        prog = acc.compile(SUM, **GEOM)
        a = np.ones(4096, np.float32)
        with DataRegion(copyin={"a": a}) as region:
            res = prog.run(RunOptions(data_region=region))
        labels = [lbl for lbl, _ in res.ledger.entries]
        assert not any(lbl.startswith("h2d:a") for lbl in labels)
        region_labels = [lbl for lbl, _ in region.ledger.entries]
        assert "h2d:a" in region_labels  # charged once, at region entry

    def test_transfer_savings_for_iterative_use(self):
        prog = acc.compile(SUM, **GEOM)
        a = np.ones(1 << 16, np.float32)
        iters = 5

        naive = sum(prog.run(a=a).modeled_ms for _ in range(iters))

        with DataRegion(copyin={"a": a}) as region:
            pooled = sum(prog.run(RunOptions(data_region=region)).modeled_ms
                         for _ in range(iters))
        pooled += region.transfer_ms
        assert pooled < naive

    def test_two_programs_share_one_region(self):
        scale = acc.compile(SCALE, **GEOM)
        total = acc.compile(SUM, **GEOM)
        a = np.ones(100, np.float32)
        with DataRegion(copy={"a": a}) as region:
            scale.run(RunOptions(data_region=region))
            res = total.run(RunOptions(data_region=region))
        assert res.scalars["s"] == 200  # summed the scaled values

    def test_mixed_region_and_per_run_arrays(self):
        src = """
        float a[n];
        float b[n];
        #pragma acc parallel copyin(a) copyout(b)
        #pragma acc loop gang worker vector
        for (i = 0; i < n; i++)
            b[i] = a[i] + 1.0f;
        """
        prog = acc.compile(src, **GEOM)
        a = np.arange(32, dtype=np.float32)
        with DataRegion(copyin={"a": a}) as region:
            res = prog.run(RunOptions(data_region=region),
                           b=np.zeros(32, np.float32))
        np.testing.assert_allclose(res.outputs["b"], a + 1)

    def test_region_held_outputs_not_in_run_outputs(self):
        prog = acc.compile(SCALE, **GEOM)
        a = np.ones(16, np.float32)
        with DataRegion(copy={"a": a}) as region:
            res = prog.run(RunOptions(data_region=region))
            assert "a" not in res.outputs  # still device-resident
        assert "a" in region.results


class TestUpdateDirectives:
    def test_update_host_mid_region(self):
        prog = acc.compile(SCALE, **GEOM)
        a = np.ones(16, np.float32)
        with DataRegion(copy={"a": a}) as region:
            prog.run(RunOptions(data_region=region))
            mid = region.update_host("a")
            np.testing.assert_allclose(mid, 2.0)
            prog.run(RunOptions(data_region=region))
        np.testing.assert_allclose(region.results["a"], 4.0)

    def test_update_device_mid_region(self):
        prog = acc.compile(SUM, **GEOM)
        a = np.ones(16, np.float32)
        with DataRegion(copyin={"a": a}) as region:
            region.update_device("a", np.full(16, 3.0, np.float32))
            res = prog.run(RunOptions(data_region=region))
        assert res.scalars["s"] == 48

    def test_update_unknown_name(self):
        with DataRegion(copyin={"a": np.ones(4, np.float32)}) as region:
            with pytest.raises(RuntimeDataError):
                region.update_host("b")


class TestValidation:
    def test_inactive_region_rejected(self):
        prog = acc.compile(SCALE, **GEOM)
        region = DataRegion(copy={"a": np.ones(8, np.float32)})
        with pytest.raises(RuntimeDataError, match="not active"):
            prog.run(RunOptions(data_region=region))

    def test_closed_region_rejected(self):
        prog = acc.compile(SCALE, **GEOM)
        with DataRegion(copy={"a": np.ones(8, np.float32)}) as region:
            pass
        with pytest.raises(RuntimeDataError, match="not active"):
            prog.run(RunOptions(data_region=region))

    def test_empty_region_rejected(self):
        with pytest.raises(RuntimeDataError):
            DataRegion()

    def test_duplicate_clause_rejected(self):
        a = np.ones(4, np.float32)
        with pytest.raises(RuntimeDataError):
            DataRegion(copy={"a": a}, copyin={"a": a})

    def test_reentry_rejected(self):
        region = DataRegion(copy={"a": np.ones(4, np.float32)})
        with region:
            pass
        with pytest.raises(RuntimeDataError):
            region.__enter__()
