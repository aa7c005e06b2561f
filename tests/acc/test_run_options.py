"""``Program.run(options, /, **bindings)``: the run policy is one object,
so region arrays and scalars may take any name."""

import dataclasses

import numpy as np
import pytest

from repro import acc
from repro.acc import RunOptions
from repro.errors import RuntimeDataError
from repro.gpu import GlobalMemory, K20C, launch
from repro.ir.interp import run_host
from repro.obs import Profiler, timeline

GEOM = dict(num_gangs=4, num_workers=2, vector_length=32)

#: every RunOptions field names an array or scalar of this region
COLLIDING = """
float trace[n];
float data_region[n];
int profiler[n];
float faults[n];
float runs;
int attribution;
int watchdog_budget = 0;
float executor_mode = 0.0f;
int max_attempts = 0;
int validate = 0;
int degrade = 0;
#pragma acc parallel copyin(trace, data_region, profiler) copyout(faults)
#pragma acc loop gang worker vector reduction(+:watchdog_budget) \
    reduction(max:executor_mode) reduction(|:validate) \
    reduction(max:max_attempts) reduction(+:degrade)
for (i = 0; i < n; i++) {
    faults[i] = trace[i] * runs + data_region[i];
    watchdog_budget += profiler[i] * attribution;
    executor_mode = fmax(executor_mode, trace[i]);
    validate |= profiler[i];
    max_attempts = max(max_attempts, profiler[i]);
    degrade += 1;
}
"""

VECSUM = """
float a[n];
float total = 0.0f;
#pragma acc parallel copyin(a)
#pragma acc loop gang worker vector reduction(+:total)
for (i = 0; i < n; i++)
    total += a[i];
"""


def _colliding_bindings(n=300):
    rng = np.random.default_rng(0)
    return dict(trace=rng.random(n).astype(np.float32),
                data_region=rng.random(n).astype(np.float32),
                profiler=rng.integers(0, 50, n).astype(np.int32),
                faults=np.zeros(n, np.float32),
                runs=np.float32(2.5), attribution=np.int32(3))


class TestNameCollisions:
    def test_region_names_cover_every_option_field(self):
        prog = acc.compile(COLLIDING, **GEOM)
        names = ({a.name for a in prog.region.arrays}
                 | {s.name for s in prog.region.scalars})
        fields = {f.name for f in dataclasses.fields(RunOptions)}
        assert fields <= names

    @pytest.mark.parametrize("options", [
        None,
        RunOptions(executor_mode="reference"),
        RunOptions(runs=3, max_attempts=2, degrade=True),
    ], ids=["default", "reference", "hardened"])
    def test_colliding_region_matches_host(self, options):
        prog = acc.compile(COLLIDING, **GEOM)
        bindings = _colliding_bindings()
        res = prog.run(options, **bindings)
        host = run_host(prog.region, **bindings)
        for name, value in res.scalars.items():
            want = host.scalars[name]
            assert value.dtype == want.dtype, name
            assert value.tobytes() == want.tobytes(), name
        assert (res.outputs["faults"].tobytes()
                == host.arrays["faults"].reshape(-1).tobytes())


class TestCallShape:
    def test_options_are_positional_only(self):
        prog = acc.compile(VECSUM, **GEOM)
        a = np.ones(64, np.float32)
        # a keyword named like the parameter is a binding, not options
        with pytest.raises(RuntimeDataError, match="options"):
            prog.run(options=RunOptions(), a=a)

    def test_option_keywords_are_bindings(self):
        prog = acc.compile(VECSUM, **GEOM)
        with pytest.raises(RuntimeDataError,
                           match=r"'executor_mode'.*RunOptions\(executor"):
            prog.run(executor_mode="reference", a=np.ones(64, np.float32))

    def test_non_options_positional_rejected(self):
        prog = acc.compile(VECSUM, **GEOM)
        with pytest.raises(TypeError, match="RunOptions"):
            prog.run({"executor_mode": "reference"},
                     a=np.ones(64, np.float32))

    def test_options_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            RunOptions().runs = 3


class TestKernelSpanExecutor:
    """The bus kernel span reports the executor that actually ran."""

    def test_program_span_follows_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "reference")
        prog = acc.compile(VECSUM, **GEOM)
        prof = Profiler()
        with timeline.enabled() as tl:
            prog.run(RunOptions(profiler=prof), a=np.ones(256, np.float32))
        spans = [e for e in tl.events("gpu", kind="span")
                 if e.name.startswith("kernel:")]
        decisions = [e for e in tl.events("gpu", kind="decision")
                     if e.name == "executor-mode"]
        assert spans and len(spans) == len(decisions)
        assert {e.attrs["executor"] for e in spans} == {"reference"}
        assert {e.attrs["mode"] for e in decisions} == {"reference"}
        assert {k.executor for k in prof.kernels} == {"reference"}

    def test_launch_span_follows_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "reference")
        prog = acc.compile(VECSUM, **GEOM)
        kernel = prog.lowered.main_kernel
        g = GlobalMemory(K20C)
        for name in kernel.buffers:
            g.alloc(name, 256, prog.region.arrays[0].dtype)
        prof = Profiler()
        with timeline.enabled() as tl:
            launch(kernel, g, grid_dim=4, block_dim=(32, 2),
                   params={"n": np.int32(256)}, profiler=prof)
        (span,) = [e for e in tl.events("gpu", kind="span")
                   if e.name == f"kernel:{kernel.name}"]
        assert span.attrs["executor"] == "reference"
        assert prof.kernels[0].executor == "reference"
