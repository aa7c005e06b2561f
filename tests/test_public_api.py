"""Public-API surface tests: what a downstream user imports must exist,
be documented, and stay stable."""

import inspect

import pytest

import repro
from repro import acc


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_exports_exist(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_error_hierarchy_exported(self):
        assert issubclass(repro.CompileError, repro.ReproError)
        assert issubclass(repro.SimulationError, repro.ReproError)


class TestAccSurface:
    def test_exports_exist(self):
        for name in acc.__all__:
            assert hasattr(acc, name), name

    def test_compile_signature(self):
        sig = inspect.signature(acc.compile)
        for param in ("compiler", "num_gangs", "num_workers",
                      "vector_length", "device", "array_dtypes"):
            assert param in sig.parameters, param

    def test_run_accepts_data_region_kwarg(self):
        # the run policy is one positional-only RunOptions; every keyword
        # of Program.run is a region binding
        params = inspect.signature(acc.Program.run).parameters
        assert params["options"].kind is inspect.Parameter.POSITIONAL_ONLY
        assert params["bindings"].kind is inspect.Parameter.VAR_KEYWORD
        opts = inspect.signature(acc.RunOptions).parameters
        assert "data_region" in opts
        assert "trace" in opts

    def test_profiles_enumerable(self):
        names = set(acc.PROFILES)
        assert {"openuh", "vendor-a", "vendor-b"} <= names


class TestDocstrings:
    """Every public module and API entry point carries documentation."""

    @pytest.mark.parametrize("modname", [
        "repro", "repro.acc", "repro.gpu", "repro.frontend", "repro.ir",
        "repro.codegen", "repro.testsuite", "repro.apps", "repro.bench",
        "repro.dtypes", "repro.errors",
        "repro.gpu.device", "repro.gpu.memory", "repro.gpu.kernelir",
        "repro.gpu.executor", "repro.gpu.costmodel",
        "repro.frontend.lexer", "repro.frontend.pragmas",
        "repro.frontend.cparser",
        "repro.ir.builder", "repro.ir.analysis", "repro.ir.autopar",
        "repro.ir.interp", "repro.ir.pprint",
        "repro.codegen.mapping", "repro.codegen.lowering",
        "repro.codegen.reduction.operators",
        "repro.codegen.reduction.logstep",
        "repro.acc.compiler", "repro.acc.runtime", "repro.acc.profiles",
        "repro.acc.dataregion", "repro.acc.openmp",
        "repro.acc.launchconfig",
        "repro.testsuite.cases", "repro.testsuite.verify",
        "repro.testsuite.runner",
        "repro.apps.heat2d", "repro.apps.matmul",
        "repro.apps.montecarlo_pi",
    ])
    def test_module_docstring(self, modname):
        import importlib
        mod = importlib.import_module(modname)
        assert mod.__doc__ and len(mod.__doc__.strip()) > 30, modname

    @pytest.mark.parametrize("obj", [
        acc.compile, acc.Program, acc.Program.run, acc.DataRegion,
        acc.compile_omp, acc.RunResult,
    ])
    def test_api_docstrings(self, obj):
        assert obj.__doc__ and len(obj.__doc__.strip()) > 20
