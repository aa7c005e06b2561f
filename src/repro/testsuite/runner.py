"""Testsuite sweep: the Table 2 generator.

Runs the full case grid under each compiler profile and renders the results
in the shape of the paper's Table 2 (rows = reduction position × operator,
column groups = data type, columns = compilers; cells = modeled ms, ``F``
for a wrong result, ``CE`` for a compile error).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.testsuite.cases import (
    ALL_CTYPES, ALL_OPS, POSITIONS, TABLE2_CTYPES, TABLE2_OPS,
    generate_cases,
)
from repro.testsuite.verify import CaseResult, run_case

__all__ = ["TestsuiteReport", "run_testsuite"]

DEFAULT_COMPILERS = ("openuh", "vendor-b", "vendor-a")  # paper column order


@dataclass
class TestsuiteReport:
    """All (case, compiler) results plus Table 2 rendering."""

    results: list[CaseResult] = field(default_factory=list)
    compilers: tuple[str, ...] = DEFAULT_COMPILERS

    def get(self, position: str, op: str, ctype: str,
            compiler: str) -> CaseResult:
        for r in self.results:
            if (r.case.position == position and r.case.op == op
                    and r.case.ctype == ctype and r.compiler == compiler):
                return r
        raise KeyError((position, op, ctype, compiler))

    def pass_count(self, compiler: str) -> int:
        return sum(1 for r in self.results
                   if r.compiler == compiler and r.passed)

    def total(self, compiler: str) -> int:
        return sum(1 for r in self.results if r.compiler == compiler)

    def to_table(self) -> str:
        """Render in the shape of the paper's Table 2."""
        comps = list(self.compilers)
        ctypes = [c for c in ALL_CTYPES
                  if any(r.case.ctype == c for r in self.results)]
        ops = [o for o in ALL_OPS
               if any(r.case.op == o for r in self.results)]
        positions = [p for p in POSITIONS
                     if any(r.case.position == p for r in self.results)]
        colw = 10
        lines = []
        header1 = f"{'Position':<30}{'Op':<4}"
        header2 = " " * 34
        for ct in ctypes:
            header1 += f"{ct.capitalize():^{colw * len(comps)}}"
            for comp in comps:
                header2 += f"{comp:^{colw}}"
        lines.append(header1)
        lines.append(header2)
        lines.append("-" * len(header2))
        for pos in positions:
            for op in ops:
                row = f"{pos:<30}{op:<4}"
                for ct in ctypes:
                    for comp in comps:
                        try:
                            cell = self.get(pos, op, ct, comp).cell()
                        except KeyError:
                            cell = "-"
                        row += f"{cell:^{colw}}"
                lines.append(row)
        lines.append("-" * len(header2))
        summary = ", ".join(
            f"{comp}: {self.pass_count(comp)}/{self.total(comp)} passed"
            for comp in comps)
        lines.append(summary)
        return "\n".join(lines)


def run_testsuite(compilers=DEFAULT_COMPILERS, positions=POSITIONS,
                  ops=TABLE2_OPS, ctypes=TABLE2_CTYPES, size: int = 2048,
                  sizes: dict | None = None,
                  num_gangs: int | None = None,
                  num_workers: int | None = None,
                  vector_length: int | None = None,
                  progress=None, profiler=None,
                  metrics=None) -> TestsuiteReport:
    """Run the grid; ``progress`` (if given) is called per finished case.

    ``profiler`` (a :class:`repro.obs.Profiler`) accumulates kernel
    records and spans across every case; ``metrics`` (a
    :class:`repro.obs.MetricsRegistry`, defaulting to the profiler's when
    one is attached) tallies per-compiler case outcomes under
    ``testsuite.*`` names.
    """
    if metrics is None and profiler is not None:
        metrics = profiler.metrics
    report = TestsuiteReport(compilers=tuple(compilers))
    cases = generate_cases(positions=positions, ops=ops, ctypes=ctypes,
                           size=size, sizes=sizes)
    for case in cases:
        for comp in compilers:
            r = run_case(case, comp, num_gangs=num_gangs,
                         num_workers=num_workers,
                         vector_length=vector_length, profiler=profiler)
            report.results.append(r)
            if metrics is not None:
                metrics.counter("testsuite.cases").inc()
                metrics.counter(
                    f"testsuite.{r.status}.{r.compiler}").inc()
                if r.modeled_ms is not None:
                    metrics.histogram(
                        f"testsuite.kernel_ms.{r.compiler}").observe(
                            r.modeled_ms)
            if progress:
                progress(r)
    return report
