"""Seeded fault-injection campaigns: N trials, one classification table.

A campaign compiles a program once, computes a fault-free reference
result, then runs ``trials`` seeded fault trials.  Each trial enables
exactly one fault kind (rotating through :data:`~repro.faults.plan.
FAULT_KINDS`) with a trial-unique seed and ``max_faults=1``, runs the
program through the hardened ``Program.run`` path, and classifies the
outcome:

* ``clean``              — the plan's dice never fired; nothing injected;
* ``masked``             — a fault was injected but the result is correct
  with no corrective machinery engaged (it landed somewhere harmless);
* ``detected``           — a typed :class:`~repro.errors.ReproError`
  surfaced to the caller (breakage became a detectable event);
* ``corrected-by-retry`` — a transient fault was retried successfully;
* ``degraded``           — the answer was served by a fallback strategy
  or corrected by redundant-execution voting;
* ``escaped``            — the result is wrong and nothing noticed.
  **With detection enabled this count must be zero** — that is the
  subsystem's acceptance bar, enforced by the CLI exit code.

Everything is deterministic: the same base seed reproduces the same
fault sites and the same table, so a campaign failure is replayable.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from repro import acc
from repro.bench.harness import Series, format_series
from repro.errors import ReproError
from repro.faults.plan import FAULT_KINDS, FaultPlan

__all__ = ["CampaignResult", "TrialOutcome", "run_campaign",
           "synthesize_inputs", "CATEGORIES"]

CATEGORIES = ("clean", "masked", "detected", "corrected-by-retry",
              "degraded", "escaped")


def synthesize_inputs(prog, kwargs: dict, size: int,
                      rng_seed: int = 0) -> None:
    """Fill region arrays not already present in ``kwargs``.

    Symbolic extents already bound by a provided array keep that binding;
    everything else defaults to ``size``.  Floats get uniform [0, 8) data,
    integers small non-negative values — enough to exercise every kernel
    without overflowing any reduction operator.  (Shared by the campaign
    runner and the ``profile`` CLI subcommand.)
    """
    bound: dict[str, int] = {}
    for info in prog.region.arrays:
        host = kwargs.get(info.name)
        if host is None or not info.extents:
            continue
        for i, ext in enumerate(info.extents):
            if isinstance(ext, str) and i < np.ndim(host):
                bound[ext] = host.shape[i]
    rng = np.random.default_rng(rng_seed)
    for info in prog.region.arrays:
        if info.name in kwargs:
            continue
        extents = info.extents or (size,)
        shape = tuple(ext if isinstance(ext, int) else bound.get(ext, size)
                      for ext in extents)
        n = int(np.prod(shape))
        if info.dtype.np.kind == "f":
            arr = (rng.random(n) * 8).astype(info.dtype.np)
        else:
            arr = rng.integers(0, 8, n).astype(info.dtype.np)
        kwargs[info.name] = arr.reshape(shape)
        for i, ext in enumerate(extents):
            if isinstance(ext, str):
                bound.setdefault(ext, shape[i])


@dataclass(frozen=True)
class TrialOutcome:
    """Classification of one fault trial."""

    trial: int
    kind: str       # fault kind this trial armed
    plan_seed: int
    category: str   # one of CATEGORIES
    sites: tuple[str, ...]  # fault sites actually hit
    strategy: str   # strategy that served the answer ("" when detected)
    attempts: int
    error: str      # surfaced error type name ("" unless detected)

    def to_dict(self) -> dict:
        return {"trial": self.trial, "kind": self.kind,
                "plan_seed": self.plan_seed, "category": self.category,
                "sites": list(self.sites), "strategy": self.strategy,
                "attempts": self.attempts, "error": self.error}


@dataclass
class CampaignResult:
    """All trial outcomes of one campaign plus the campaign config."""

    seed: int
    trials: list[TrialOutcome]
    detect: bool
    compiler: str = "openuh"
    degradations: dict = field(default_factory=dict)

    @property
    def counts(self) -> dict[str, int]:
        c = {cat: 0 for cat in CATEGORIES}
        for t in self.trials:
            c[t.category] += 1
        return c

    @property
    def escaped(self) -> int:
        return self.counts["escaped"]

    @property
    def counts_by_kind(self) -> dict[str, dict[str, int]]:
        """fault kind → category → trial count (the table's breakdown,
        machine-readable)."""
        out: dict[str, dict[str, int]] = {}
        for t in self.trials:
            per = out.setdefault(t.kind, {cat: 0 for cat in CATEGORIES})
            per[t.category] += 1
        return out

    @property
    def escaped_by_kind(self) -> dict[str, int]:
        """fault kind → escaped-trial count (only kinds that escaped) —
        the per-kind gate: a hardening regression in *one* kind must not
        hide behind clean totals for the others."""
        return {kind: cats["escaped"]
                for kind, cats in self.counts_by_kind.items()
                if cats["escaped"]}

    def to_dict(self) -> dict:
        return {"seed": self.seed, "detect": self.detect,
                "compiler": self.compiler, "counts": self.counts,
                "counts_by_kind": self.counts_by_kind,
                "escaped_by_kind": self.escaped_by_kind,
                "trials": [t.to_dict() for t in self.trials]}

    def table(self) -> str:
        """Aligned campaign report: totals plus a per-kind breakdown."""
        counts = self.counts
        lines = [f"Fault campaign: {len(self.trials)} trials, "
                 f"seed {self.seed}, detection "
                 f"{'ON' if self.detect else 'OFF'}"]
        for cat in CATEGORIES:
            lines.append(f"  {cat:<20s} {counts[cat]:>6d}")
        kinds = [k for k, _, _ in FAULT_KINDS]
        series = []
        for cat in CATEGORIES:
            s = Series(cat)
            for kind in kinds:
                s.add(kind, sum(1 for t in self.trials
                                if t.kind == kind and t.category == cat))
            series.append(s)
        lines.append("")
        lines.append(format_series("Per-kind breakdown", series,
                                   xlabel="fault kind", unit="trials"))
        return "\n".join(lines)


def _matches(res, ref) -> bool:
    """Result equivalence up to reassociation (degraded strategies and the
    host interpreter may legitimately reassociate float reductions)."""
    for name, want in ref.scalars.items():
        got = res.scalars.get(name)
        if got is None:
            return False
        if np.asarray(want).dtype.kind == "f":
            if not np.allclose(got, want, rtol=1e-5, atol=1e-8):
                return False
        elif got != want:
            return False
    for name, want in ref.outputs.items():
        got = res.outputs.get(name)
        if got is None or got.shape != want.shape:
            return False
        if want.dtype.kind == "f":
            if not np.allclose(got, want, rtol=1e-5, atol=1e-8):
                return False
        elif not np.array_equal(got, want):
            return False
    return True


def _classify(res, ref, injector) -> str:
    if not injector.records:
        return "clean"
    if not _matches(res, ref):
        return "escaped"
    if res.degradations or res.strategy != "primary":
        return "degraded"
    if res.attempts > 1:
        return "corrected-by-retry"
    return "masked"


def run_campaign(source: str, *, seed: int = 0, trials: int = 50,
                 compiler: str = "openuh", num_gangs: int | None = None,
                 num_workers: int | None = None,
                 vector_length: int | None = None, detect: bool = True,
                 size: int = 256, watchdog_budget: int = 20_000,
                 max_attempts: int = 3, runs: int = 3,
                 inputs: dict | None = None,
                 pipeline: str | None = None) -> CampaignResult:
    """Run ``trials`` seeded single-fault trials and classify each one.

    ``detect=True`` arms the full hardening stack — transient-fault
    retries, redundant-execution voting (``runs`` replicas), and graceful
    strategy degradation — under which no injected fault may escape.
    ``detect=False`` runs each trial bare (one attempt, no voting, no
    fallback), which is how you *measure* the escape rate the hardening
    exists to eliminate.
    """
    prog = acc.compile(source, compiler=compiler, num_gangs=num_gangs,
                       num_workers=num_workers,
                       vector_length=vector_length, pipeline=pipeline)
    kwargs: dict = dict(inputs or {})
    synthesize_inputs(prog, kwargs, size)
    ref = prog.run(acc.RunOptions(watchdog_budget=watchdog_budget), **kwargs)
    armed = acc.RunOptions(watchdog_budget=watchdog_budget, degrade=detect,
                           runs=runs if detect else 1,
                           max_attempts=max_attempts if detect else 1)

    kinds = [k for k, _, _ in FAULT_KINDS]
    outcomes: list[TrialOutcome] = []
    for t in range(trials):
        kind = kinds[t % len(kinds)]
        plan_seed = int(np.random.SeedSequence([seed, t]).generate_state(1)[0])
        injector = FaultPlan.single(kind, plan_seed).injector()
        strategy, attempts, error = "", 1, ""
        try:
            # injected bit-flips legitimately push NaN/inf through kernels;
            # the numeric warnings that triggers are expected, not a bug
            with warnings.catch_warnings(), np.errstate(all="ignore"):
                warnings.simplefilter("ignore", RuntimeWarning)
                res = prog.run(replace(armed, faults=injector), **kwargs)
        except ReproError as exc:
            category = "detected" if injector.records else "clean"
            error = type(exc).__name__
        else:
            category = _classify(res, ref, injector)
            strategy, attempts = res.strategy, res.attempts
        outcomes.append(TrialOutcome(
            trial=t, kind=kind, plan_seed=plan_seed, category=category,
            sites=injector.sites, strategy=strategy, attempts=attempts,
            error=error))
    return CampaignResult(seed=seed, trials=outcomes, detect=detect,
                          compiler=compiler)
