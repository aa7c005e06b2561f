"""The zero-overhead pin: ``Program.run()`` with every robustness knob at
its default must be bit-identical — results *and* modeled cost — to the
plain execution path, mirroring the profiler's pure-observer guarantee."""

import numpy as np

from repro import acc
from repro.acc import RunOptions

SRC = """
float a[n];
double total = 0.0;
int hits = 0;
#pragma acc parallel copy(a)
#pragma acc loop gang worker vector reduction(+:total) reduction(+:hits)
for (i = 0; i < n; i++) {
    total += a[i];
    if (a[i] > 4.0f) hits += 1;
}
"""


def _inputs():
    rng = np.random.default_rng(7)
    return {"a": (rng.random(192) * 8).astype(np.float32)}


class TestZeroOverhead:
    def test_default_run_takes_the_plain_path_bit_identical(self):
        prog = acc.compile(SRC, num_gangs=4, num_workers=2,
                           vector_length=32)
        via_run = prog.run(**_inputs())
        plain = prog._execute(RunOptions(), _inputs())

        assert via_run.strategy == "primary"
        assert via_run.attempts == 1 and not via_run.degradations
        for name, v in plain.scalars.items():
            got = via_run.scalars[name]
            assert got == v and got.dtype == v.dtype
            assert np.asarray(got).tobytes() == np.asarray(v).tobytes()
        for name, arr in plain.outputs.items():
            assert via_run.outputs[name].tobytes() == arr.tobytes()
        # modeled cost identical entry by entry: no hidden ledger items
        assert via_run.ledger.entries == plain.ledger.entries
        assert set(via_run.kernel_stats) == set(plain.kernel_stats)

    def test_default_run_shares_one_options_object(self, monkeypatch):
        """A run without options reuses the module default (no per-call
        allocation) and never enters the hardened path."""
        from repro.acc import compiler

        prog = acc.compile(SRC, num_gangs=4, num_workers=2,
                           vector_length=32)
        seen = []
        plain = prog._execute

        def spy(opts, bindings):
            seen.append(opts)
            return plain(opts, bindings)

        monkeypatch.setattr(prog, "_execute", spy)
        monkeypatch.setattr(prog, "_run_hardened", None)
        prog.run(**_inputs())
        prog.run(**_inputs())
        assert len(seen) == 2
        assert all(o is compiler._DEFAULT_OPTIONS for o in seen)

    def test_default_watchdog_does_not_change_stats(self):
        """The watchdog counts loop steps on existing control flow; it must
        not add events, transactions, or modeled time."""
        prog = acc.compile(SRC, num_gangs=4, num_workers=2,
                           vector_length=32)
        base = prog.run(**_inputs())
        budgeted = prog.run(RunOptions(watchdog_budget=10_000_000),
                            **_inputs())
        disabled = prog.run(RunOptions(watchdog_budget=0), **_inputs())
        for other in (budgeted, disabled):
            assert other.ledger.entries == base.ledger.entries
            assert other.scalars["total"].tobytes() == \
                base.scalars["total"].tobytes()

    def test_run_repeatable(self):
        prog = acc.compile(SRC, num_gangs=4, num_workers=2,
                           vector_length=32)
        r1 = prog.run(**_inputs())
        r2 = prog.run(**_inputs())
        assert r1.scalars["total"].tobytes() == r2.scalars["total"].tobytes()
        assert r1.ledger.entries == r2.ledger.entries
