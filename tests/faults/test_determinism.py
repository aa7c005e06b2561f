"""The determinism contract: same seed ⇒ same fault sites, same campaign."""

import numpy as np

from repro import acc
from repro.acc import RunOptions
from repro.faults import FaultPlan, run_campaign

VECSUM = """
float a[n];
float total = 0.0;
#pragma acc parallel copyin(a)
#pragma acc loop gang worker vector reduction(+:total)
for (i = 0; i < n; i++)
    total += a[i];
"""


def _run_with(seed):
    prog = acc.compile(VECSUM, num_gangs=4, num_workers=2,
                       vector_length=32)
    a = np.arange(256, dtype=np.float32)
    inj = FaultPlan(seed=seed, p_gload_flip=0.05,
                    max_faults=None).injector()
    res = prog.run(RunOptions(faults=inj, runs=3, degrade=True), a=a)
    return inj, res


class TestInjectorDeterminism:
    def test_same_seed_identical_fault_sites(self):
        inj1, res1 = _run_with(seed=13)
        inj2, res2 = _run_with(seed=13)
        assert [r.to_dict() for r in inj1.records] == \
            [r.to_dict() for r in inj2.records]
        assert res1.strategy == res2.strategy
        assert res1.scalars["total"].tobytes() == \
            res2.scalars["total"].tobytes()

    def test_different_seed_different_sites(self):
        # not guaranteed in principle, but with many draws the chance of a
        # collision across seeds is negligible; a failure here means the
        # seed is being ignored
        inj1, _ = _run_with(seed=1)
        inj2, _ = _run_with(seed=2)
        assert [r.to_dict() for r in inj1.records] != \
            [r.to_dict() for r in inj2.records]


class TestCampaignDeterminism:
    def test_same_seed_identical_campaign_table(self):
        kw = dict(seed=4, trials=12, num_gangs=4, num_workers=2,
                  vector_length=32, size=128)
        c1 = run_campaign(VECSUM, **kw)
        c2 = run_campaign(VECSUM, **kw)
        assert c1.to_dict() == c2.to_dict()
        assert c1.table() == c2.table()

    def test_trial_seeds_are_unique_and_seed_dependent(self):
        kw = dict(trials=12, num_gangs=4, num_workers=2,
                  vector_length=32, size=128)
        c1 = run_campaign(VECSUM, seed=0, **kw)
        c2 = run_campaign(VECSUM, seed=1, **kw)
        s1 = [t.plan_seed for t in c1.trials]
        s2 = [t.plan_seed for t in c2.trials]
        assert len(set(s1)) == len(s1)
        assert set(s1).isdisjoint(s2)
