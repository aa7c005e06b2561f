"""The loadgen warm-cache statistic pairs cold misses with warm disk hits.

Most cold-wave compiles are memo hits (a program's later requests reuse
the device memo or another device's fresh disk entry), so comparing the
two waves' compile p50s compares the memo path with itself.  The gate
statistic pairs each program's cold-wave miss with its warm-wave disk
hit instead.
"""

from types import SimpleNamespace

from repro.serve.loadgen import paired_compile
from repro.serve.scheduler import RequestResult


def _corpus(sources):
    return [SimpleNamespace(request=SimpleNamespace(id=f"r{i}", source=src))
            for i, src in enumerate(sources)]


def _result(i, cache, us, status="ok"):
    return RequestResult(id=f"r{i}", status=status, cache=cache,
                         compile_us=us)


class TestPairedCompile:
    def test_pairs_misses_with_hits_of_the_same_program(self):
        corpus = _corpus(["A", "A", "A", "B", "B", "C"])
        cold = [_result(0, "miss", 80.0), _result(1, "memo", 1.0),
                _result(2, "memo", 1.0), _result(3, "miss", 60.0),
                _result(4, "hit", 5.0), _result(5, "miss", 90.0)]
        warm = [_result(0, "hit", 4.0), _result(1, "memo", 1.0),
                _result(2, "memo", 1.0), _result(3, "hit", 6.0),
                _result(4, "memo", 1.0),
                _result(5, "miss", 70.0, status="error")]
        paired = paired_compile(corpus, cold, warm)
        # C never hit in the warm wave (and its warm run failed): unpaired
        assert paired["programs"] == 2
        # nearest-rank medians over the two programs: (60, 80) and (4, 6)
        assert paired["cold_miss_p50_us"] == 60.0
        assert paired["warm_hit_p50_us"] == 4.0
        assert paired["speedup_p50"] == 15.0

    def test_memo_hits_do_not_enter_the_statistic(self):
        corpus = _corpus(["A", "A"])
        cold = [_result(0, "miss", 50.0), _result(1, "memo", 0.5)]
        warm = [_result(0, "hit", 2.0), _result(1, "memo", 0.5)]
        paired = paired_compile(corpus, cold, warm)
        assert (paired["cold_miss_p50_us"], paired["warm_hit_p50_us"]) == \
            (50.0, 2.0)

    def test_no_pairs_means_no_speedup(self):
        corpus = _corpus(["A"])
        paired = paired_compile(corpus, [_result(0, "memo", 1.0)],
                                [_result(0, "hit", 2.0)])
        assert paired["programs"] == 0
        assert paired["speedup_p50"] is None
