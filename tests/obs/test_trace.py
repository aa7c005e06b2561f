"""Trace-recorder behavior and Chrome-trace export schema."""

import json

import numpy as np

from repro.acc import RunOptions
from repro.obs.trace import CounterSample, Span, TraceRecorder


class TestRecorder:
    def test_spans_lay_out_back_to_back(self):
        tr = TraceRecorder()
        a = tr.add("k1", "kernel", 10.0)
        b = tr.add("k2", "kernel", 5.0)
        assert a.start_us == 0.0 and a.dur_us == 10.0
        assert b.start_us == 10.0
        assert tr.now() == 15.0

    def test_tracks_have_independent_clocks(self):
        tr = TraceRecorder()
        tr.add("compile", "compile", 100.0, track="host")
        k = tr.add("kernel", "kernel", 7.0)
        assert k.start_us == 0.0
        assert tr.now("host") == 100.0
        assert tr.now("device") == 7.0

    def test_region_encloses_children(self):
        tr = TraceRecorder()
        with tr.region("run", "run") as parent:
            tr.add("h2d", "transfer", 3.0)
            tr.add("main", "kernel", 9.0)
        assert parent.start_us == 0.0
        assert parent.dur_us == 12.0
        # the parent span is recorded before its children
        assert tr.spans[0] is parent


class TestChromeExport:
    def _validate(self, doc: dict) -> list[dict]:
        """Minimal Chrome trace-event schema check; returns the X events."""
        assert isinstance(doc["traceEvents"], list)
        xs = []
        for ev in doc["traceEvents"]:
            assert ev["ph"] in ("X", "M", "C")
            assert isinstance(ev["pid"], int)
            assert isinstance(ev["tid"], int)
            if ev["ph"] == "C":
                assert isinstance(ev["name"], str) and ev["name"]
                assert ev["ts"] >= 0
                assert isinstance(ev["args"], dict)
            if ev["ph"] == "X":
                assert isinstance(ev["name"], str) and ev["name"]
                assert ev["ts"] >= 0 and ev["dur"] >= 0
                assert isinstance(ev["args"], dict)
                xs.append(ev)
        return xs

    def test_document_shape(self):
        tr = TraceRecorder()
        tr.add("k", "kernel", 2.5, grid=4)
        doc = json.loads(tr.to_json())
        xs = self._validate(doc)
        assert len(xs) == 1
        assert xs[0]["name"] == "k"
        assert xs[0]["args"]["grid"] == 4
        # track-name metadata present for both tracks
        names = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert len(names) == 2

    def test_device_and_host_get_distinct_tids(self):
        tr = TraceRecorder()
        tr.add("d", "kernel", 1.0)
        tr.add("h", "compile", 1.0, track="host")
        xs = self._validate(tr.to_chrome())
        assert xs[0]["tid"] != xs[1]["tid"]

    def test_span_round_trips_through_json(self):
        s = Span("n", "c", 1.25, 2.5, "device", {"k": 1})
        assert json.loads(json.dumps(s.to_chrome()))["dur"] == 2.5

    def test_counter_samples_export_as_C_events(self):
        tr = TraceRecorder()
        tr.add("k", "kernel", 4.0)
        c = tr.counter("k.stmt_gtx", {"s0": 12, "s3": 7})
        assert isinstance(c, CounterSample)
        assert c.ts_us == 4.0  # sampled at the track clock, after the span
        doc = json.loads(tr.to_json())
        self._validate(doc)
        cs = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert len(cs) == 1
        assert cs[0]["name"] == "k.stmt_gtx"
        assert cs[0]["ts"] == 4.0
        assert cs[0]["args"] == {"s0": 12, "s3": 7}


class TestProfiledRunNesting:
    """Span nesting of a real profiled run: the ``run`` region must
    enclose its transfer and kernel children on the device track, and
    compile phases must land on the host track."""

    SRC = """float a[n];
float total = 0.0;
#pragma acc parallel copyin(a)
#pragma acc loop gang worker vector reduction(+:total)
for (i = 0; i < n; i++)
    total += a[i];
"""

    def _profiled_doc(self):
        from repro import acc, obs
        prof = obs.Profiler()
        prog = acc.compile(self.SRC, num_gangs=4, num_workers=2,
                           vector_length=32, profiler=prof)
        prog.run(RunOptions(profiler=prof),
                 a=(np.arange(256) % 7).astype(np.float32))
        return prof, json.loads(prof.to_json())

    def test_run_region_encloses_transfer_and_kernel_spans(self):
        prof, doc = self._profiled_doc()
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        by_cat = {}
        for ev in xs:
            by_cat.setdefault(ev["cat"], []).append(ev)
        assert by_cat["run"], "no run region recorded"
        run = by_cat["run"][0]
        for cat in ("transfer", "kernel"):
            assert by_cat[cat], f"no {cat} spans recorded"
            for child in by_cat[cat]:
                assert child["tid"] == run["tid"]
                assert run["ts"] <= child["ts"]
                assert (child["ts"] + child["dur"]
                        <= run["ts"] + run["dur"] + 1e-6), child["name"]

    def test_compile_phases_nest_on_host_track(self):
        prof, doc = self._profiled_doc()
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        hosts = [e for e in xs if e["cat"] == "compile"]
        devices = [e for e in xs if e["cat"] in ("kernel", "transfer")]
        assert hosts and devices
        assert {e["tid"] for e in hosts}.isdisjoint(
            {e["tid"] for e in devices})
        # host spans also lay out back-to-back (non-overlapping)
        hosts.sort(key=lambda e: e["ts"])
        for a, b in zip(hosts, hosts[1:]):
            assert a["ts"] + a["dur"] <= b["ts"] + 1e-6
