"""Compiled-kernel reuse: nothing a launch compiles may go stale.

``launch`` compiles afresh on every call; ``Program`` keeps one
:class:`~repro.gpu.executor.CompiledKernel` per kernel, whose per-mode
artifacts (reference closures, batched closures, the trace function) live
side by side, so switching executor modes, chunk sizes, devices or
statement ids must never serve another configuration's artifact.
"""

import numpy as np

from repro.dtypes import DType
from repro.gpu import GlobalMemory, K20C, executor_batched, launch
from repro.gpu.executor import CompiledKernel
from repro.gpu.kernelir import Bin, GStore, Kernel, Special


def ids_kernel(name="ids"):
    return Kernel(name, (
        GStore("out", Bin("+", Bin("*", Special("bx"), Special("ntid")),
                          Special("tid")),
               Special("bx")),
    ), buffers=("out",))


def _gmem(device=K20C):
    g = GlobalMemory(device)
    g.alloc("out", 64, DType.INT)
    return g


class TestCompileCache:
    def test_cached_launch_same_results(self):
        g1, g2 = _gmem(), _gmem()
        r1 = launch(ids_kernel(), g1, grid_dim=2, block_dim=(16, 2))
        r2 = launch(ids_kernel(), g2, grid_dim=2, block_dim=(16, 2))
        np.testing.assert_array_equal(g1["out"].data, g2["out"].data)
        assert r1.stats.summary() == r2.stats.summary()

    def test_different_device_is_a_different_entry(self):
        # structurally equal kernels on another device are modeled with
        # that device's launch overhead, never the first device's
        slow = K20C.with_overrides(kernel_launch_us=100.0)
        fast = launch(ids_kernel(), _gmem(), grid_dim=1, block_dim=(32, 1))
        slowed = launch(ids_kernel(), _gmem(slow), grid_dim=1,
                        block_dim=(32, 1), device=slow)
        assert fast.stats.summary() == slowed.stats.summary()
        assert slowed.modeled_us > fast.modeled_us

    def test_sid_fingerprint_separates_structural_twins(self):
        # Stmt.sid is compare=False: two structurally equal kernels with
        # different statement ids must each charge attribution to their
        # own sids
        import dataclasses

        from repro.gpu.kernelir import stamp_sids

        k1 = stamp_sids(ids_kernel())
        k2 = ids_kernel()
        k2 = dataclasses.replace(k2, body=tuple(
            dataclasses.replace(s, sid=100 + i)
            for i, s in enumerate(k2.body)))
        assert k1 == k2  # structural equality ignores sids...
        r1 = launch(k1, _gmem(), grid_dim=1, block_dim=(32, 1),
                    attribution=True)
        r2 = launch(k2, _gmem(), grid_dim=1, block_dim=(32, 1),
                    attribution=True)
        # ...but the attribution tables must not
        assert set(r1.stats.attribution.rows) == {s.sid for s in k1.body}
        assert set(r2.stats.attribution.rows) == {s.sid for s in k2.body}

    def test_mode_switch_never_serves_a_stale_closure(self, monkeypatch):
        # executor mode and chunk size are launch-time choices: the
        # per-mode artifacts live in separate fields of one
        # CompiledKernel.  Switching modes on the same compiled kernel
        # must produce the reference answer every time — a closure that
        # baked in a mode or chunk shape would serve stale results here
        from repro.gpu.kernelir import stamp_sids

        ck = CompiledKernel(stamp_sids(ids_kernel()), K20C)
        default_chunk = executor_batched.DEFAULT_BLOCK_BATCH
        outs = {}
        for mode, chunk in (("reference", None), ("batched", None),
                            ("trace", None), ("batched", 3), ("trace", 2),
                            ("reference", None)):
            monkeypatch.setattr(executor_batched, "DEFAULT_BLOCK_BATCH",
                                chunk or default_chunk)
            g = _gmem()
            ck.run(g, 2, (16, 2), mode=mode)
            outs[(mode, chunk)] = g["out"].data.copy()
        ref = outs[("reference", None)]
        for key, out in outs.items():
            np.testing.assert_array_equal(out, ref, err_msg=str(key))

    def test_cascade_toggle_never_serves_a_stale_closure(self):
        # mirror of test_mode_switch_never_serves_a_stale_closure for
        # the cascade-fusion toggle: alternating fused / pinned-unfused
        # compiles of the same source must keep distinct compiled
        # closures and keep producing one set of result bits
        from repro import acc
        from repro.apps.softmax import SOFTMAX_SRC

        # explicit pipeline pin: the toggle must fuse even when the
        # suite runs under REPRO_PASSES=minimal
        geom = dict(num_gangs=4, num_workers=2, vector_length=32,
                    pipeline="optimized")
        x = (np.arange(128) % 13).astype(np.float32)
        kw = dict(y=np.zeros_like(x), m=np.float32(-np.inf),
                  s=np.float32(0.0))
        bits = {}
        for tag, opts in (("fused", {}),
                          ("never", {"cascade_fusion": "never"}),
                          ("fused", {}),
                          ("never", {"cascade_fusion": "never"})):
            prog = acc.compile(SOFTMAX_SRC, **geom, **opts)
            bits.setdefault(tag, set()).add(
                prog.run(x=x, **kw).outputs["y"].tobytes())
            fused = any("cascade-fused finish" in k.note
                        for k in prog.lowered.kernels)
            assert fused == (tag == "fused")
        assert len(bits["fused"]) == 1
        assert bits["fused"] == bits["never"]  # bit-identical either way
