"""Unit tests for the simulator fast path (block-level issue cache)."""

import itertools
import math
import os
from unittest import mock

import pytest

from repro.alpha.assembler import assemble
from repro.alpha.opcodes import MASK64
from repro.cpu.config import CacheConfig, MachineConfig
from repro.cpu.fastpath import (_INLINE_CONDS, _INLINE_OPS, FastPath,
                                cache_geometry)
from repro.cpu.machine import Machine
from repro.obs.schema import derive, session_metrics
from repro.workloads.asmgen import loop_proc


def run_loop(iters=400, flavor="int", fastpath=True, data="", **kw):
    config = MachineConfig()
    config.fastpath = fastpath
    machine = Machine(config, seed=1)
    text = loop_proc("work", iters, flavor, **kw)
    image = machine.load_image(
        assemble(".image t\n%s%s" % (data, text)))
    machine.spawn(image)
    machine.run(max_instructions=500_000)
    return machine


class TestCacheGeometry:
    def test_direct_mapped_power_of_two(self):
        geom = cache_geometry(CacheConfig(8192, 32, 1, 2))
        assert geom == (5, 255)

    def test_set_associative_rejected(self):
        assert cache_geometry(CacheConfig(8192, 32, 2, 2)) is None

    def test_non_power_of_two_sets_rejected(self):
        # 96KB 1-way with 64B lines: 1536 sets.
        assert cache_geometry(CacheConfig(96 * 1024, 64, 1, 3)) is None


INT_EDGES = (0, 1, 2 ** 31, 2 ** 32 - 1, 2 ** 63, 2 ** 64 - 1)
FLOAT_EDGES = (0.0, -0.0, 1.0, -2.5, math.inf, -math.inf)


def _same(x, y):
    """Equal, NaN-aware, and telling -0.0 from 0.0."""
    if isinstance(x, float) or isinstance(y, float):
        if math.isnan(x) or math.isnan(y):
            return math.isnan(x) and math.isnan(y)
        return x == y and math.copysign(1, x) == math.copysign(1, y)
    return x == y


class TestInlineTemplates:
    """Every open-coded template computes what its semantics function
    computes, on the boundary values of its operand type (the float
    edges include a zero divisor for divt)."""

    @staticmethod
    def _edges(fn):
        return (FLOAT_EDGES if fn.__annotations__["a"] == "float"
                else INT_EDGES)

    @pytest.mark.parametrize("fn", list(_INLINE_OPS),
                             ids=lambda fn: fn.__name__)
    def test_op_template_matches_semantics(self, fn):
        expr = _INLINE_OPS[fn].format(a="a", b="b")
        for a, b in itertools.product(self._edges(fn), repeat=2):
            got = eval(expr, {"MASK64": MASK64, "a": a, "b": b})
            assert _same(got, fn(a, b)), (fn.__name__, a, b, got)

    @pytest.mark.parametrize("fn", list(_INLINE_CONDS),
                             ids=lambda fn: fn.__name__)
    def test_cond_template_matches_semantics(self, fn):
        expr = _INLINE_CONDS[fn].format(a="a")
        for a in self._edges(fn):
            got = eval(expr, {"a": a})
            assert bool(got) == bool(fn(a)), (fn.__name__, a, got)


class TestConfigKnob:
    def test_default_on(self):
        machine = Machine(MachineConfig(), seed=1)
        assert machine.fastpath is not None

    def test_config_off(self):
        config = MachineConfig()
        config.fastpath = False
        machine = Machine(config, seed=1)
        assert machine.fastpath is None

    def test_env_var_disables(self):
        with mock.patch.dict(os.environ, {"REPRO_SIM_FASTPATH": "0"}):
            assert MachineConfig().fastpath is False


class TestDiscovery:
    def test_unknown_address_blacklisted(self):
        fp = FastPath({})
        assert fp.discover(0x1000) is False
        # The negative result is cached.
        assert fp.blocks[0x1000] is False

    def test_hot_loop_discovers_blocks(self):
        machine = run_loop()
        fp = machine.fastpath
        assert any(block for block in fp.blocks.values() if block)
        assert fp.replays > 0
        assert fp.replayed_instructions > 0

    def test_load_image_invalidates(self):
        machine = run_loop()
        fp = machine.fastpath
        assert fp.blocks
        machine.load_image(
            assemble(".image u\n" + loop_proc("other", 3, "int")))
        assert not fp.blocks
        assert fp.invalidations >= 1


class TestTiering:
    def test_hot_variants_compile_cold_stay_interpreted(self):
        machine = run_loop(iters=400)
        fp = machine.fastpath
        compiled = [v for b in fp.blocks.values() if b
                    for v in b.variants.values() if v.fn is not None]
        cold = [v for b in fp.blocks.values() if b
                for v in b.variants.values() if v.fn is None]
        # The loop body recurs hundreds of times: it must tier up.
        assert compiled
        assert fp.compiled_variants == len(compiled)
        # Cold variants keep accumulating uses below the threshold
        # instead of being re-recorded.
        for variant in cold:
            assert variant.uses < fp.COMPILE_USES

    def test_single_shot_code_never_compiles(self):
        # One pass over straight-line code: every variant is seen once.
        machine = run_loop(iters=1)
        fp = machine.fastpath
        assert fp.compiled_variants <= fp.recordings


class TestChaining:
    def test_hot_loop_links_blocks(self):
        machine = run_loop(iters=400, flavor="branchy")
        fp = machine.fastpath
        assert fp.links_followed > 0
        # Precomputed residual checks must hold on a steady-state loop.
        assert fp.link_mismatches <= fp.links_followed

    def test_links_only_target_compiled_variants(self):
        machine = run_loop(iters=400, flavor="branchy")
        fp = machine.fastpath
        for block in fp.blocks.values():
            if not block:
                continue
            for variant in block.variants.values():
                for target, _key0, _checks, _im, _fd in (
                        variant.links.values()):
                    assert target.fn is not None


class TestDeferredGroundTruth:
    def test_flush_leaves_no_pending_hits(self):
        machine = run_loop()
        fp = machine.fastpath
        # Core.run flushed the deferred per-variant hit counts into
        # the ground-truth dicts before returning.
        assert not fp.deferred
        for block in fp.blocks.values():
            if not block:
                continue
            for variant in block.variants.values():
                assert variant.hits == 0


class TestSnapshotAndObs:
    def test_snapshot_keys(self):
        machine = run_loop()
        snap = machine.fastpath.snapshot()
        for key in ("replays", "replayed_instructions", "bails",
                    "recordings", "compiled_variants", "variant_misses",
                    "links_followed", "link_mismatches",
                    "headroom_skips", "blocks", "variants",
                    "invalidations", "context_switches"):
            assert key in snap
        assert snap["replays"] >= 1
        assert snap["variants"] >= 1

    def test_session_metrics_include_fastpath(self):
        from repro.collect.session import ProfileSession, SessionConfig
        from repro.workloads.registry import get_workload

        session = ProfileSession(MachineConfig(), SessionConfig(seed=1))
        result = session.run(get_workload("wave5"),
                             max_instructions=20_000)
        flat = derive(session_metrics(result))
        assert flat["sim.fastpath.replays"] > 0
        assert 0.0 <= flat["sim.fastpath.replay_fraction"] <= 1.0
        assert flat["sim.fastpath.bail_rate"] >= 0.0
