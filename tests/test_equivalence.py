"""Tests for cycle-equivalence (frequency equivalence) classes."""

import os
import subprocess
import sys

import repro
from repro.alpha.assembler import assemble
from repro.core.cfg import build_cfg
from repro.core.equivalence import compute_equivalence
from repro.obs import Observability


def cfg_for(body):
    image = assemble(".image t\n.proc main\n%s\n.end" % body, base=0x1000)
    return build_cfg(image.procedure("main"))


def classes_for(body):
    cfg = cfg_for(body)
    return cfg, compute_equivalence(cfg)


def name(member):
    """Block ``3`` stays ``3``; CFG edge ``("e", 3)`` reads ``"e3"``."""
    return member if isinstance(member, int) else "e%d" % member[1]


def partition(classes):
    return {frozenset(map(name, members))
            for members in classes.members.values()}


def zero_names(classes):
    return set(map(name, classes.zero))


class TestLoops:
    def test_loop_body_not_equivalent_to_entry(self):
        body = """
    lda t0, 5(zero)
top:
    subq t0, 1, t0
    bgt t0, top
    ret
"""
        cfg, classes = classes_for(body)
        entry = cfg.block_at(0x1000).index
        loop = cfg.block_at(0x1004).index
        assert classes.class_of[entry] != classes.class_of[loop]

    def test_entry_and_exit_blocks_equivalent(self):
        body = """
    lda t0, 5(zero)
top:
    subq t0, 1, t0
    bgt t0, top
    addq t1, 1, t1
    ret
"""
        cfg, classes = classes_for(body)
        entry = cfg.block_at(0x1000).index
        tail = cfg.block_at(0x1010).index
        assert classes.class_of[entry] == classes.class_of[tail]

    def test_back_edge_not_equivalent_to_exit_edge(self):
        body = """
top:
    subq t0, 1, t0
    bgt t0, top
    ret
"""
        cfg, classes = classes_for(body)
        taken = next(e for e in cfg.edges if e.kind == "taken")
        fall = next(e for e in cfg.edges if e.kind == "fall")
        assert (classes.class_of[("e", taken.index)]
                != classes.class_of[("e", fall.index)])

    def test_nested_loops_three_classes(self):
        body = """
    lda s0, 3(zero)
outer:
    lda s1, 4(zero)
inner:
    subq s1, 1, s1
    bgt s1, inner
    subq s0, 1, s0
    bgt s0, outer
    ret
"""
        cfg, classes = classes_for(body)
        entry = cfg.block_at(0x1000).index
        outer = cfg.block_at(0x1004).index
        inner = cfg.block_at(0x1008).index
        ids = {classes.class_of[entry], classes.class_of[outer],
               classes.class_of[inner]}
        assert len(ids) == 3


class TestBranches:
    DIAMOND = """
    and t0, 1, t1
    beq t1, else_
    addq t2, 1, t2
    br end_
else_:
    addq t3, 1, t3
end_:
    ret
"""

    def test_diamond_arms_not_equivalent(self):
        cfg, classes = classes_for(self.DIAMOND)
        then_block = cfg.block_at(0x1008).index
        else_block = cfg.block_at(0x1010).index
        assert classes.class_of[then_block] != classes.class_of[else_block]

    def test_diamond_head_and_join_equivalent(self):
        cfg, classes = classes_for(self.DIAMOND)
        head = cfg.block_at(0x1000).index
        join = cfg.block_at(0x1014).index
        assert classes.class_of[head] == classes.class_of[join]

    def test_arm_edge_equivalent_to_arm_block(self):
        cfg, classes = classes_for(self.DIAMOND)
        then_block = cfg.block_at(0x1008)
        in_edge = then_block.preds[0]
        assert (classes.class_of[then_block.index]
                == classes.class_of[("e", in_edge.index)])


class TestDegenerateCases:
    def test_missing_edges_gives_singleton_classes(self):
        body = "    lda t0, =0x1000\n    jmp (t0)"
        cfg, classes = classes_for(body)
        sizes = [len(m) for m in classes.members.values()]
        assert all(size == 1 for size in sizes)

    def test_straight_line_all_one_class(self):
        cfg, classes = classes_for("    nop\n    nop\n    ret")
        assert len({classes.class_of[b.index] for b in cfg.blocks}) == 1

    def test_infinite_loop_handled(self):
        body = """
spin:
    addq t0, 1, t0
    br spin
"""
        cfg, classes = classes_for(body)
        # No exit edge: the loop is a cycle of its own, cut off from
        # the entry, and nothing in it is provably dead.
        assert partition(classes) == {frozenset({0, "e0"})}
        assert zero_names(classes) == set()

    def test_deep_chain_needs_no_recursion(self):
        # 1500 blocks linked by parallel taken/fall edge pairs: a DFS
        # 3000 nodes deep, past the default recursion limit.
        depth = 1500
        body = "\n".join("L%d:\n    beq t0, L%d" % (i, i + 1)
                         for i in range(depth))
        cfg, classes = classes_for(body + "\nL%d:\n    ret" % depth)
        assert len(cfg.blocks) == depth + 1
        blocks = {classes.class_of[b.index] for b in cfg.blocks}
        assert len(blocks) == 1
        assert len(classes) == 1 + 2 * depth
        assert not classes.zero


class TestBracketListPitfalls:
    """Textbook Johnson-Pearson-Pingali goes wrong on these CFGs."""

    def test_bridges_from_dead_code(self):
        # The branch enters an infinite loop, so block 3 is dead and
        # the edges around it are bridges, which the bracket-list pass
        # itself cannot handle: every tree edge needs a bracket.
        body = """
L0:
    beq t0, L2
L1:
    ret
L2:
    br L2
    ret
"""
        cfg, classes = classes_for(body)
        assert partition(classes) == {
            frozenset({0, 1, "e1", "e2"}), frozenset({2, "e3"}),
            frozenset({3}), frozenset({"e0"}), frozenset({"e4"})}
        assert zero_names(classes) == {3, "e0", "e4"}

    def test_bracket_pass_runs_without_the_bridges(self):
        # Finding the bridges is not enough.  Left in the graph, the
        # dead block's bridge is a tree edge with no bracket at all,
        # and e3 lands in a class of its own although it is cut
        # together with b1.
        body = """
L0:
    br L3
L1:
    ret
L2:
    beq t0, L1
L3:
    ret
"""
        cfg, classes = classes_for(body)
        assert partition(classes) == {
            frozenset({0, "e0"}), frozenset({1, "e1", "e2", "e3"}),
            frozenset({2}), frozenset({3, "e4"})}
        assert zero_names(classes) == {2}

    def test_no_capping_bracket_from_a_node_to_itself(self):
        # A child whose brackets all end at its parent must not make
        # the parent push a capping bracket to itself: that bracket is
        # never deleted and splits classes that belong together.
        body = """
L0:
    addq t0, 1, t0
L1:
    br L1
L2:
    beq t0, L1
    ret
"""
        cfg, classes = classes_for(body)
        assert partition(classes) == {
            frozenset({0, 3, "e0", "e2", "e3", "e4"}),
            frozenset({1, "e1"}), frozenset({2})}
        assert zero_names(classes) == {2}


class TestCounters:
    BODIES = (
        TestBranches.DIAMOND,
        "L0:\n    beq t0, L2\nL1:\n    ret\nL2:\n    br L2\n    ret",
        "    lda t0, =0x1000\n    jmp (t0)",
        "    lda t1, =0x1000\n    beq t0, out\n    jmp (t1)\nout:\n    ret",
    )

    def test_counters_match_the_partitions(self):
        obs = Observability()
        cfgs = [cfg_for(body) for body in self.BODIES]
        results = [compute_equivalence(cfg, obs=obs) for cfg in cfgs]
        classes = sum(len(result.members) for result in results)
        zero = sum(len(result.zero) for result in results)
        unresolved = sum(1 for cfg in cfgs if cfg.missing_edges)
        assert (zero, unresolved) == (3, 2)

        def count(metric):
            return obs.registry.counter(
                "analyze.equivalence." + metric).value

        assert count("classes") == classes
        assert count("zero_flow") == zero
        assert count("unresolved") == unresolved


def test_cold_start_imports_no_graph_library():
    # The package imports of a profiling run and an analysis, in a
    # fresh interpreter: cycle equivalence needs no networkx.
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH"))))
    code = ("import sys, repro.collect.session, repro.core.analyze; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'networkx'))")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip() == "[]"
