"""Differential oracle for the linear-time cycle-equivalence pass.

The oracle is the direct O(E^2) 2-edge-cut test that
:mod:`repro.core.equivalence` used before it switched to bracket lists:
the bridges of the expanded flow graph are the zero-flow set, and two
live flow edges are equivalent iff removing one makes the other a
bridge.  It shares no code with the module under test -- it rebuilds
the flow graph from the CFG and finds bridges with its own low-link
search -- and its output must match ``compute_equivalence`` exactly:
the same ``class_of``, the same ``members`` (ids numbered by first
appearance, blocks then edges) and the same ``zero`` set.

Three corpora feed it: every procedure of every registry workload,
generated structured programs, and Hypothesis-generated single
procedures.  The registry alone is too regular to catch the textbook
pitfalls of the bracket-list algorithm (bridges left in the graph, a
capping bracket from a node to itself); the random procedures make
self-loops, parallel edges, dead code and cycles cut off from the
entry common.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alpha.assembler import assemble
from repro.core.cfg import EXIT, build_cfg
from repro.core.equivalence import compute_equivalence
from repro.cpu.config import MachineConfig
from repro.cpu.machine import Machine
from repro.workloads.generator import GeneratedProgram
from repro.workloads.registry import get_workload, workload_names


def flow_edges(cfg):
    """``(label, tail, head)`` for every edge of the expanded flow graph.

    Labels: block index, ``("e", i)`` for CFG edges, and ``"entry"`` /
    ``"return"`` for the virtual boundary edges.
    """
    edges = [("entry", "ENTRY", ("in", cfg.entry))]
    edges += [(b.index, ("in", b.index), ("out", b.index))
              for b in cfg.blocks]
    edges += [(("e", e.index), ("out", e.src),
               "EXIT" if e.dst == EXIT else ("in", e.dst))
              for e in cfg.edges]
    edges.append(("return", "EXIT", "ENTRY"))
    return edges


def bridge_labels(edges, removed=None):
    """Labels of the bridges of the multigraph *edges* minus *removed*."""
    adj = {}
    for label, tail, head in edges:
        if label != removed:
            adj.setdefault(tail, []).append((label, head))
            adj.setdefault(head, []).append((label, tail))
    num, low, found = {}, {}, set()
    for root in adj:
        if root in num:
            continue
        num[root] = low[root] = len(num)
        stack = [(root, None, iter(adj[root]))]
        while stack:
            node, via, todo = stack[-1]
            for label, other in todo:
                if label == via:
                    continue
                if other in num:
                    low[node] = min(low[node], num[other])
                else:
                    num[other] = low[other] = len(num)
                    stack.append((other, label, iter(adj[other])))
                    break
            else:
                stack.pop()
                if stack:
                    up = stack[-1][0]
                    low[up] = min(low[up], low[node])
                    if low[node] > num[up]:
                        found.add(via)
    return found


def oracle_equivalence(cfg):
    """``(class_of, members, zero)`` by the O(E^2) cut test."""
    nodes = ([b.index for b in cfg.blocks]
             + [("e", e.index) for e in cfg.edges])
    if cfg.missing_edges:
        return ({node: i for i, node in enumerate(nodes)},
                {i: [node] for i, node in enumerate(nodes)}, frozenset())

    edges = flow_edges(cfg)
    zero = bridge_labels(edges)
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    for label, _, _ in edges:
        if label in zero:
            continue
        for other in bridge_labels(edges, removed=label) - zero:
            parent[find(other)] = find(label)

    class_of, members, ids = {}, {}, {}
    for node in nodes:
        cid = ids.setdefault(find(node), len(ids))
        class_of[node] = cid
        members.setdefault(cid, []).append(node)
    return class_of, members, frozenset(n for n in nodes if n in zero)


def assert_matches_oracle(cfg):
    classes = compute_equivalence(cfg)
    class_of, members, zero = oracle_equivalence(cfg)
    where = cfg.proc.name
    assert classes.class_of == class_of, where
    assert classes.members == members, where
    assert classes.zero == zero, where


def image_cfgs(workload):
    machine = Machine(MachineConfig(num_cpus=workload.num_cpus), seed=1)
    workload.setup(machine)
    return [build_cfg(proc) for image in machine.loader.images
            for proc in image.procedures]


@pytest.mark.parametrize("name", workload_names())
def test_registry_procedures_match_oracle(name):
    cfgs = image_cfgs(get_workload(name))
    assert cfgs
    for cfg in cfgs:
        assert_matches_oracle(cfg)


@pytest.mark.parametrize("seed", (3, 11, 29, 47, 101, 777))
def test_generated_programs_match_oracle(seed):
    for cfg in image_cfgs(GeneratedProgram(seed=seed, max_depth=4)):
        assert_matches_oracle(cfg)


@st.composite
def procedure_bodies(draw):
    """Random single-procedure assembly over labels ``L0..Ln``.

    ``br`` to its own label makes a self-loop, ``beq`` to the next
    instruction a parallel edge pair, and a mid-body ``ret`` leaves
    dead code, bridges and cycles cut off from the entry.
    """
    count = draw(st.integers(min_value=1, max_value=14))
    lines = []
    for i in range(count):
        kind = draw(st.sampled_from(
            ("op", "op", "beq", "br", "self", "next", "ret")))
        if kind == "beq":
            text = "beq t0, L%d" % draw(st.integers(0, count))
        elif kind == "br":
            text = "br L%d" % draw(st.integers(0, count))
        elif kind == "self":
            text = "br L%d" % i
        elif kind == "next":
            text = "beq t0, L%d" % (i + 1)
        elif kind == "ret":
            text = "ret"
        else:
            text = "addq t0, 1, t0"
        lines.append("L%d:\n    %s" % (i, text))
    lines.append("L%d:\n    ret" % count)
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(procedure_bodies())
def test_random_procedures_match_oracle(body):
    image = assemble(".image t\n.proc main\n%s\n.end" % body, base=0x1000)
    assert_matches_oracle(build_cfg(image.procedure("main")))
