"""Soundness of cycle equivalence against execution ground truth.

The entire frequency analysis rests on one guarantee: every member of a
frequency-equivalence class executes *exactly* the same number of times.
These tests execute randomly generated structured programs and verify
the guarantee holds for every class of every procedure -- blocks and
edges alike -- using the simulator's exact counts.
"""

import pytest

from repro.core.cfg import EXIT, build_cfg
from repro.core.equivalence import compute_equivalence
from repro.core.validate import true_edge_count
from repro.cpu.config import MachineConfig
from repro.cpu.machine import Machine
from repro.workloads.generator import GeneratedProgram

SEEDS = (11, 29, 47, 101, 500, 777)


def class_counts(machine, cfg, classes):
    """Map class id -> set of true member execution counts."""
    by_class = {}
    for block in cfg.blocks:
        count = machine.gt_count.get(block.start, 0)
        cid = classes.class_of[block.index]
        by_class.setdefault(cid, set()).add(count)
    for edge in cfg.edges:
        if edge.dst == EXIT:
            # Exit edges have no separate ground truth, so they are
            # skipped here as in check_equivalence_truth.
            continue
        count = true_edge_count(machine, cfg, edge)
        cid = classes.class_of[("e", edge.index)]
        by_class.setdefault(cid, set()).add(count)
    return by_class


@pytest.mark.parametrize("seed", SEEDS)
def test_every_class_has_one_true_count(seed):
    workload = GeneratedProgram(seed=seed, rounds=3)
    machine = Machine(MachineConfig(), seed=1)
    workload.setup(machine)
    machine.run(max_instructions=400_000)
    assert machine.processes[0].exited

    image = machine.processes[0].images[0]
    for proc in image.procedures:
        if machine.gt_count.get(proc.start, 0) == 0:
            continue
        cfg = build_cfg(proc)
        if cfg.missing_edges:
            continue
        classes = compute_equivalence(cfg)
        for cid, counts in class_counts(machine, cfg, classes).items():
            assert len(counts) == 1, (
                "class %d of %s (seed %d) has unequal member counts %s"
                % (cid, proc.name, seed, counts))


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_zero_classes_never_execute(seed):
    workload = GeneratedProgram(seed=seed, rounds=2)
    machine = Machine(MachineConfig(), seed=1)
    workload.setup(machine)
    machine.run(max_instructions=400_000)
    image = machine.processes[0].images[0]
    for proc in image.procedures:
        cfg = build_cfg(proc)
        if cfg.missing_edges:
            continue
        classes = compute_equivalence(cfg)
        for node in classes.zero:
            if isinstance(node, tuple):
                continue
            block = cfg.blocks[node]
            assert machine.gt_count.get(block.start, 0) == 0
