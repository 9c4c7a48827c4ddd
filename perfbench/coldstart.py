"""Cold start of one workload in a fresh interpreter.

Imports the package, builds the workload's images and the machine, and
stops before the first simulated instruction.  Prints one JSON line
with the in-process split (``import_s``, ``build_s``); the parent
times the whole start, interpreter launch included, up to that line.

    python3 perfbench/coldstart.py --workload gcc-calc --seed 1
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import specs  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(specs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=specs.DEFAULT_SEED)
    parser.add_argument("--size", default="full", choices=specs.SIZES)
    args = parser.parse_args(argv)

    importlib.import_module("repro.collect.session")
    importlib.import_module("repro.core.analyze")
    importlib.import_module(specs.WORKLOADS[args.workload]["module"])
    from repro.cpu.config import MachineConfig
    from repro.cpu.machine import Machine
    imported = time.perf_counter()

    workload = specs.build_workload(args.workload, args.size)
    machine = Machine(MachineConfig(num_cpus=workload.num_cpus),
                      seed=args.seed)
    workload.setup(machine)
    built = time.perf_counter()

    print(json.dumps({"import_s": imported - STARTED,
                      "build_s": built - imported}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
