"""The benchmark's workloads: builder arguments plus session settings.

Each workload is built only from the public builders in
``repro.workloads`` and profiled only through ``ProfileSession``; the
seed given on the command line becomes the session seed (the machine's
physical page assignment and the counters' randomized periods).  Why
each workload exists, and which layer it stresses, is recorded in
README.md next to this file.

This module imports nothing from ``repro`` at import time, so the
cold-start child can time the package import itself.
"""

import importlib

#: Seed used when ``--seed`` is omitted.
DEFAULT_SEED = 1
#: Held out: not used while tuning the benchmark.  Reserved for
#: confirming a later performance claim on a seed it was not tuned on.
HELDOUT_SEED = 7919

#: name -> spec.  ``sizes`` maps a size name to builder keyword
#: arguments; ``session`` holds SessionConfig fields.  Every session
#: writes a profile database: the read-back is part of the pipeline.
#: ``baselines`` is how many of a run's session seeds also get an
#: unprofiled run for the modelled overhead: pooled over 4 seeds it
#: repeats within 1% on gcc-calc and altavista-mp, while
#: timesharing-disk needs all 16.
WORKLOADS = {
    "gcc-calc": {
        "module": "repro.workloads.gcc",
        "sizes": {"full": {}, "tiny": {"files": 4, "scale": 4}},
        "session": {"mode": "default", "cycles_period": (240, 256),
                    "event_period": 64},
        "baselines": 4,
    },
    "altavista-mp": {
        "module": "repro.workloads.altavista",
        "sizes": {"full": {"queries": 32, "scale": 4},
                  "tiny": {"queries": 2, "scale": 1}},
        "session": {"mode": "default", "cycles_period": (240, 256),
                    "event_period": 64, "journal": False},
        "baselines": 4,
    },
    "timesharing-disk": {
        "module": "repro.workloads.timesharing",
        "sizes": {"full": {"processes": 40, "scale": 30},
                  "tiny": {"processes": 5, "scale": 3}},
        "session": {"mode": "default", "cycles_period": (120, 136),
                    "event_period": 128, "drain_interval": 5000,
                    "checkpoint_drains": 1, "journal": True},
        "baselines": 16,
    },
}

SIZES = ("full", "tiny")

#: Session seeds one run derives from its ``--seed``.  A single
#: session seed's frequency accuracy moves by a third between seeds
#: (the page map and sampling periods change which procedures are
#: sampled well), so one run pools its quality metrics over this many
#: and its timings are medians over this mix of inputs.
SUBSEEDS = 16


def build_workload(name, size="full"):
    """A fresh workload object from its public builder."""
    spec = WORKLOADS[name]
    module = importlib.import_module(spec["module"])
    return module.build(**spec["sizes"][size])


def subseeds(seed):
    """The session seeds one run with *seed* cycles through."""
    return [seed * 1000 + index for index in range(SUBSEEDS)]


def session_settings(name):
    """SessionConfig keyword arguments for *name* (without seed/db)."""
    return dict(WORKLOADS[name]["session"])
