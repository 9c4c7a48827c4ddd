"""perfbench: the dcpid -> dcpicalc pipeline, end to end and per layer.

One run of one workload does, from the public APIs only:

1. unprofiled runs (``ProfileSession.run_baseline``) on some of the
   session seeds, for the modelled profiling overhead;
2. for ``--seconds``: iterations of a profiled run that writes an
   on-disk profile database (``ProfileSession.run``), a read-back
   (``ProfileDatabase.load_all``) and analysis of every sampled image
   (``analyze_image``), each checked for correct output;
3. between iterations, cold starts -- fresh interpreters that import
   the package and build the workload's images and machine
   (``setup_s`` is their median).

A shared host's speed can move by 1.6x within seconds (seen on a
2-core x86 VM), so every timed stage is bracketed by :func:`host_probe`
and its wall time is scaled to a reference host speed; the unscaled
figures are printed in the report.

With ``--trace 1`` every other iteration runs with the layer spans of
:mod:`tracer` installed, and the run reports the per-layer ledger
instead of the end-to-end metrics.  The last line of standard output
is the JSON result.  Run from the repository root:

    python3 perfbench/run.py --workload gcc-calc --seed 1 --seconds 40 --trace 0
"""

import argparse
import contextlib
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import specs  # noqa: E402
from tracer import Tracer  # noqa: E402

#: Scratch databases live here, one directory per iteration.
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
#: Span files of traced runs are written here.
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
#: A timed cold start runs before every this many iterations, so the
#: starts sample the same stretch of machine time as the iterations.
#: One untimed start comes first: it fills the bytecode cache, which
#: users do not pay on every start.
COLD_START_EVERY = 2
COLDSTART_TIMEOUT_S = 60
#: Untraced/traced iteration pairs a traced run makes at least; its
#: per-layer counts are pooled over the first this many session seeds.
TRACE_PAIRS = 4

clock = time.perf_counter

#: Host-speed probe time (s) that end-to-end times are scaled to: about
#: the probe's median on a 2-core x86 VM at 2.1 GHz, Python 3.11.
PROBE_REFERENCE_S = 0.02
PROBE_STEPS = 100_000


class _Register:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0


_PROBE_PROGRAM = [(i % 5, i % 7, (i * 13) % 11) for i in range(64)]


def host_probe():
    """Seconds a fixed pure-Python loop takes now.

    The loop decodes a tiny register program: tuple unpacking, slot
    attribute access, dict updates and small-integer arithmetic, the
    operations the simulator and the analysis spend their time on.  It
    does not touch the program under test, so a change to the program
    cannot change it; it only tracks how fast the shared host runs at
    this moment.
    """
    registers = [_Register() for _ in range(8)]
    table = {}
    program = _PROBE_PROGRAM
    start = clock()
    for step in range(PROBE_STEPS):
        op, a, b = program[step & 63]
        reg = registers[a & 7]
        if op == 0:
            reg.value = (reg.value + b) & 0xFFFF
        elif op == 1:
            reg.value ^= registers[b & 7].value
        elif op == 2:
            table[reg.value & 255] = table.get(reg.value & 255, 0) + 1
        elif op == 3:
            reg.value = len(table) + b
        else:
            registers[b & 7].value = reg.value >> 1
    return clock() - start


def host_scaled(seconds, probes):
    """*seconds* scaled to the reference host speed, given the probe
    times taken just before and just after them."""
    return seconds * PROBE_REFERENCE_S / statistics.fmean(probes)


class TimedWorkload:
    """Forwards ``setup`` to a workload and times it.

    ``ProfileSession.run`` and ``run_baseline`` build the workload
    inside the call; that build is the cold start's job (``setup_s``),
    so it is subtracted from the profiled and unprofiled run times.
    """

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.seconds = 0.0

    def setup(self, machine):
        start = clock()
        if self.tracer is None:
            self.workload.setup(machine)
        else:
            with self.tracer.span("Workload.setup"):
                self.workload.setup(machine)
        self.seconds += clock() - start


def _session(name, size, seed, db_root=None):
    from repro.collect.session import ProfileSession, SessionConfig
    from repro.cpu.config import MachineConfig

    workload = specs.build_workload(name, size)
    config = SessionConfig(seed=seed, db_root=db_root,
                           **specs.session_settings(name))
    return workload, ProfileSession(
        MachineConfig(num_cpus=workload.num_cpus), config)


def trace_targets():
    """What a traced iteration wraps: the names each caller looks up."""
    import repro.core.analyze as analyze
    import repro.core.frequency as frequency
    from repro.collect.daemon import Daemon
    from repro.collect.database import ProfileDatabase
    from repro.collect.driver import Driver
    from repro.collect.journal import DrainJournal
    from repro.cpu.fastpath import FastPath
    from repro.cpu.machine import Machine

    return [
        (analyze, "build_cfg", "core.build_cfg", False),
        (analyze, "schedule_cfg", "core.schedule_cfg", False),
        (analyze, "estimate_frequencies", "core.estimate_frequencies",
         False),
        (analyze, "identify_culprits", "core.identify_culprits", False),
        (frequency, "compute_equivalence", "core.compute_equivalence",
         False),
        (Driver, "record", "Driver.record", True),
        (Daemon, "drain", "Daemon.drain", False),
        (Daemon, "merge_to_disk", "Daemon.merge_to_disk", False),
        (ProfileDatabase, "checkpoint", "ProfileDatabase.checkpoint",
         False),
        (ProfileDatabase, "load_all", "ProfileDatabase.load_all", False),
        (DrainJournal, "append", "DrainJournal.append", False),
        (FastPath, "compile_variant", "FastPath.compile_variant", False),
        (Machine, "run", "Machine.run", False),
    ]


# -- one iteration of the pipeline ------------------------------------------


def _fail(iteration, what):
    iteration["failed"] += 1
    iteration["errors"].append(what)


def run_iteration(name, size, seed, db_root, tracer=None, tamper=None):
    """Profile, read back and analyse once; check the outputs.

    Returns a dict of timings, deterministic statistics and operation
    counts.  An operation (the profiled run, the read-back, one image
    analysis) that raises or fails its check is counted as failed; it
    never aborts the run.  *tamper*, if given, is called with the
    database directory between the profiled run and the read-back.
    """
    from repro.collect.database import ImageProfile, ProfileDatabase
    from repro.core.analyze import analyze_image
    from repro.cpu.events import EventType
    from repro.obs import derive

    if tracer is not None:
        span = tracer.span
    else:
        def span(name):
            return contextlib.nullcontext()
    iteration = {"seed": seed, "traced": tracer is not None,
                 "attempted": 2, "failed": 0, "errors": []}
    workload, session = _session(name, size, seed, db_root)
    timed = TimedWorkload(workload, tracer)

    before = host_probe()
    start = clock()
    try:
        with span("ProfileSession.run"):
            result = session.run(timed)
    except Exception:  # counted, reported, never fatal to the run
        _fail(iteration, "profiled run raised:\n" + traceback.format_exc())
        _fail(iteration, "read-back skipped: no profiled run")
        return iteration
    profiled = clock()
    between = host_probe()

    if tamper is not None:
        tamper(db_root)

    read_back = {}
    analyses = {}
    wanted = sorted(image for image, by_event in
                    result.daemon.export_profiles().items()
                    if by_event.get(EventType.CYCLES))
    iteration["attempted"] += len(wanted)
    read_start = clock()
    database = None
    try:
        database = ProfileDatabase(db_root)
        for image, event, counts, period in database.load_all():
            read_back.setdefault(image, {})[event] = (counts, period)
    except Exception:
        _fail(iteration, "read-back raised:\n" + traceback.format_exc())
    for image_name in wanted:
        by_event = read_back.get(image_name, {})
        if EventType.CYCLES not in by_event:
            continue
        image = result.daemon.images[image_name]
        profile = ImageProfile(image)
        for event, (counts, period) in by_event.items():
            profile.counts[event] = counts
            profile.periods[event] = period
        try:
            with span("analyze_image"):
                analyses[image_name] = analyze_image(image, profile)
        except Exception:
            analyses[image_name] = None
            _fail(iteration, "analysis of %s raised:\n%s"
                  % (image_name, traceback.format_exc()))
    finished = clock()
    after = host_probe()

    iteration["profile_s"] = profiled - start - timed.seconds
    iteration["analyze_s"] = finished - read_start
    iteration["profile_host_s"] = host_scaled(iteration["profile_s"],
                                              (before, between))
    iteration["analyze_host_s"] = host_scaled(iteration["analyze_s"],
                                              (between, after))
    iteration["metrics"] = derive(result.metrics())
    _check_outputs(iteration, result, database, read_back, wanted,
                   analyses)
    _quality(iteration, result, analyses)
    return iteration


def _check_outputs(iteration, result, database, read_back, wanted,
                   analyses):
    """The output checks behind ``ok_frac``."""
    metrics = iteration["metrics"]
    stored = {image: {event: counts
                      for event, (counts, _) in by_event.items()}
              for image, by_event in read_back.items()}
    db_samples = sum(sum(counts.values()) for by_event in stored.values()
                     for counts in by_event.values())
    quarantined = (database.quarantined_samples()
                   if database is not None else 0)
    accounted = (db_samples + metrics["driver.overflow.dropped"]
                 + metrics["daemon.lost_samples"]
                 + metrics["daemon.unknown_samples"] + quarantined)
    problems = []
    if metrics["driver.samples"] != accounted:
        problems.append(
            "conservation: driver samples %d != database %d + dropped %d"
            " + lost %d + unknown %d + quarantined %d"
            % (metrics["driver.samples"], db_samples,
               metrics["driver.overflow.dropped"],
               metrics["daemon.lost_samples"],
               metrics["daemon.unknown_samples"], quarantined))
    if stored != result.daemon.export_profiles():
        problems.append("read-back profiles differ from the daemon's "
                        "in-memory profiles")
    if problems and not any(e.startswith("read-back raised")
                            for e in iteration["errors"]):
        _fail(iteration, "read-back check: " + "; ".join(problems))
    for image_name in wanted:
        if image_name not in analyses:
            _fail(iteration, "analysis of %s: no CYCLES profile read back"
                  % image_name)
        elif analyses[image_name] is not None and not analyses[image_name]:
            _fail(iteration, "analysis of %s: no procedure analysed"
                  % image_name)


def _quality(iteration, result, analyses):
    """Deterministic statistics, including Figure 8's frequency measure:
    CYCLES-sample weight of analysed instructions (at least 5 true
    executions) whose estimated count is within 10% of the exact one."""
    gt_count = result.machine.gt_count
    good = total = procedures = edges = 0
    for image_name in sorted(analyses):
        by_proc = analyses[image_name] or {}
        for analysis in by_proc.values():
            procedures += 1
            edges += len(analysis.cfg.edges)
            for row in analysis.instructions:
                true = gt_count.get(row.inst.addr, 0)
                if true < 5 or row.samples == 0:
                    continue
                total += row.samples
                if abs(row.count - true) <= 0.1 * true:
                    good += row.samples
    metrics = iteration["metrics"]
    iteration["det"] = {
        "instructions": result.instructions,
        "cycles": result.cycles,
        "samples": metrics["driver.samples"],
        "replay_fraction": metrics["sim.fastpath.replay_fraction"],
        "compiled_variants": metrics["sim.fastpath.compiled_variants"],
        "freq_good": good,
        "freq_total": total,
        "procedures": procedures,
        "cfg_edges": edges,
    }


def run_baseline(name, size, seed):
    """Unprofiled run: (cycles, host seconds without the build)."""
    workload, session = _session(name, size, seed)
    timed = TimedWorkload(workload)
    start = clock()
    result = session.run_baseline(timed)
    return result.cycles, clock() - start - timed.seconds


# -- cold starts ------------------------------------------------------------


def cold_start(name, size, seed):
    """Start a fresh interpreter; return (wall s, wall s scaled to the
    reference host speed, its import/build split)."""
    command = [sys.executable, os.path.join(HERE, "coldstart.py"),
               "--workload", name, "--seed", str(seed), "--size", size]
    before = host_probe()
    start = clock()
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True)
    try:
        line = child.stdout.readline()
        wall = clock() - start
        _, err = child.communicate(timeout=COLDSTART_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        raise RuntimeError("cold start timed out")
    if child.returncode != 0 or not line:
        raise RuntimeError("cold start failed (exit %s):\n%s"
                           % (child.returncode, err))
    return wall, host_scaled(wall, (before, host_probe())), json.loads(line)


# -- the run ----------------------------------------------------------------


def _schedule(index, seeds, trace):
    """(session seed, traced?) of iteration *index*.

    Traced runs pair each seed's untraced and traced iteration back to
    back, alternating which goes first, so drift hits both sides.
    """
    if not trace:
        return seeds[index % len(seeds)], False
    pair = index // 2
    return seeds[pair % len(seeds)], (index % 2) != (pair % 2)


def _det_key(iteration):
    det = iteration.get("det")
    return None if det is None else tuple(sorted(det.items()))


def _median(values):
    return statistics.median(values) if values else float("nan")


#: Share of iterations dropped at each end before averaging their times.
TRIM = 0.1


def _trimmed_mean(values):
    """Mean of *values* without the lowest and highest ``TRIM`` share.

    A shared host's speed can switch between a fast and a slow state
    (1.6x apart on a 2-core x86 VM) for seconds at a time.  A median
    over iterations jumps between the two states as their mix in a run
    crosses one half; a trimmed mean moves with the mix smoothly and
    still ignores the odd outlier."""
    if not values:
        return float("nan")
    values = sorted(values)
    cut = int(len(values) * TRIM)
    return statistics.fmean(values[cut:len(values) - cut])


def run(name, seed, seconds, trace, size="full"):
    """One benchmark run; returns (report lines, result dict)."""
    seeds = specs.subseeds(seed)
    cold_start(name, size, seeds[0])  # fills the bytecode cache
    starts = []
    deadline = clock() + seconds
    baselines = {s: run_baseline(name, size, s)
                 for s in seeds[:specs.WORKLOADS[name]["baselines"]]}
    # Untraced runs cover every session seed; traced runs pair the
    # first few, since they report layer times, not pooled quality.
    pooled_seeds = seeds[:TRACE_PAIRS] if trace else seeds
    minimum = 2 * TRACE_PAIRS if trace else len(seeds)
    tracer = Tracer() if trace else None
    targets = trace_targets() if trace else []
    os.makedirs(WORK_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    iterations = []
    try:
        index = 0
        while index < minimum or clock() < deadline:
            session_seed, traced = _schedule(index, seeds, trace)
            db_root = os.path.join(scratch, "db%d" % index)
            if index % COLD_START_EVERY == 0:
                starts.append(cold_start(name, size, seeds[0]))
            gc.collect()
            if traced:
                tracer.run_id = index
                with tracer.patched(targets):
                    iteration = run_iteration(name, size, session_seed,
                                              db_root, tracer=tracer)
            else:
                iteration = run_iteration(name, size, session_seed,
                                          db_root)
            iteration["index"] = index
            iterations.append(iteration)
            shutil.rmtree(db_root, ignore_errors=True)
            index += 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:  # another run still uses it
            pass
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_s = _median([scaled for _, scaled, _ in starts])
    wall_setup_s = _median([wall for wall, _, _ in starts])

    lines = ["workload %s  seed %d  size %s  session seeds %d..%d"
             % (name, seed, size, seeds[0], seeds[-1])]
    attempted = sum(it["attempted"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)
    correct = failed == 0
    for it in iterations:
        for error in it["errors"]:
            lines.append("FAILED op (iteration %d, seed %d): %s"
                         % (it["index"], it["seed"], error))

    # Deterministic statistics: equal on every repeat of a session seed,
    # traced or not.
    first = {}
    for it in iterations:
        key = _det_key(it)
        if key is None:
            continue
        if it["seed"] not in first:
            first[it["seed"]] = it
        elif key != _det_key(first[it["seed"]]):
            correct = False
            lines.append("MISMATCH: seed %d iteration %d (traced=%s) "
                         "differs from iteration %d (traced=%s)"
                         % (it["seed"], it["index"], it["traced"],
                            first[it["seed"]]["index"],
                            first[it["seed"]]["traced"]))
    if any(s not in first for s in pooled_seeds):
        correct = False
        lines.append("MISSING: no successful iteration for some of "
                     "session seeds %s" % pooled_seeds)
    pooled = [first[s] for s in pooled_seeds if s in first]
    for s in sorted(first):
        det = dict(first[s]["det"], baseline_cycles=baselines.get(s, (0,))[0])
        lines.append("det %d %s" % (s, hashlib.sha256(json.dumps(
            sorted(det.items())).encode()).hexdigest()[:16]))
    overhead_pct = _overhead_pct(first, baselines)
    freq_total = sum(it["det"]["freq_total"] for it in pooled)
    freq = (sum(it["det"]["freq_good"] for it in pooled) / freq_total
            if freq_total else float("nan"))

    untraced = [it for it in iterations
                if not it["traced"] and "profile_s" in it]
    e2e = [setup_s + it["profile_host_s"] + it["analyze_host_s"]
           for it in untraced]
    wall_e2e = [wall_setup_s + it["profile_s"] + it["analyze_s"]
                for it in untraced]
    lines.append("iterations %d (%d traced)  operations %d  failed %d"
                 % (len(iterations), sum(it["traced"] for it in iterations),
                    attempted, failed))
    lines.append("pooled over %d session seeds: overhead_pct %.6f  "
                 "freq_within_10pct %.6f" % (len(pooled), overhead_pct, freq))
    lines.append("unscaled wall clock: setup_s %.6f  profile_ips %.1f  "
                 "analyze_s %.6f  end_to_end_s %.6f" % (
                     wall_setup_s,
                     _throughput(untraced, "profile_s"),
                     _trimmed_mean([it["analyze_s"] for it in untraced]),
                     _trimmed_mean(wall_e2e)))

    if not trace:
        metrics = {
            "setup_s": (setup_s, "s"),
            "profile_ips": (_throughput(untraced, "profile_host_s"), "1/s"),
            "analyze_s": (_trimmed_mean([it["analyze_host_s"]
                                         for it in untraced]), "s"),
            "end_to_end_s": (_trimmed_mean(e2e), "s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
            "overhead_pct": (overhead_pct, "%"),
            "freq_within_10pct": (freq, "fraction"),
            "ok_frac": (1.0 - failed / attempted if attempted else 0.0,
                        "fraction"),
        }
    else:
        metrics = _layer_metrics(tracer, iterations, pooled, starts,
                                 baselines, setup_s, e2e, lines)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, "trace-%s-seed%d.jsonl" % (name, seed))
        tracer.write(path)
        lines.append("spans written to %s" % os.path.relpath(path, ROOT))
    for metric, (value, unit) in metrics.items():
        lines.append("  %-30s %16.6f %s" % (metric, value, unit))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in metrics.items()},
    }
    return lines, result


def _throughput(iterations, key):
    """Simulated instructions per second of profiled run: the mean
    instruction count over the trimmed mean of the times in *key*."""
    if not iterations:
        return float("nan")
    return (statistics.fmean(it["det"]["instructions"] for it in iterations)
            / _trimmed_mean([it[key] for it in iterations]))


def _overhead_pct(first, baselines):
    """Table 3's slowdown, pooled: (profiled - base) / base cycles."""
    base = sum(cycles for s, (cycles, _) in baselines.items()
               if s in first)
    if not base:
        return float("nan")
    profiled = sum(first[s]["det"]["cycles"] for s in baselines
                   if s in first)
    return 100.0 * (profiled - base) / base


#: span name -> ledger metric of its self time.
SELF_TIME_METRICS = (
    ("ProfileSession.run", "collect.session_other_s"),
    ("Machine.run", "cpu.run_self_s"),
    ("FastPath.compile_variant", "cpu.fastpath.compile_s"),
    ("Driver.record", "driver.record_s"),
    ("Daemon.drain", "daemon.drain_s"),
    ("Daemon.merge_to_disk", "daemon.merge_s"),
    ("DrainJournal.append", "journal.append_s"),
    ("ProfileDatabase.checkpoint", "database.checkpoint_s"),
    ("ProfileDatabase.load_all", "database.load_s"),
    ("core.build_cfg", "core.cfg_s"),
    ("core.schedule_cfg", "core.schedule_s"),
    ("core.compute_equivalence", "core.equivalence_s"),
    ("core.estimate_frequencies", "core.frequency_self_s"),
    ("core.identify_culprits", "core.culprits_s"),
    ("analyze_image", "core.other_s"),
)


def _layer_metrics(tracer, iterations, pooled, starts, baselines,
                   setup_s, untraced_e2e, lines):
    """The traced run's per-layer ledger, plus the share checks."""
    traced = [it for it in iterations if it["traced"] and "profile_s" in it]
    ledgers = []
    counted = {}
    for it in traced:
        own = tracer.self_times(it["index"])
        ledger = {metric: own.get(span, (0, 0.0))[1]
                  for span, metric in SELF_TIME_METRICS}
        ledger["journal.appends"] = own.get("DrainJournal.append",
                                            (0, 0.0))[0]
        ledger["database.checkpoints"] = own.get(
            "ProfileDatabase.checkpoint", (0, 0.0))[0]
        ledger["cpu.ns_per_inst"] = (1e9 * ledger["cpu.run_self_s"]
                                     / it["det"]["instructions"])
        ledger["pipeline_s"] = it["profile_s"] + it["analyze_s"]
        ledger["pipeline_host_s"] = (it["profile_host_s"]
                                     + it["analyze_host_s"])
        ledger["profile_s"] = it["profile_s"]
        ledgers.append(ledger)
        counted.setdefault(it["seed"], ledger)

    def med(key):
        return _median([ledger[key] for ledger in ledgers])

    def span_count(key):
        # Span counts repeat per session seed: pool the same seeds as
        # the other counts, so the value repeats bit for bit.
        return statistics.fmean(counted[it["seed"]][key] for it in pooled)

    def pooled_mean(key, source="metrics"):
        return statistics.fmean(it[source][key] for it in pooled)

    traced_e2e = [setup_s + ledger["pipeline_host_s"] for ledger in ledgers]
    seconds = "s"
    metrics = {
        "setup.import_s": (_median([s["import_s"] for _, _, s in starts]),
                           seconds),
        "setup.build_s": (_median([s["build_s"] for _, _, s in starts]),
                          seconds),
        "cpu.run_self_s": (med("cpu.run_self_s"), seconds),
        "cpu.ns_per_inst": (med("cpu.ns_per_inst"), "ns"),
        "cpu.fastpath.compile_s": (med("cpu.fastpath.compile_s"), seconds),
        "cpu.fastpath.compiled_variants": (
            pooled_mean("compiled_variants", "det"), "count"),
        "cpu.fastpath.replay_fraction": (
            pooled_mean("replay_fraction", "det"), "fraction"),
        "cpu.fastpath.bails": (pooled_mean("sim.fastpath.bails"), "count"),
        "cpu.unprofiled_s": (_median([b[1] for b in baselines.values()]),
                             seconds),
        "driver.record_s": (med("driver.record_s"), seconds),
        "driver.samples": (pooled_mean("samples", "det"), "count"),
        "driver.hash.miss_rate": (pooled_mean("driver.hash.miss_rate"),
                                  "fraction"),
        "driver.handler_cycles": (pooled_mean("driver.handler_cycles"),
                                  "cycles"),
        "daemon.drain_s": (med("daemon.drain_s"), seconds),
        "daemon.merge_s": (med("daemon.merge_s"), seconds),
        "daemon.drains": (pooled_mean("daemon.drains"), "count"),
        "daemon.aggregation": (pooled_mean("daemon.aggregation_factor"),
                               "ratio"),
        "daemon.cost_per_sample": (pooled_mean("daemon.cost_per_sample"),
                                   "cycles"),
        "journal.append_s": (med("journal.append_s"), seconds),
        "journal.appends": (span_count("journal.appends"), "count"),
        "database.checkpoint_s": (med("database.checkpoint_s"), seconds),
        "database.checkpoints": (span_count("database.checkpoints"),
                                 "count"),
        "database.load_s": (med("database.load_s"), seconds),
        "core.cfg_s": (med("core.cfg_s"), seconds),
        "core.schedule_s": (med("core.schedule_s"), seconds),
        "core.equivalence_s": (med("core.equivalence_s"), seconds),
        "core.frequency_self_s": (med("core.frequency_self_s"), seconds),
        "core.culprits_s": (med("core.culprits_s"), seconds),
        "core.other_s": (med("core.other_s"), seconds),
        "core.procedures": (pooled_mean("procedures", "det"), "count"),
        "core.cfg_edges": (pooled_mean("cfg_edges", "det"), "count"),
        "collect.session_other_s": (med("collect.session_other_s"),
                                    seconds),
        "trace.overhead_s": (_trimmed_mean(traced_e2e)
                             - _trimmed_mean(untraced_e2e), seconds),
    }

    # Shares of the traced pipeline (profiled run + analysis).
    self_keys = [metric for _, metric in SELF_TIME_METRICS]
    pipeline = med("pipeline_s")
    lines.append("self time, share of the traced profile+analyze time "
                 "(%.3f s):" % pipeline)
    for key in sorted(self_keys, key=med, reverse=True):
        lines.append("  %-28s %8.4f s %6.1f%%"
                     % (key, med(key), 100.0 * med(key) / pipeline))
    largest = max(self_keys, key=med)
    collect_io = ("daemon.drain_s", "daemon.merge_s", "journal.append_s",
                  "database.checkpoint_s")
    io_share = _median([sum(ledger[k] for k in collect_io)
                        / ledger["profile_s"] for ledger in ledgers])
    lines.append("largest self time: %s" % largest)
    lines.append("daemon+journal+database share of the profiled run: "
                 "%.1f%%" % (100.0 * io_share))
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="The dcpid -> dcpicalc pipeline benchmark.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(specs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=specs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full", choices=specs.SIZES,
                        help="'tiny' is for the benchmark's self-tests")
    args = parser.parse_args(argv)
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print("perfbench: cannot import the program from %s: %s"
              % (os.path.join(ROOT, "src"), exc), file=sys.stderr)
        return 2
    lines, result = run(args.workload, args.seed, args.seconds,
                        bool(args.trace), args.size)
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
