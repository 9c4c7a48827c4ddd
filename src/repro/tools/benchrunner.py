"""``dcpibench``: run the benchmark suite in parallel, track the results.

The benchmark suite regenerates the paper's tables and figures; this
runner turns it into something CI can gate on.  It discovers the
``bench_*.py`` modules, fans them out across worker processes (via the
same :class:`~repro.collect.parallel.ParallelSessionRunner` pool that
shards profiling runs), and collects the machine-readable
``BENCH_<name>.json`` results the benchmarks' conftest emits --
timings, sample counts, overhead percentages, and per-table assertion
outcomes.  The ``compare`` subcommand diffs two result directories and
exits nonzero on regression, so "the numbers got worse" fails the
build, not just "the numbers crashed".

Usage::

    dcpibench [--quick] [--workers N] [names ...]
    dcpibench compare OLD_DIR NEW_DIR [--threshold 0.3]
"""

import argparse
import fnmatch
import glob
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.collect.parallel import ParallelSessionRunner

#: Instruction-budget clamp applied by --quick (overridable with
#: --max-instructions).  Large enough that every benchmark's
#: qualitative assertions still hold; small enough for a CI smoke job.
QUICK_BUDGET = 120_000

#: Per-benchmark wall-clock limit (seconds).
DEFAULT_TIMEOUT = 900


@dataclass(frozen=True)
class BenchJob:
    """One benchmark module scheduled for a worker."""

    name: str
    path: str
    results_dir: str
    env: tuple = ()            # frozen (key, value) pairs
    timeout: int = DEFAULT_TIMEOUT


@dataclass
class BenchOutcome:
    name: str
    returncode: int
    elapsed_s: float
    result: Optional[dict] = None
    output_tail: str = ""

    @property
    def passed(self):
        return self.returncode == 0 and (
            self.result is None or self.result.get("passed", False))


def default_bench_dir():
    """Find the benchmarks directory: cwd, cwd/benchmarks, or the
    source checkout next to the installed package."""
    candidates = [
        os.path.join(os.getcwd(), "benchmarks"),
        os.getcwd(),
    ]
    here = os.path.dirname(os.path.abspath(__file__))
    candidates.append(os.path.normpath(
        os.path.join(here, "..", "..", "..", "benchmarks")))
    for candidate in candidates:
        if glob.glob(os.path.join(candidate, "bench_*.py")):
            return candidate
    raise SystemExit(
        "dcpibench: no bench_*.py found near %s; use --bench-dir"
        % os.getcwd())


def discover_benchmarks(bench_dir):
    """Return sorted [(name, path)] for every benchmark module."""
    pairs = []
    for path in sorted(glob.glob(os.path.join(bench_dir, "bench_*.py"))):
        stem = os.path.basename(path)[len("bench_"):-len(".py")]
        pairs.append((stem, path))
    return pairs


def _child_env(results_dir, quick, max_instructions):
    env = dict(os.environ)
    # Make sure workers can import repro even when it is not installed
    # (development checkouts run with PYTHONPATH=src).
    src_dir = os.path.normpath(os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", ".."))
    parts = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    if src_dir not in parts:
        parts.insert(0, src_dir)
    env["PYTHONPATH"] = os.pathsep.join(parts)
    env["DCPIBENCH_RESULTS"] = results_dir
    if quick:
        env["DCPIBENCH_QUICK"] = "1"
    if max_instructions:
        env["DCPIBENCH_MAX_INSTRUCTIONS"] = str(max_instructions)
    return env


def run_bench(job):
    """Run one benchmark module under pytest; the pool's worker function."""
    started = time.perf_counter()
    command = [sys.executable, "-m", "pytest", os.path.basename(job.path),
               "-q", "--benchmark-disable", "-p", "no:cacheprovider"]
    try:
        proc = subprocess.run(
            command, cwd=os.path.dirname(job.path), env=dict(job.env),
            capture_output=True, text=True, timeout=job.timeout)
        returncode, output = proc.returncode, proc.stdout + proc.stderr
    except subprocess.TimeoutExpired as exc:
        returncode = -1
        output = "TIMEOUT after %ds\n%s" % (job.timeout, exc.stdout or "")
    return BenchOutcome(
        name=job.name, returncode=returncode,
        elapsed_s=time.perf_counter() - started,
        output_tail=output[-2000:])


def _attach_results(outcomes, results_dir, workers):
    """Load each benchmark's JSON and stamp runner-level facts into it."""
    for outcome in outcomes:
        path = os.path.join(results_dir, "BENCH_%s.json" % outcome.name)
        if os.path.exists(path):
            with open(path) as handle:
                outcome.result = json.load(handle)
        elif outcome.returncode == 0:
            # The module ran but the harness produced nothing -- treat
            # as a failure so CI notices broken plumbing.
            outcome.returncode = 1
        runner_info = {
            "returncode": outcome.returncode,
            "wall_s": round(outcome.elapsed_s, 3),
            "workers": workers,
        }
        if outcome.result is not None:
            outcome.result["runner"] = runner_info
            outcome.result["passed"] = outcome.passed
            with open(path, "w") as handle:
                json.dump(outcome.result, handle, indent=2, sort_keys=True)
                handle.write("\n")


def run_suite(args):
    bench_dir = os.path.abspath(args.bench_dir or default_bench_dir())
    results_dir = os.path.abspath(
        args.results_dir or os.path.join(bench_dir, "results"))
    os.makedirs(results_dir, exist_ok=True)
    benchmarks = discover_benchmarks(bench_dir)
    if args.names:
        selected = []
        for name, path in benchmarks:
            if any(fnmatch.fnmatch(name, pat) or pat == name
                   for pat in args.names):
                selected.append((name, path))
        benchmarks = selected
    if args.list:
        for name, path in benchmarks:
            print(name)
        return 0
    if not benchmarks:
        print("dcpibench: nothing matched", file=sys.stderr)
        return 2

    max_instructions = args.max_instructions
    if args.quick and not max_instructions:
        max_instructions = QUICK_BUDGET
    env = tuple(sorted(_child_env(results_dir, args.quick,
                                  max_instructions).items()))
    jobs = [BenchJob(name=name, path=path, results_dir=results_dir,
                     env=env, timeout=args.timeout)
            for name, path in benchmarks]

    runner = ParallelSessionRunner(workers=args.workers)
    print("dcpibench: %d benchmarks, %d workers%s"
          % (len(jobs), runner.workers,
             ", quick (budget clamp %d)" % max_instructions
             if max_instructions else ""))
    started = time.perf_counter()
    outcomes = runner.map(run_bench, jobs)
    _attach_results(outcomes, results_dir, runner.workers)

    failed = [o for o in outcomes if not o.passed]
    for outcome in outcomes:
        metrics = (outcome.result or {}).get("metrics", {})
        print("  %-24s %-6s %6.1fs  %8d samples  %s"
              % (outcome.name,
                 "ok" if outcome.passed else "FAIL",
                 outcome.elapsed_s,
                 metrics.get("samples", 0),
                 "overhead %.2f%%" % metrics["overhead_pct_mean"]
                 if "overhead_pct_mean" in metrics else ""))
    print("dcpibench: %d/%d passed in %.1fs -> %s"
          % (len(outcomes) - len(failed), len(outcomes),
             time.perf_counter() - started, results_dir))
    for outcome in failed:
        print("\n--- %s (exit %d) ---\n%s"
              % (outcome.name, outcome.returncode, outcome.output_tail),
              file=sys.stderr)
    return 1 if failed else 0


# -- compare ---------------------------------------------------------------


def load_results(dirpath):
    """{benchmark name: parsed BENCH_*.json} for a results directory."""
    results = {}
    for path in sorted(glob.glob(os.path.join(dirpath, "BENCH_*.json"))):
        with open(path) as handle:
            payload = json.load(handle)
        results[payload.get("benchmark",
                            os.path.basename(path)[6:-5])] = payload
    return results


@dataclass
class Comparison:
    regressions: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    #: result-block drift (BLOCK_DRIFT_KEYS): surfaced, never build-failing.
    warnings: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.regressions


#: Relative drift tolerated, between runs with identical budget clamps,
#: in each of :data:`DETERMINISTIC_KEYS` (the simulator is
#: deterministic, so drift means collection behavior changed).
DETERMINISTIC_DRIFT = 0.01
DETERMINISTIC_KEYS = ("samples", "instructions", "cycles")

#: Relative ``instructions_per_sec`` drop tolerated between
#: identically-configured runs (the simulator fast-path gate).
IPS_THRESHOLD = 0.15

#: Result-block keys compared between identically-configured runs, by
#: block: (key, label, absolute slack).  Drift here warns, never fails.
#: Rates get small absolute slack; deterministic counts must match
#: exactly.  Timing-derived throughputs are not compared (they live in
#: the blocks for humans and trend dashboards), except the direction-
#: only concurrent-over-serial speedup, which carries a generous slack.
BLOCK_DRIFT_KEYS = {
    "obs": (
        ("driver.hash.miss_rate", "hash miss rate", 0.002),
        ("driver.hash.aggregation_factor", "hash aggregation factor", 0.5),
        ("driver.overflow.spills", "overflow spills", 0),
        ("driver.overflow.dropped", "dropped samples", 0),
        ("driver.hash.evictions", "hash evictions", 0),
        ("daemon.unknown_fraction", "unknown-sample fraction", 0.002),
        ("collect.loss_rate", "sample loss rate", 0.002),
        ("collect.samples_dropped", "accounted sample loss", 0),
        ("collect.recoveries", "crash recoveries", 0),
    ),
    "fleet": (
        ("samples_ingested", "fleet samples ingested", 0),
        ("deltas_applied", "fleet deltas applied", 0),
        ("duplicates_dropped", "fleet duplicates dropped", 0),
        ("downsample_residue", "fleet downsample residue", 0),
        ("disk_bytes_full", "fleet store bytes (no retention)", 0),
    ),
    "opt": (
        ("accepted", "opt rewrites accepted", 0),
        ("speedup_min", "opt minimum realized speedup", 0.005),
        ("speedup_mean", "opt mean realized speedup", 0.005),
    ),
    "resilience": (
        ("samples_conserved", "resilience samples conserved", 0),
        ("spool_dropped_samples", "resilience spool-dropped samples", 0),
        ("transit_lost_samples", "resilience transit-lost samples", 0),
        ("ship_retries", "resilience ship retries", 0),
        ("concurrent_speedup", "concurrent-over-serial ingest speedup",
         1.5),
    ),
}


def _note_one_sided(name, prefix, old, new, comparison):
    """Note every key (null counts as absent) carried by one side only."""
    old_keys = {k for k, v in old.items() if v is not None}
    new_keys = {k for k, v in new.items() if v is not None}
    for key in sorted(old_keys ^ new_keys):
        comparison.notes.append(
            "%s: %s%s only in the %s" % (
                name, prefix, key,
                "baseline" if key in old_keys else "new results"))


def compare_results(old, new, threshold=0.3):
    """Diff two result sets; regressions are what CI should fail on.

    Every rule compares one key and fires whenever both sides carry
    it; a top-level block or a ``metrics`` key present on only one
    side is noted, never failed.  A field whose meaning changes gets a
    new name, so a shared key always means the same thing.

    * a benchmark that passed before and fails now -- regression;
    * ``elapsed_s`` grew by more than *threshold* (relative) -- regression;
    * ``overhead_pct_mean`` grew by more than ``max(0.5pp,
      threshold * |old|)`` -- regression;
    * between runs with identical budget clamps (and, for throughput,
      the same ``fastpath`` setting):

      - ``instructions_per_sec`` fell by more than
        :data:`IPS_THRESHOLD` -- regression;
      - any of :data:`DETERMINISTIC_KEYS` drifted by more than
        :data:`DETERMINISTIC_DRIFT` -- regression;
      - a :data:`BLOCK_DRIFT_KEYS` entry drifted beyond its slack --
        warned, not failed;
    * benchmarks appearing/disappearing -- noted, not failed.
    """
    comparison = Comparison()
    for name in sorted(set(old) | set(new)):
        if name not in new:
            comparison.notes.append("%s: missing from new results" % name)
            continue
        if name not in old:
            comparison.notes.append("%s: new benchmark" % name)
            continue
        o, n = old[name], new[name]
        om, nm = o.get("metrics", {}), n.get("metrics", {})
        _note_one_sided(name, "", o, n, comparison)
        _note_one_sided(name, "metrics.", om, nm, comparison)
        if o.get("passed") and not n.get("passed"):
            comparison.regressions.append(
                "%s: passed before, fails now" % name)
        old_t, new_t = om.get("elapsed_s"), nm.get("elapsed_s")
        if old_t and new_t and new_t > old_t * (1.0 + threshold):
            comparison.regressions.append(
                "%s: elapsed_s %.2f -> %.2f (+%.0f%% > %.0f%% threshold)"
                % (name, old_t, new_t, (new_t / old_t - 1) * 100,
                   threshold * 100))
        old_ov, new_ov = (om.get("overhead_pct_mean"),
                          nm.get("overhead_pct_mean"))
        if old_ov is not None and new_ov is not None:
            allowed = max(0.5, threshold * abs(old_ov))
            if new_ov > old_ov + allowed:
                comparison.regressions.append(
                    "%s: overhead %.2f%% -> %.2f%% (allowed +%.2fpp)"
                    % (name, old_ov, new_ov, allowed))
        if (o.get("max_instructions_clamp")
                != n.get("max_instructions_clamp")
                or o.get("quick") != n.get("quick")):
            continue
        old_ips, new_ips = (om.get("instructions_per_sec"),
                            nm.get("instructions_per_sec"))
        if (o.get("fastpath") == n.get("fastpath")
                and old_ips and new_ips is not None
                and new_ips < old_ips * (1.0 - IPS_THRESHOLD)):
            comparison.regressions.append(
                "%s: instructions/sec %.0f -> %.0f (-%.0f%% > %.0f%% "
                "threshold)"
                % (name, old_ips, new_ips, (1 - new_ips / old_ips) * 100,
                   IPS_THRESHOLD * 100))
        for key in DETERMINISTIC_KEYS:
            old_v, new_v = om.get(key), nm.get(key)
            if not old_v or new_v is None:
                continue
            drift = abs(new_v - old_v) / old_v
            if drift > DETERMINISTIC_DRIFT:
                comparison.regressions.append(
                    "%s: %s %d -> %d (drift %.1f%% > %.1f%%)"
                    % (name, key, old_v, new_v, drift * 100,
                       DETERMINISTIC_DRIFT * 100))
        for block, keys in BLOCK_DRIFT_KEYS.items():
            old_b, new_b = o.get(block) or {}, n.get(block) or {}
            for key, label, slack in keys:
                old_v, new_v = old_b.get(key), new_b.get(key)
                if (old_v is not None and new_v is not None
                        and abs(new_v - old_v) > slack):
                    comparison.warnings.append(
                        "%s: %s drifted %g -> %g"
                        % (name, label, old_v, new_v))
    return comparison


def run_compare(args):
    old = load_results(args.old)
    new = load_results(args.new)
    if not old or not new:
        print("dcpibench compare: no BENCH_*.json under %s"
              % (args.old if not old else args.new), file=sys.stderr)
        return 2
    comparison = compare_results(old, new, threshold=args.threshold)
    for note in comparison.notes:
        print("note: %s" % note)
    for warning in comparison.warnings:
        print("warning: %s" % warning)
    for regression in comparison.regressions:
        print("REGRESSION: %s" % regression)
    print("compared %d benchmarks: %d regression(s), %d warning(s)"
          % (len(set(old) & set(new)), len(comparison.regressions),
             len(comparison.warnings)))
    return 0 if comparison.ok else 1


# -- entry point -----------------------------------------------------------


def _build_run_parser():
    parser = argparse.ArgumentParser(
        prog="dcpibench",
        description="run the benchmark suite and write BENCH_*.json "
                    "results (use 'dcpibench compare OLD NEW' to diff "
                    "two result sets)")
    parser.add_argument("names", nargs="*",
                        help="benchmark names or globs (default: all)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: cpu count)")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: clamp instruction budgets "
                             "to %d" % QUICK_BUDGET)
    parser.add_argument("--max-instructions", type=int, default=None,
                        help="explicit instruction-budget clamp")
    parser.add_argument("--bench-dir", default=None)
    parser.add_argument("--results-dir", default=None)
    parser.add_argument("--timeout", type=int, default=DEFAULT_TIMEOUT,
                        help="per-benchmark timeout (seconds)")
    parser.add_argument("--list", action="store_true",
                        help="list matching benchmarks and exit")
    return parser


def _build_compare_parser():
    parser = argparse.ArgumentParser(
        prog="dcpibench compare",
        description="diff two BENCH_*.json result directories; exit 1 "
                    "on regression")
    parser.add_argument("old", help="baseline results directory")
    parser.add_argument("new", help="candidate results directory")
    parser.add_argument("--threshold", type=float, default=0.3,
                        help="relative slowdown tolerated (default 0.3)")
    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "compare":
        return run_compare(_build_compare_parser().parse_args(argv[1:]))
    return run_suite(_build_run_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
