"""Benchmark runner: one workload per process, a closed loop with one client.

    python3 bench/run.py --workload sessions --seed 3 --seconds 40 --trace 0
    python3 bench/run.py --workload all

Until `--seconds` have elapsed, a run repeats passes over the workload's
commands through `kljn.cli.main`, each pass after a set-up (a fresh
import of `kljn` from `src/`, then writing and loading the configs).  It
reports the median set-up time and each command's median time, then
checks the outputs of the last pass.  `--trace 1` instead alternates
untraced and traced passes and reports per-layer metrics.  The last line
of standard output is the JSON result; a run manifest and the full span
table go to `bench/results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import checks
from .tracing import LAYERS, Tracer, check_metric_name
from .workloads import Workload, workloads

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
REFERENCE = BENCH_DIR / "reference.json"

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
FIRST_SETUPS = 10  # then one before each pass
CONTRACT_BITS = 4  # bits per session re-run through run_bit

END_TO_END = {
    "setup_s": "s",
    "cli_s": "s",
    "bits_per_s": "bit/s",
    "secure_bits_per_s": "bit/s",
    "peak_rss_mb": "MB",
}

#: Spans whose call counts are reported.
CALL_SPANS = (
    "cli.cmd_simulate", "cli.cmd_table", "cli.cmd_attack", "cli._dump_rows",
    "config.load_config",
    "protocol.run_session", "protocol.run_bit", "protocol.bit_seed",
    "protocol.draw_parameters",
    "physics.analytic_observables", "physics.synthesize_bit_period",
    "physics.estimate_observables",
    "resolver.solve_vmg_temperatures", "resolver.recover_partner",
    "resolver.partner_resistance_equal_temp",
    "lookup.build_table", "lookup.LookupTable.is_singular",
    "adversary.eve_guess_session", "adversary.eve_rrrt_solution_family",
    "report.session_to_report", "report.write_report",
)
#: Spans every workload enters, so their self time is never a constant 0.
#: The self time of every other span is in the results file.
SELF_TIME_SPANS = (
    "config.load_config", "protocol.run_session", "protocol.run_bit",
    "protocol.bit_seed", "protocol.draw_parameters",
    "physics.analytic_observables", "resolver.recover_partner",
    "lookup.build_table", "lookup.LookupTable.is_singular",
    "adversary.eve_guess_session",
)
STATUSES = ("secure", "discarded-same-bit", "discarded-identical-resistance",
            "discarded-singular", "error")
VARIANTS = ("classic-kljn", "vmg-kljn", "rr-kljn", "rrrt-kljn")
COUNTERS = (
    *(f"protocol.status.{s}" for s in STATUSES),
    *(f"protocol.{v}.{k}" for v in VARIANTS for k in ("bits", "secure")),
    "resolver.recover_partner.failed.NoPositiveRoot",
    "resolver.recover_partner.failed.InconsistentObservables",
    "resolver.recover_partner.failed.AmbiguousRecovery",
    "resolver.partner_resistance_equal_temp.failed",  # InconsistentObservables
    "adversary.eve_rrrt_solution_family.points",
    "report.rows_written", "report.bytes_written",
)
GAUGES = {"lookup.n_settings": "count", "lookup.n_cells": "count",
          "lookup.singular_fraction": "fraction"}

PER_LAYER = {
    **{f"layer.{layer}.self_s": "s" for layer in LAYERS},
    **{f"{span}.calls": "count" for span in CALL_SPANS},
    **{f"{span}.self_s": "s" for span in SELF_TIME_SPANS},
    **{name: "count" for name in COUNTERS},
    **GAUGES,
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


# -- set-up ------------------------------------------------------------------

def import_kljn():
    """A fresh import of `kljn` from this checkout's `src/`."""
    for name in [m for m in sys.modules if m == "kljn" or m.startswith("kljn.")]:
        del sys.modules[name]
    kljn = importlib.import_module("kljn")
    importlib.import_module("kljn.cli")
    origin = Path(kljn.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"kljn was imported from {origin}, not from {SRC}")
    return kljn


def setup(workload: Workload, workdir: Path):
    """Import kljn, write the configs and load each; returns the time taken,
    the package and the (config, output) paths per command."""
    t0 = time.perf_counter()
    kljn = import_kljn()
    files = []
    for cmd in workload.commands:
        stem = f"{cmd.subcommand}-{cmd.label}"
        config_path = workdir / f"{stem}.json"
        config_path.write_text(json.dumps(cmd.config, indent=1))
        kljn.config.load_config(config_path)
        files.append((config_path, workdir / f"{stem}.csv"))
    return time.perf_counter() - t0, kljn, files


# -- passes ------------------------------------------------------------------

def run_pass(kljn, workload: Workload, files, seed: int, tracer=None,
             only=None) -> list[tuple[float, int]]:
    """Run each command (or those whose index is in `only`) once;
    (wall seconds, exit code) per command run."""
    results = []
    for i, (cmd, (config_path, out_path)) in enumerate(zip(workload.commands, files)):
        if only is not None and i not in only:
            continue
        argv = [cmd.subcommand, "--config", str(config_path), "--out",
                str(out_path), "--seed", str(seed), "--quiet"]
        if tracer is not None:
            tracer.trace_id += 1
        t0 = time.perf_counter()
        try:
            code = kljn.cli.main(argv)
        except Exception:  # a crash is a failed command, not a failed run
            traceback.print_exc()
            code = -1
        results.append((time.perf_counter() - t0, code))
    return results


def median_times(passes) -> list[float]:
    """Per command, its median wall time over the passes.

    On a virtual machine that shares its cores with other tenants, a
    Python loop runs up to 40 % slower for seconds at a time, and its
    fastest moments are rare: the fastest of dozens of repetitions
    differs more from run to run than their median does.
    """
    return [statistics.median(walls)
            for walls in zip(*([w for w, _ in p] for p in passes))]


def pass_rates(workload: Workload, walls: list[float], secure: int) -> dict:
    """End-to-end rates of one pass from each command's wall time."""
    session_wall = sum(w for cmd, w in zip(workload.commands, walls)
                       if cmd.runs_session)
    bits = sum(cmd.bits for cmd in workload.commands)
    return {"cli_s": sum(walls), "bits_per_s": bits / session_wall,
            "secure_bits_per_s": secure / session_wall}


def trace_metrics(tracer: Tracer) -> dict[str, float]:
    summary = tracer.summary()
    metrics = {f"layer.{layer}.self_s": value
               for layer, value in tracer.layer_self_times(summary).items()}
    for span in CALL_SPANS:
        metrics[f"{span}.calls"] = summary.get(span, {}).get("calls", 0)
    for span in SELF_TIME_SPANS:
        metrics[f"{span}.self_s"] = summary.get(span, {}).get("self_s", 0.0)
    for name in COUNTERS:
        metrics[name] = tracer.counters.get(name, 0)
    for name in GAUGES:
        metrics[name] = tracer.gauges.get(name, 0)
    metrics["trace.spans"] = len(tracer)
    return metrics


def _median(values):
    """Median; counts stay whole numbers."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


# -- checks ------------------------------------------------------------------

def check_outputs(kljn, workload: Workload, files, seed: int, workdir: Path,
                  contract: bool = True, only=None):
    """Problems per command index, and the digest of each output."""
    problems: dict[int, list[str]] = {}
    digests: dict[str, str] = {}
    rng = random.Random(f"{workload.name}:{seed}")
    for i, (cmd, (config_path, out_path)) in enumerate(zip(workload.commands, files)):
        if only is not None and i not in only:
            continue
        found = problems.setdefault(i, [])
        try:
            found += _check_command(kljn, cmd, config_path, out_path, seed, rng,
                                    workdir, contract, digests)
        except Exception as exc:  # a malformed output is a failed check
            found.append(f"{out_path.name}: check raised "
                         f"{type(exc).__name__}: {exc}")
    return problems, digests


def _check_command(kljn, cmd, config_path: Path, out_path: Path, seed: int,
                   rng: random.Random, workdir: Path, contract: bool,
                   digests: dict) -> list[str]:
    if not out_path.exists():
        return [f"{out_path.name} was not written"]
    report = kljn.report.read_report(out_path)
    found = checks.round_trip(kljn.report, report, out_path,
                              workdir / "round-trip.csv")
    digests[f"{cmd.subcommand}-{cmd.label}"] = checks.output_digest(
        cmd.subcommand, report)
    if cmd.subcommand == "table":
        return found + checks.table_invariants(report)
    config, extras = kljn.config.load_config(config_path)
    config = replace(config, master_seed=seed)  # as the CLI's --seed does
    found += (checks.session_invariants(report, cmd.bits)
              if cmd.subcommand == "simulate"
              else checks.attack_invariants(report))
    if not contract:
        return found
    indices = sorted(rng.sample(range(cmd.bits), min(CONTRACT_BITS, cmd.bits)))
    table = (kljn.protocol.build_lookup_table(config)
             if config.variant in ("rr-kljn", "rrrt-kljn") else None)
    if cmd.subcommand == "simulate":
        return found + checks.run_bit_matches_session(kljn, config, report,
                                                      indices, table)
    return found + checks.run_bit_matches_attack(kljn, config, extras, report,
                                                 indices, table)


def secure_bits(workload: Workload, files) -> int:
    total = 0
    for cmd, (_, out_path) in zip(workload.commands, files):
        if cmd.runs_session:
            for line in out_path.read_text().splitlines():
                if line.startswith("# secure_bits,"):
                    total += int(line.split(",", 1)[1])
    return total


def verify_reference(kljn, workload: Workload, files, seed: int, digests,
                     size: str, workdir: Path):
    """Compare the bit-exact outputs with the digests recorded at the
    default seed, running the seeded ones again at that seed if needed.
    Returns (problems per command index, commands run)."""
    reference = json.loads(REFERENCE.read_text())[size][workload.name]["digests"]
    problems: dict[int, list[str]] = {}
    exact = [i for i, c in enumerate(workload.commands) if c.exact]
    ran = 0
    if seed != workload.default_seed:
        rerun = [i for i in exact if workload.commands[i].seeded]
        verify_files = [(cfg, workdir / f"verify-{out.name}") for cfg, out in files]
        passes = run_pass(kljn, workload, verify_files, workload.default_seed,
                          only=rerun)
        ran = len(passes)
        for i, (_, code) in zip(rerun, passes):
            if code != 0:
                problems.setdefault(i, []).append(f"exit code {code} at the default seed")
        found, default_digests = check_outputs(
            kljn, workload, verify_files, workload.default_seed, workdir,
            contract=False, only=rerun)
        for i, items in found.items():
            problems.setdefault(i, []).extend(items)
        digests = {**digests, **default_digests}
    for i in exact:
        cmd = workload.commands[i]
        stem = f"{cmd.subcommand}-{cmd.label}"
        if digests.get(stem) != reference[stem]:
            problems.setdefault(i, []).append(
                f"{stem}: output digest differs from the reference recorded "
                f"at seed {workload.default_seed}")
    return problems, ran


# -- manifest ----------------------------------------------------------------

def git_commit(root: Path):
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_hash(package_dir: Path) -> str:
    sha = hashlib.sha256()
    for path in sorted(package_dir.glob("*.py")):
        sha.update(path.name.encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()


def manifest(kljn, workload: Workload, args, **extra) -> dict:
    return {
        "git_commit": git_commit(ROOT),
        "source_sha256": source_hash(SRC / "kljn"),
        "kljn_version": kljn.__version__,
        "workload": workload.name,
        "size": "tiny" if args.tiny else "full",
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload_config_sha256": workload.config_hash(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_pinning": {var: os.environ.get(var) for var in THREAD_ENV},
        "client": "closed loop, 1 client, in-process kljn.cli.main",
        **extra,
    }


# -- one workload ------------------------------------------------------------

def run_workload(args, started: float) -> int:
    workload = workloads(args.tiny)[args.workload]
    size = "tiny" if args.tiny else "full"
    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"work-{workload.name}-{os.getpid()}"
    workdir.mkdir()
    try:
        return _run_in(workload, size, workdir, args, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_in(workload: Workload, size: str, workdir: Path, args, started: float) -> int:
    attempted = nonzero_exits = 0
    setup_times, untraced, traced, per_pass_layers = [], [], [], []
    first_command_s = spans = None
    tracer = Tracer() if args.trace else None
    deadline = time.perf_counter() + args.seconds
    while not untraced or time.perf_counter() < deadline:
        # set-ups are spread over the run, so that their median is not
        # taken from a single moment of a shared machine
        try:
            for _ in range(1 if untraced else FIRST_SETUPS):
                elapsed, kljn, files = setup(workload, workdir)
                setup_times.append(elapsed)
        except ImportError as exc:
            print(f"cannot import kljn from {SRC}: {exc}", file=sys.stderr)
            return 2
        if first_command_s is None:
            first_command_s = time.perf_counter() - started
        result = run_pass(kljn, workload, files, args.seed)
        untraced.append(result)
        if tracer is not None:
            tracer.install()
            try:
                result_t = run_pass(kljn, workload, files, args.seed, tracer)
            finally:
                tracer.uninstall()
            traced.append(result_t)
            per_pass_layers.append(trace_metrics(tracer))
            if spans is None:
                spans = {"names": np.array(tracer.names), **tracer.arrays()}
                span_table = tracer.summary()
            tracer.clear()
            result = result + result_t
        attempted += len(result)
        nonzero_exits += sum(1 for _, code in result if code != 0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems, digests = check_outputs(kljn, workload, files, args.seed, workdir)
    verified, ran = verify_reference(kljn, workload, files, args.seed,
                                     digests, size, workdir)
    attempted += ran
    for i, items in verified.items():
        problems.setdefault(i, []).extend(items)
    # a command counts as failed once per non-zero exit, and once more
    # if its checked output is wrong
    failed_checks = [i for i, items in problems.items() if items]
    failed = min(attempted, nonzero_exits + len(failed_checks))
    for i in failed_checks:
        for item in problems[i]:
            print(f"check failed: {item}", file=sys.stderr)
    correct = failed == 0

    secure = secure_bits(workload, files) if correct else 0
    if args.trace:
        metrics = {name: _median([p[name] for p in per_pass_layers])
                   for name in per_pass_layers[0]}
        metrics["trace.overhead_s"] = (sum(median_times(traced))
                                       - sum(median_times(untraced)))
        units = PER_LAYER
    else:
        metrics = pass_rates(workload, median_times(untraced), secure)
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["peak_rss_mb"] = peak_rss_mb
        units = END_TO_END

    run_manifest = manifest(
        kljn, workload, args, passes=len(untraced), attempted=attempted,
        failed=failed, ops_failed=failed / attempted,
        start_to_first_command_s=first_command_s)
    stem = f"{workload.name}-{size}-seed{args.seed}-trace{args.trace}"
    record = {"manifest": run_manifest, "metrics": metrics,
              "setup_times_s": setup_times,
              "untraced_pass_walls_s": [[w for w, _ in r] for r in untraced],
              "traced_pass_walls_s": [[w for w, _ in r] for r in traced],
              "problems": {f"{workload.commands[i].subcommand}-"
                           f"{workload.commands[i].label}": items
                           for i, items in problems.items() if items}}
    if spans is not None:
        record["spans"] = span_table
        np.savez(RESULTS / f"{stem}-spans.npz", **spans)
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))

    print(json.dumps({"manifest": run_manifest}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {check_metric_name(name): {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0 if correct else 1


# -- all workloads -----------------------------------------------------------

def run_all(args) -> int:
    """Run each workload in its own process and print every metric."""
    ok = True
    for name, workload in workloads(args.tiny).items():
        seed = workload.default_seed if args.seed is None else args.seed
        argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                "--seed", str(seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = None
        if proc.returncode != 0 or result is None or not result["correct"]:
            ok = False
            sys.stderr.write(proc.stderr)
        if result is None:
            print(f"{name}: no result (exit {proc.returncode})")
            continue
        print(f"{name} seed={seed}: correct={result['correct']} "
              f"ops_failed={result['failed']}/{result['attempted']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<52} {entry['value']:>16.6g} {entry['unit']}")
    return 0 if ok else 1


def parse_args(argv=None):
    names = list(workloads())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's default seed)")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="how long the timed passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None, started: float | None = None) -> int:
    started = time.perf_counter() if started is None else started
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.seed is None:
        args.seed = workloads(args.tiny)[args.workload].default_seed
    return run_workload(args, started)
