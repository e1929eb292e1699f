"""pairquench benchmark: end-to-end and per-layer timings of the CLI workloads.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is imported from the ``src`` directory of the checkout holding
this file, never from an installed copy.  One run repeats the workload's CLI
invocation, each in a fresh process with one BLAS thread, until ``--seconds``
are used, and reports medians over the invocations.

- ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, measured
  with only the boundary spans that split set-up from solve.
- ``--trace 1`` alternates traced and untraced invocations and reports the
  per-layer metrics: self time per layer from the traced invocations, the
  tracing overhead from the difference of the two kinds.
- ``--workload all`` runs every workload in turn.

Every invocation passes the correctness gate of ``workloads.py``.  Each check
and each sweep field is one operation.  The last line of output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Raw
samples, the environment record and every check go to
``.bench_out/results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import derive
from workloads import SWEEP_FIELDS, WORKLOADS, Check, Workload, check_quench, check_sweep, config_text, sweep_offset

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"
PROBE = Path(__file__).resolve().parent / "probe.py"

#: BLAS and OpenMP thread pins of every invocation
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: no invocation starts after LAST_START seconds of a run; one still going at KILL_AFTER is killed
LAST_START, KILL_AFTER = 120.0, 170.0
#: share of a traced invocation's solve_s that may lie outside every layer
#: span when the measured tracing overhead is smaller than that
ACCOUNTING_SLACK = 0.05
END_TO_END = ("wall_s", "setup_s", "solve_s", "peak_rss_mib")


@dataclass
class Invocation:
    traced: bool
    threads: int
    exit_code: int
    wall_s: float
    peak_rss_mib: float
    artifacts: Path
    record: dict | None
    setup_s: float = math.nan
    solve_s: float = math.nan
    checks: list[Check] = field(default_factory=list)
    fields: int = 0
    failed_fields: int = 0


def environment() -> dict:
    """Machine, library and source facts recorded with every result."""
    import numpy
    import scipy

    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pairquench").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "thread_env": THREAD_ENV,
    }


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_ENV)


def invoke(workload: Workload, work: Path, index: int, *, threads: int, traced: bool,
           deadline: float) -> Invocation:
    """One CLI invocation in a fresh process, timed from spawn to reaped exit."""
    run_dir = work / f"inv{index}"
    run_dir.mkdir(parents=True)
    record = run_dir / "record.json"
    argv = [sys.executable, str(PROBE), str(record), "1" if traced else "0", "--",
            workload.experiment, "--config", str(work / "config.ini"),
            "--out", str(run_dir / "artifacts"), "--threads", str(threads)]
    with open(run_dir / "stderr.txt", "wb") as err:
        started = time.monotonic()
        proc = subprocess.Popen(argv, env=child_env(), stdout=subprocess.DEVNULL,
                                stderr=err, start_new_session=True)
        # the kill takes the whole session, pool workers included
        killer = threading.Timer(max(deadline - started, 1.0), os.killpg, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        ended = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    data = json.loads(record.read_text(encoding="utf-8")) if record.exists() else None
    inv = Invocation(traced, threads, proc.returncode, ended - started,
                     usage.ru_maxrss / 1024.0, run_dir / "artifacts", data)
    if data is not None:
        ends = {span[0]: span[2] for span in data["spans"]}
        ready = ends.get("quench.QuenchWorkspace.prepare")
        solved = ends.get("quench.run_quench", ends.get("quench.sweep_transfer"))
        if ready is not None and solved is not None:
            inv.setup_s, inv.solve_s = ready - started, solved - ready
    return inv


def gate(workload: Workload, seed: int, inv: Invocation) -> None:
    """Correctness checks of one invocation; a failed run fails all its sweep fields."""
    if workload.experiment == "sweep":
        inv.fields = inv.failed_fields = SWEEP_FIELDS
    inv.checks.append(Check("exit code 0", inv.exit_code == 0, f"exit {inv.exit_code}"))
    if inv.exit_code != 0:
        return
    inside = inv.record is not None and inv.record["module"].startswith(str(ROOT / "src"))
    inv.checks.append(Check("pairquench imported from this checkout", inside))
    try:
        if workload.experiment == "quench":
            inv.checks.extend(check_quench(workload, inv.artifacts))
        else:
            checks, inv.failed_fields = check_sweep(workload, inv.artifacts, seed)
            inv.checks.extend(checks)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        inv.checks.append(Check("artifacts readable", False, repr(exc)))


def measure(workload: Workload, work: Path, seconds: float, traced_run: bool):
    """The cross-mode sweep (if any) and the timed invocations of one run."""
    start = time.monotonic()
    deadline = start + KILL_AFTER
    # compile bytecode and warm the file cache, as any repeated CLI use has them
    subprocess.run([sys.executable, "-c", "import pairquench.cli"], env=child_env(), check=False)
    cross = None
    if workload.cross_threads:
        cross = invoke(workload, work, 0, threads=workload.cross_threads, traced=False,
                       deadline=deadline)
    pattern = (True, False) if traced_run else (False,)
    minimum = 3 if traced_run else 2
    runs: list[Invocation] = []
    while True:
        traced = pattern[len(runs) % len(pattern)]
        runs.append(invoke(workload, work, len(runs) + 1, threads=workload.threads,
                           traced=traced, deadline=deadline))
        elapsed = time.monotonic() - start
        typical = statistics.median(r.wall_s for r in runs)
        if elapsed >= LAST_START or (len(runs) >= minimum and elapsed + typical > seconds):
            return cross, runs


def byte_identity(cross: Invocation, runs: list[Invocation]) -> list[Check]:
    """Every sweep.csv of the run must equal the cross-mode sweep's byte for byte."""
    expected = (cross.artifacts / "sweep.csv").read_bytes() if cross.exit_code == 0 else None
    checks = []
    for inv in runs:
        same = expected is not None and inv.exit_code == 0 and (
            (inv.artifacts / "sweep.csv").read_bytes() == expected)
        checks.append(Check(f"sweep.csv byte-identical, --threads {cross.threads} and {inv.threads}", same))
    return checks


def count_check(workload: Workload, seed: int, per_inv: list[dict], source: str) -> Check:
    """Computed kernel counts must repeat across invocations and across runs of one source."""
    counts = [[m["propagation.matvecs"], m["model.h_nnz"]] for m in per_inv]
    same = bool(counts) and all(c == counts[0] for c in counts)
    inputs = sweep_offset(seed) if workload.experiment == "sweep" else "fixed"
    stored = OUT / "counts" / f"{source[:16]}-{workload.name}-{inputs}.json"
    if same and stored.exists():
        same = json.loads(stored.read_text(encoding="utf-8")) == counts[0]
    elif same:
        stored.parent.mkdir(parents=True, exist_ok=True)
        stored.write_text(json.dumps(counts[0]), encoding="utf-8")
    return Check("kernel counts repeat exactly", same, f"(matvecs, h_nnz) per invocation: {counts}")


def layer_summary(workload: Workload, seed: int, runs, cross, end_to_end: dict, source: str):
    """Per-layer medians over the traced invocations, and the checks of the traced run."""
    traced = [r for r in runs if r.traced and r.record is not None]
    plain = [r for r in runs if not r.traced]
    per_inv = [derive.layer_metrics(r.record["spans"], r.record["counts"]) for r in traced]
    layers = {name: statistics.median(m[name] for m in per_inv) for name in (per_inv[0] if per_inv else ())}
    checks = [count_check(workload, seed, per_inv, source)]

    overhead = 0.0
    if traced and plain:
        overhead = statistics.median(r.wall_s for r in traced) - statistics.median(r.wall_s for r in plain)
    layers["trace.overhead_s"] = overhead
    gaps = [(r.solve_s, derive.solve_layer_sum(r.record["spans"])) for r in traced]
    allowed = [max(abs(overhead), ACCOUNTING_SLACK * solve) for solve, _ in gaps]
    checks.append(Check(
        "layer self times sum to solve_s", all(abs(s - l) <= a for (s, l), a in zip(gaps, allowed)),
        "; ".join(f"solve_s {s:.4f} s, layers {l:.4f} s, allowed gap {a:.4f} s"
                  for (s, l), a in zip(gaps, allowed))))

    speedup = efficiency = 0.0
    if cross is not None and cross.exit_code == 0 and end_to_end:
        own, other = end_to_end["solve_s"], cross.solve_s
        serial, pooled = (own, other) if workload.threads == 1 else (other, own)
        speedup = derive.pool_speedup(serial, pooled)
        efficiency = derive.pool_efficiency(speedup, max(workload.threads, cross.threads))
    layers["quench.pool_speedup"] = speedup
    layers["quench.pool_efficiency"] = efficiency
    layers["quench.sweep_failed"] = sum(r.failed_fields for r in traced)
    timings = {}
    for name in ("propagation.advance", "quench.sweep_point"):
        values = [s[2] - s[1] for r in traced for s in r.record["spans"] if s[0] == name]
        if values:
            timings[name + "_s"] = derive.timing_summary(values)
    return layers, timings, checks


def run_workload(workload: Workload, seed: int, seconds: float, traced_run: bool, env: dict) -> dict:
    started = time.monotonic()
    work = OUT / "work" / f"{workload.name}-seed{seed}-trace{int(traced_run)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (work / "config.ini").write_text(config_text(workload, seed), encoding="utf-8")
    try:
        cross, runs = measure(workload, work, seconds, traced_run)
        everything = ([cross] if cross else []) + runs
        for inv in everything:
            gate(workload, seed, inv)
        run_checks = byte_identity(cross, runs) if cross else []
        plain = [r for r in runs if not r.traced and not math.isnan(r.solve_s)]
        if not plain:
            run_checks.append(Check("an untraced invocation finished", False))
        end_to_end = {name: statistics.median(getattr(r, name) for r in plain) for name in END_TO_END} if plain else {}
        layers, timings = {}, {}
        if traced_run:
            layers, timings, checks = layer_summary(workload, seed, runs, cross, end_to_end, env["source_sha256"])
            run_checks.extend(checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    checks = [c for inv in everything for c in inv.checks] + run_checks
    attempted = len(checks) + sum(inv.fields for inv in everything)
    failed = sum(not c.ok for c in checks) + sum(inv.failed_fields for inv in everything)
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": int(traced_run),
        "sweep_offset": sweep_offset(seed) if workload.experiment == "sweep" else None,
        "run_s": time.monotonic() - started,
        "environment": env,
        "end_to_end": end_to_end,
        "per_layer": layers,
        "timings": timings,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "checks": [vars(c) for c in checks],
        "invocations": [
            {"traced": i.traced, "threads": i.threads, "exit_code": i.exit_code,
             **{name: getattr(i, name) for name in END_TO_END}}
            for i in everything
        ],
    }


def declared_metrics() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def report(result: dict, units: dict[str, dict[str, str]]) -> None:
    """Human-readable lines of one workload run."""
    name = result["workload"]
    print(f"== {name} seed={result['seed']} trace={result['trace']} run_s={result['run_s']:.1f}")
    if result["sweep_offset"] is not None:
        print(f"  sweep sub-grid: default-grid points {result['sweep_offset']}.."
              f"{result['sweep_offset'] + SWEEP_FIELDS - 1}")
    for inv in result["invocations"]:
        print("  invocation " + " ".join(f"{k}={v:.4f}" if isinstance(v, float) else f"{k}={v}"
                                         for k, v in inv.items()))
    for kind in ("end_to_end", "per_layer"):
        for metric, value in result[kind].items():
            print(f"  {kind} {metric} = {value:.6g} {units[kind].get(metric, '')}")
    for name, summary in result["timings"].items():
        print(f"  timing {name}: " + " ".join(f"{k}={v:.6g}" for k, v in summary.items()))
    print(f"  fail_ratio = {result['fail_ratio']:.6g} ({result['failed']}/{result['attempted']})")
    for check in result["checks"]:
        if not check["ok"]:
            print(f"  FAILED {check['name']}: {check['detail']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pairquench" / "cli.py").is_file():
        print(f"pairquench sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = declared_metrics()
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), env)
        results.append(result)
        report(result, units)
        path = OUT / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(result, indent=1, sort_keys=True), encoding="utf-8")

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for result in results:
        prefix = f"{result['workload']}:" if len(results) > 1 else ""
        for metric, unit in units[kind].items():
            value = result[kind].get(metric)
            if value is not None:
                metrics[prefix + metric] = {"value": value, "unit": unit}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    complete = all(metric in r[kind] for r in results for metric in units[kind])
    print(json.dumps({"correct": failed == 0 and complete, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
