"""End-to-end and per-layer benchmark of ``comdyn run`` / ``comdyn validate``.

Usage (from the repository root):

    python3 perfbench/run.py --workload small-state --seed 1 --seconds 60 --trace 0

A closed loop with one client: each pass starts a fresh interpreter
(``passrun.py``) that imports comdyn and runs the workload's jobs one after
another, so every pass pays the import and the caches a ``comdyn`` user pays
on each invocation. An untimed pass that only imports comdyn comes first;
timed passes then repeat until ``--seconds`` is spent, and every timing is a
median over the passes. Each pass also times a fixed calibration workload between its
jobs, and the pass's timings are scaled by it to a reference host speed
(``CALIBRATION_REF_S``). Time left after the last pass adds set-up samples.
After every pass, outside the timing, the outputs are checked against
independent references (``check.py``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` interleaves
untraced and traced passes and prints the per-layer metrics, including
``trace.overhead_s``. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a readable report with provenance.

Host settings such as BLAS threads are left at the user's defaults and
recorded, never pinned.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np
import scipy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import check  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, make_jobs  # noqa: E402

#: Seconds after which a run kills its pass and fails, so that it always
#: ends within three minutes.
RUN_LIMIT_S = 170
#: Calibration time of one pass (``passrun.CALIBRATION_SLICES`` slices) on
#: the reference host, a 2-vCPU x86-64 cloud VM in a quiet spell. Each
#: pass's timings are scaled by this over the calibration time measured in
#: that same pass, so the shared host's minutes-long swings in speed cancel
#: out of them; the report also prints the raw figures.
CALIBRATION_REF_S = 0.55
#: Fewest untraced passes a run makes, however long they take; a traced
#: run makes this many of each kind, traced and untraced.
MIN_PASSES = {0: 3, 1: 2}

#: End-to-end metric -> unit. ``wall_s`` is the sum over jobs of each job's
#: median calibrated time, so a slow burst on the host spoils one job's
#: sample, not the whole pass; ``setup_s`` is the median calibrated set-up
#: time over the passes and the set-up-only samples, ``peak_rss_mb`` a
#: median over the passes.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
#: Job-class timings, computed like ``wall_s`` over one class of jobs. They
#: are printed in the report only: not every workload has every class, and
#: a gated metric must exist, and be nonzero, on every workload.
JOB_CLASSES = {"run_s": "run", "oracle_s": "oracle", "validate_s": "validate",
               "reject_s": "reject"}


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _source_digest() -> str:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "comdyn")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _cpu_ticks() -> tuple:
    """(steal, total) jiffies from the aggregate cpu line of /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(v) for v in handle.readline().split()[1:]]
    except OSError:
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def _blas_threads():
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    try:
        with open("/proc/self/maps", encoding="ascii") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype, func.argtypes = ctypes.c_int, []
                return int(func())
    return None


def host_probe_ms() -> float:
    """Median time of a fixed pure-Python loop: a rough host-speed reading,
    taken at the start and end of a run so that runs made while the host
    was slower can be told apart."""
    times = []
    for _ in range(5):
        began, total = time.perf_counter(), 0
        for i in range(200_000):
            total += i * i
        times.append(1e3 * (time.perf_counter() - began))
    return statistics.median(times)


def provenance(args) -> dict:
    try:
        with open("/proc/loadavg", encoding="ascii") as handle:
            loadavg = handle.read().split()[:3]
    except OSError:
        loadavg = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": _git_commit(), "comdyn_source_sha256": _source_digest(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k, "unset") for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "loadavg_start": loadavg, "host_probe_ms_start": host_probe_ms(),
    }


def run_pass(jobs_path: str, result_path: str, traced: bool, timeout: float) -> dict:
    script = os.path.join(HERE, "passrun.py")
    spawn = time.perf_counter()
    completed = subprocess.run([sys.executable, script, jobs_path, result_path,
                                repr(spawn), "1" if traced else "0"],
                               cwd=ROOT, stdout=sys.stderr,
                               timeout=max(1.0, timeout))
    if completed.returncode != 0:
        raise RuntimeError(f"pass process exited with {completed.returncode}")
    with open(result_path, encoding="utf-8") as handle:
        return json.load(handle)


def summarize(values: list) -> str:
    """Median with the highest percentile that has ten samples beyond it."""
    n = len(values)
    text = f"median {statistics.median(values):.4f} (n={n}"
    if n > 10:
        pct = (100 * (n - 10)) // n
        text += f", p{pct} {np.percentile(values, pct):.4f}"
    return text + ")"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()

    def traced_turn(passes_done: int) -> bool:
        # untraced, traced, traced, untraced, ...: this order cancels a
        # steady drift of host speed out of trace.overhead_s
        return bool(args.trace) and passes_done % 4 in (1, 2)

    declared = _declared()
    if not os.path.isfile(os.path.join(ROOT, "src", "comdyn", "cli.py")):
        sys.exit(f"no comdyn sources under {os.path.join(ROOT, 'src')}")
    info = provenance(args)
    steal_start = _cpu_ticks()
    if steal_start:
        info["steal_frac_since_boot"] = steal_start[0] / steal_start[1]

    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-",
                               dir=os.path.join(ROOT, ".perfbench"))
    try:
        jobs = make_jobs(args.workload, args.seed, workdir)
        by_id = {job["id"]: job for job in jobs}
        jobs_path = os.path.join(workdir, "jobs.json")
        with open(jobs_path, "w", encoding="utf-8") as handle:
            json.dump(jobs, handle)

        plain, traced, problems = [], [], []
        attempted = failed = 0
        took = {False: [], True: []}

        # A pass with no jobs only starts the interpreter and imports
        # comdyn.cli. One comes first, untimed, so that the first timed pass
        # does not read comdyn and its dependencies from a cold disk cache
        # (or, in a fresh checkout, compile them); the set-up samples below
        # are more of them.
        empty_path = os.path.join(workdir, "empty.json")
        with open(empty_path, "w", encoding="utf-8") as handle:
            json.dump([], handle)
        run_pass(empty_path, os.path.join(workdir, "empty.out.json"), False, RUN_LIMIT_S)
        while True:
            use_trace = traced_turn(len(plain) + len(traced))
            began = time.perf_counter()
            result = run_pass(jobs_path, os.path.join(workdir, "result.json"), use_trace,
                              RUN_LIMIT_S - (began - start))
            for entry in result["jobs"]:
                attempted += 1
                reason = check.problem(by_id[entry["id"]], entry["rc"], entry["stderr"])
                if reason is not None:
                    failed += 1
                    problems.append(f"{entry['id']}: {reason}")
            (traced if use_trace else plain).append(result)
            took[use_trace].append(time.perf_counter() - began)
            enough = min(len(plain), len(traced) if args.trace else len(plain)) \
                >= MIN_PASSES[args.trace]
            # another pass only if one of typical length ends within --seconds
            expected = statistics.median(took[traced_turn(len(plain) + len(traced))] or [0.0])
            if enough and time.perf_counter() - start + expected > args.seconds:
                break
        # Time left over after the last pass goes to set-up samples.
        setup_runs = list(plain)
        expected = 2 * statistics.median(r["setup_s"] for r in plain)
        while time.perf_counter() - start + expected < args.seconds:
            began = time.perf_counter()
            setup_runs.append(run_pass(empty_path, os.path.join(workdir, "empty.out.json"),
                                       False, RUN_LIMIT_S - (began - start)))
            expected = time.perf_counter() - began
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    steal_end = _cpu_ticks()
    if steal_start and steal_end and steal_end[1] > steal_start[1]:
        info["steal_frac_during_run"] = ((steal_end[0] - steal_start[0])
                                         / (steal_end[1] - steal_start[1]))
    info["host_probe_ms_end"] = host_probe_ms()
    info["versions_in_pass"] = plain[0]["versions"]
    print("provenance: " + json.dumps(info, sort_keys=True))

    job_times = _job_times(plain, calibrated=True)
    raw_times = _job_times(plain, calibrated=False)
    wall = sum(statistics.median(times) for times in job_times.values())
    setup = [r["setup_s"] * _speed(r) for r in setup_runs]
    rss = [r["peak_rss_mb"] for r in plain]
    values = {"wall_s": wall, "setup_s": statistics.median(setup),
              "peak_rss_mb": statistics.median(rss)}
    print(f"passes: {len(plain)} untraced, {len(traced)} traced, "
          f"{len(setup_runs) - len(plain)} set-up only; untraced pass walls [s]: "
          + " ".join(f"{sum(j['seconds'] for j in r['jobs']):.3f}" for r in plain))
    print("host speed (calibration reference / measured) per untraced pass: "
          + " ".join(f"{_speed(r):.3f}" for r in plain))
    for job in jobs:
        print(f"  job {job['id']} ({job['cls']}) [s]: {summarize(job_times[job['id']])}, "
              f"raw {summarize(raw_times[job['id']])}")
    for name, cls in JOB_CLASSES.items():
        medians = [statistics.median(job_times[j["id"]]) for j in jobs if j["cls"] == cls]
        if medians:
            print(f"{name} [s]: {sum(medians):.4f} (sum of {len(medians)} job medians)")
    raw_wall = sum(statistics.median(times) for times in raw_times.values())
    print(f"wall_s [s]: {wall:.4f} (sum of {len(jobs)} job medians; raw {raw_wall:.4f})")
    print(f"setup_s [s]: {summarize(setup)}; raw "
          f"{summarize([r['setup_s'] for r in setup_runs])}")
    print(f"peak_rss_mb [MB]: {summarize(rss)}")
    print(f"failed_frac: {failed}/{attempted} = {failed / attempted:.4f}")
    for text in problems[:20]:
        print(f"FAILED {text}")

    if args.trace:
        spans_path = os.path.join(ROOT, ".perfbench",
                                  f"spans-{args.workload}-{args.seed}.json")
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(traced[-1]["trace"], handle)
        print(f"spans of the last traced pass: {os.path.relpath(spans_path, ROOT)}")
        metrics = trace_metrics(traced, wall)
    else:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    for name, metric in metrics.items():
        if declared.get(name) != metric["unit"]:
            raise RuntimeError(f"metric {name} [{metric['unit']}] is not declared "
                               "in BENCHMARK.json with that unit")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _speed(result: dict) -> float:
    """How much faster the host ran in this pass than the reference host:
    the factor that turns the pass's times into reference-host times."""
    return CALIBRATION_REF_S / result["calibration_s"]


def _job_times(passes: list, calibrated: bool) -> dict:
    """Job id -> its times over the passes, each scaled by its pass's speed
    if ``calibrated``."""
    times = {}
    for result in passes:
        scale = _speed(result) if calibrated else 1.0
        for entry in result["jobs"]:
            times.setdefault(entry["id"], []).append(entry["seconds"] * scale)
    return times


def trace_metrics(traced: list, plain_wall: float) -> dict:
    units = tracer.metric_units()
    per_pass = [tracer.layer_metrics(result) for result in traced]
    traced_wall = sum(statistics.median(t) for t in _job_times(traced, calibrated=True).values())
    metrics = {}
    for name in per_pass[0]:
        metrics[name] = {"value": statistics.median(p[name] for p in per_pass),
                         "unit": units[name]}
    metrics["trace.overhead_s"] = {"value": traced_wall - plain_wall, "unit": "s"}
    print("per-layer (median over traced passes; should move):")
    for layer, (_, moves) in tracer.LAYERS.items():
        calls = metrics[f"{layer}.calls"]["value"]
        self_s = metrics[f"{layer}.self_s"]["value"]
        print(f"  {layer:30s} calls {calls:>10g}  self {self_s:9.4f} s   -> {moves}")
    for name, (_, moves) in tracer.EXTRA.items():
        print(f"  {name:30s} {metrics[name]['value']:.6g}   -> {moves}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
