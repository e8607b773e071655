"""One pass: a fresh interpreter imports comdyn and runs a workload's jobs.

Usage: python3 perfbench/passrun.py JOBS_JSON RESULT_JSON SPAWN_TIME TRACE

SPAWN_TIME is the parent's ``time.perf_counter()`` just before it started
this process (CLOCK_MONOTONIC, shared by all processes on Linux), so
``setup_s`` covers interpreter start-up plus ``import comdyn.cli``. Each
job calls ``comdyn.cli.main`` exactly as the console script does; only the
call is timed. With TRACE=1 the tracer wraps comdyn's layers first.

Between the jobs, outside their timing, the pass runs a fixed calibration
workload that does not touch comdyn, in CALIBRATION_SLICES equal slices
spread over the pass. Its total time, ``calibration_s``, samples how fast
the host ran during the pass.
"""

import sys
import time

SPAWN = float(sys.argv[3])

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import comdyn.cli as cli  # noqa: E402

SETUP_S = time.perf_counter() - SPAWN

import numpy as np  # noqa: E402  (already imported by comdyn)

#: Slices of calibration work per pass, split evenly over the points before
#: each job and after the last one. One slice takes about 15 ms on a
#: 2-vCPU x86-64 cloud host.
CALIBRATION_SLICES = 36
_CAL_GRID = np.linspace(0.0, 2.0, 201)


def _calibrate(slices: int) -> float:
    """Seconds taken by ``slices`` slices of interpreter loops and small
    numpy calls, the two kinds of work comdyn's jobs are made of."""
    began = time.perf_counter()
    for _ in range(slices):
        total = 0.0
        for i in range(40_000):
            total += (i * 0.5) % 7.0
        for _ in range(1_500):
            total += float(np.exp(-_CAL_GRID).sum())
    return time.perf_counter() - began


def _slices_per_point(points: int) -> list:
    base, extra = divmod(CALIBRATION_SLICES, points)
    return [base + (1 if i < extra else 0) for i in range(points)]


def _remove_outputs(job):
    for suffix in ("", ".meta.json", ".channel.csv"):
        with contextlib.suppress(FileNotFoundError):
            os.remove(job["out"] + suffix)


def main():
    jobs_path, result_path, trace = sys.argv[1], sys.argv[2], sys.argv[4] == "1"
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"comdyn imported from {cli.__file__}, not from {SRC}")
    with open(jobs_path, encoding="utf-8") as handle:
        jobs = json.load(handle)
    tracer = None
    if trace:
        sys.path.insert(0, HERE)
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    results = []
    slices = _slices_per_point(len(jobs) + 1)
    calibration = 0.0
    for job, count in zip(jobs, slices):
        calibration += _calibrate(count)
        _remove_outputs(job)
        stdout, stderr = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.job = job["id"]
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                rc = cli.main(job["argv"])
            except Exception:  # a traceback is a failed job, not a crash
                rc = "traceback"
                stderr.write(traceback.format_exc())
            seconds = time.perf_counter() - start
        results.append({"id": job["id"], "rc": rc, "seconds": seconds,
                        "stderr": stderr.getvalue()[-2000:]})
    calibration += _calibrate(slices[-1])
    versions = {"comdyn": sys.modules["comdyn"].__version__,
                "numpy": sys.modules["numpy"].__version__,
                "scipy": sys.modules["scipy"].__version__,
                "python": sys.version.split()[0]}
    payload = {"setup_s": SETUP_S, "calibration_s": calibration,
               "jobs": results, "versions": versions,
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
               "trace": tracer.dump() if tracer is not None else None}
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


if __name__ == "__main__":
    main()
