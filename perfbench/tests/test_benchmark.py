"""Tests of the benchmark itself (run: python3 -m pytest perfbench/tests).

Exact counts from the tracer must repeat for a fixed seed, or a later change
could not rest a claim on them; and every metric the benchmark can print
must be declared in BENCHMARK.json.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, make_jobs  # noqa: E402

EXACT = ("classical.check.points", "classical.transform.bytes",
         "oracle.ordered_exp.steps", "classical.propagate.wasted_frac")


def _traced_counts(workload, seed, workdir):
    os.makedirs(workdir)
    jobs = make_jobs(workload, seed, str(workdir))
    jobs_path = os.path.join(workdir, "jobs.json")
    with open(jobs_path, "w", encoding="utf-8") as handle:
        json.dump(jobs, handle)
    result = run.run_pass(jobs_path, os.path.join(workdir, "result.json"),
                          traced=True, timeout=300)
    metrics = tracer.layer_metrics(result)
    return {k: v for k, v in metrics.items() if k.endswith(".calls") or k in EXACT}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat_for_a_seed(workload, tmp_path):
    first = _traced_counts(workload, 11, tmp_path / "a")
    second = _traced_counts(workload, 11, tmp_path / "b")
    assert first == second
    assert sum(v for k, v in first.items() if k.endswith(".calls")) > 0


def test_every_printable_metric_is_declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END
    assert per_layer == tracer.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
