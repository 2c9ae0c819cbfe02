"""Self-tests of the benchmark, at smoke size.

Run from the root of the checkout:

    python3 -m pytest bench -q -s
"""

import json
import math
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

assert run.import_program() is None

import ctdi.capacity  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads(run.BENCH_FILE.read_text())
EXACT_UNITS = ("count", "bytes", "ratio")


@pytest.fixture
def workdir(request):
    """An empty directory under .bench_out/, so that the tests write only inside the checkout."""
    path = run.OUT / "selftest" / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def smoke(workload, trace, seed=0):
    args = run.parse_args(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                           "--trace", str(trace), "--size", "smoke"])
    return run.run(args)


def test_benchmark_json_names_the_bench_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["command"] == ["python3", "bench/run.py"]
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in SPEC["workloads"] + metrics]
    assert len(set(names)) == len(names)
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]) for m in metrics)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_smoke_runs_every_workload_traced_and_untraced():
    start = time.perf_counter()
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, record = smoke(workload, trace)
            assert result["correct"], record["failed_checks"]
            assert result["failed"] == 0 and result["attempted"] > 0
            kind = "per_layer" if trace else "end_to_end"
            assert list(result["metrics"]) == [m["name"] for m in SPEC[kind]]
            for metric in result["metrics"].values():
                assert math.isfinite(metric["value"])
            if not trace:
                assert all(result["metrics"][m]["value"] > 0 for m in result["metrics"])
    elapsed = time.perf_counter() - start
    print(f"smoke size, four workloads traced and untraced: {elapsed:.2f} s")
    assert elapsed < 7.5  # about 3.5 s on an idle 2-core machine


@pytest.mark.parametrize("workload, corrupt", [
    ("gaussian", lambda refs: {t: 1.5 * v for t, v in refs.items()}),
    ("poisson-rate", lambda refs: {p: 1.5 * v for p, v in refs.items()}),
    ("capacity", lambda refs: {**refs, "zero": (0.0, 2.0)}),
    ("discrete", lambda refs: {"verdict": "result: FAIL"}),
])
def test_corrupted_reference_makes_fail_rate_nonzero(workload, corrupt, monkeypatch):
    cls = WORKLOADS[workload]
    references = cls.references
    monkeypatch.setattr(cls, "references", lambda self: corrupt(references(self)))
    result, record = smoke(workload, 0)
    assert not result["correct"]
    assert result["failed"] > 0
    assert 0 < record["fail_rate"] == result["failed"] / result["attempted"]


def test_traced_counts_and_output_digests_repeat_exactly():
    for workload in WORKLOADS:
        (a, rec_a), (b, rec_b) = smoke(workload, 1, seed=3), smoke(workload, 1, seed=3)
        counts_a = {k: v["value"] for k, v in a["metrics"].items() if v["unit"] in EXACT_UNITS}
        counts_b = {k: v["value"] for k, v in b["metrics"].items() if v["unit"] in EXACT_UNITS}
        assert counts_a == counts_b
        assert rec_a["outputs_first_pass"] == rec_b["outputs_first_pass"]


@pytest.mark.parametrize("workload", ["gaussian", "poisson-rate"])
def test_jobs_2_writes_the_same_csv_as_jobs_1(workload, workdir):
    wl1 = WORKLOADS[workload]("smoke", workdir / "jobs1", jobs=1)
    wl2 = WORKLOADS[workload]("smoke", workdir / "jobs2", jobs=2)
    refs = wl1.references()
    one = wl1.run_pass(5, refs, run._no_span)
    two = wl2.run_pass(5, refs, run._no_span)
    assert one.outputs and one.outputs == two.outputs
    assert not one.checks.failures and not two.checks.failures


@pytest.mark.parametrize("workload", ["gaussian", "poisson-rate"])
def test_second_seed_reaches_the_program(workload):
    (a, rec_a), (b, rec_b) = smoke(workload, 0, seed=0), smoke(workload, 0, seed=1)
    assert rec_a["outputs_first_pass"] != rec_b["outputs_first_pass"]
    tta = [a["metrics"]["tta_s"]["value"], b["metrics"]["tta_s"]["value"]]
    print(f"{workload}: tta_s at seeds 0 and 1 = {tta[0]:.4g}, {tta[1]:.4g} s; "
          f"spread {abs(tta[0] - tta[1]) / (0.5 * sum(tta)):.1%} of their mean")


@pytest.mark.parametrize("lambda2, points", [(2.0, 32_746), (10.0, 131_052), (100.0, 2_097_136)])
def test_baseline_probe_point_counts(lambda2, points):
    with Tracer() as tracer:
        ctdi.capacity.binary_rate(0.5, 1.0, lambda2)
    assert tracer.counts["quadrature.composite_simpson.points"] == points
    assert tracer.calls["capacity.binary_rate"] == 1
    assert not hasattr(ctdi.capacity.binary_rate, "__wrapped__")


def test_refuses_to_run_without_the_program(workdir):
    shutil.copy(run.BENCH_FILE, workdir / "BENCHMARK.json")
    shutil.copytree(BENCH, workdir / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "gaussian", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=workdir, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
