"""Tests of the benchmark itself: streams, reference oracle, tracer and checks.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from coupled_gue import cli  # noqa: E402
from reference import Reference  # noqa: E402
from run import run_op  # noqa: E402
from tracer import Tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_same_seed_same_workload(workload):
    first = list(islice(workloads.requests(workload, 7), 40))
    assert first == list(islice(workloads.requests(workload, 7), 40))
    assert first != list(islice(workloads.requests(workload, 8), 40))
    assert first != list(islice(workloads.requests(workload, 7, "warmup"), 40))


def test_prob_stream_shares_no_ray():
    reqs = list(islice(workloads.requests("prob-stream", 3), 600))
    rays = [(r.n, x) for r in reqs for x in r.xi]
    assert len(set(rays)) == len(rays)
    assert {r.n for r in reqs[:6]} == set(workloads.PROB_N)


@pytest.mark.parametrize("c, xi1, xi2", [(0.5, 0.0, 0.3), (0.2, -0.7, 1.1), (0.9, 0.4, 0.5)])
def test_reference_matches_bivariate_normal_at_n1(c, xi1, xi2):
    ref = Reference().log_prob(1, c, xi1, xi2)
    p = stats.multivariate_normal.cdf([math.sqrt(2.0) * xi1, math.sqrt(2.0) * xi2],
                                      mean=[0.0, 0.0], cov=[[1.0, c], [c, 1.0]],
                                      abseps=1e-13, releps=1e-13)
    assert ref.gap < 1e-12
    assert ref.log_prob == pytest.approx(math.log(p), abs=1e-9)


def test_reference_flags_known_k12_defect():
    """At (n=20, c=0.1, xi=(4, 4.5)) the program's ln P is off by about 2.7e-2."""
    req = workloads.Request(20, (0.1,), (4.0, 4.5),
                            ("prob", "--n", "20", "--c", "0.1", "--xi", "4.0", "4.5"))
    rc, text, *_ = run_op(cli, req.argv)
    check = workloads.check(req, rc, text, Reference())
    assert check.well_formed and check.verified and check.defect and not check.failed
    assert check.max_err > 1e-3


def test_program_error_is_a_defect_other_errors_fail():
    """At (n=50, c=0.1529, xi=(8.04, 8.19)) K_12 cancellation makes det(I - K) non-positive."""
    argv = ("prob", "--n", "50", "--c", "0.152924945088", "--xi", "8.044442746243", "8.193126876847")
    req = workloads.Request(50, (0.152924945088,), (8.044442746243, 8.193126876847), argv)
    rc, text, *_ = run_op(cli, argv)
    assert rc is None and text.startswith("FredholmError:")
    check = workloads.check(req, rc, text, Reference())
    assert check.defect and not check.failed
    check = workloads.check(req, None, "ValueError: math domain error", Reference())
    assert check.failed and not check.defect


def test_traced_outputs_bit_identical():
    reqs = list(islice(workloads.requests("prob-stream", 5), 6))
    reqs += list(islice(workloads.requests("scan-grid", 5), 1))
    plain = [run_op(cli, r.argv)[:2] for r in reqs]
    tracer = Tracer()
    with tracer:
        traced = []
        for r in reqs:
            with tracer.op():
                traced.append(run_op(cli, r.argv)[:2])
    assert traced == plain
    assert tracer.summary()["fredholm.solves"] > 0
    assert cli.main.__module__ == "coupled_gue.cli"
    assert not hasattr(cli.main, "__wrapped__")  # uninstall restored the originals
    assert isinstance(vars(cli.RunConfig)["from_dict"], classmethod)


def test_traced_counts_at_default_center():
    tracer = Tracer()
    with tracer, tracer.op():
        rc, _, *_ = run_op(cli, ["verify", "--n", "2", "--c", "0.5", "--xi", "0.0", "0.3"])
    assert rc == 0
    m = tracer.summary()
    assert m["fredholm.solves"] == 75
    assert m["fredholm.endpoint_calls"] == 43
    assert m["quadrature.rule_builds"] == 150
    assert m["fredholm.rhs_solved"] == 75 * 2 * 64
    assert 0.0 < m["residuals.cache_hit_ratio"] < 1.0
    shares = sum(m[f"{layer}.self_share"] for layer in ("cli", "residuals", "observables",
                                                         "fredholm", "kernel", "hermite",
                                                         "quadrature"))
    assert 0.5 < shares < 1.0


def test_verify_center_agrees_with_plain_cli():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for req in islice(workloads.requests("verify-center", 1), 2):
        rc, text, *_ = run_op(cli, req.argv)
        proc = subprocess.run([sys.executable, "-m", "coupled_gue.cli", *req.argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stdout) == (rc, text)


def test_run_refuses_checkout_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "prob-stream",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_result_line_contract():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "prob-stream",
                           "--seed", "2", "--seconds", "1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    assert all(np.isfinite(v["value"]) and v["value"] > 0 for v in result["metrics"].values())
