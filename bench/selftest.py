"""Tests of the benchmark itself: the output checker, the tracer and the result line.

    python3 -m pytest -q bench/selftest.py

The checker must pass pcortho's genuine outputs and count every corrupted
one as failed. (The file name keeps it out of the repository's own test run.)
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checker  # noqa: E402
import pcortho  # noqa: E402
import pcortho.cli  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = pcortho.cli.run(argv)
    return code, out.getvalue()


@pytest.fixture(params=[False, True], ids=["json-full-precision", "csv-saaty-symmetrize"])
def case(request, tmp_path):
    """One matrix and weight file per input style, written as the workloads write them."""
    small = request.param
    rng = np.random.default_rng(7)
    cli = workloads.Cli(rng, str(tmp_path), small)
    n = 6
    A, mpath = cli._matrix(rng, n)
    W, wpath = cli._weights(rng, n)
    return small, A, W, mpath, wpath


def _output(case, command, weighted):
    small, A, W, mpath, wpath = case
    argv = [command, mpath, "--output", "json"] + (["--weights", wpath] if weighted else [])
    code, stdout = _cli(argv + (["--symmetrize"] if small else []))
    return code, json.loads(stdout), A, (W if weighted else None), small


def _problems(command, code, report, A, W, small):
    return checker.check_cli(command, code, json.dumps(report), A, W, small)


@pytest.mark.parametrize("command,weighted", [
    ("check", False), ("project", False), ("project", True), ("rank", True), ("factor", False),
    ("factor", True),
])
def test_genuine_output_passes(case, command, weighted):
    code, report, A, W, small = _output(case, command, weighted)
    assert _problems(command, code, report, A, W, small) == []


def _skew(n, i, j, x):
    d = np.zeros((n, n))
    d[i, j], d[j, i] = x, -x
    return d


def _consistent(n, v):
    return np.subtract.outer(v, v)


PROJECT_CORRUPTIONS = {
    "perturbed B_h": lambda r, n: r.update(b_h=(np.array(r["b_h"]) + _skew(n, 0, 2, 1e-4)).tolist()),
    "consistent mass moved from B_l to B_h": lambda r, n: r.update(
        b_l=(np.array(r["b_l"]) + _consistent(n, np.arange(n) * 1e-3)).tolist(),
        b_h=(np.array(r["b_h"]) - _consistent(n, np.arange(n) * 1e-3)).tolist()),
    "cycle moved from B_h to B_l": lambda r, n: r.update(
        b_l=(np.array(r["b_l"]) + _skew(n, 1, 3, 1e-3)).tolist(),
        b_h=(np.array(r["b_h"]) - _skew(n, 1, 3, 1e-3)).tolist()),
    "wrong ranking": lambda r, n: r.update(ranking_weights=r["ranking_weights"][::-1]),
    "ratio off": lambda r, n: r.update(inconsistency_ratio=r["inconsistency_ratio"] + 1e-3),
    "ratio above 1": lambda r, n: r.update(inconsistency_ratio=1.5),
    "wrong input echoed": lambda r, n: r["input"][0].__setitem__(1, r["input"][0][1] * 1.01),
    "missing field": lambda r, n: r.pop("b_l"),
}


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("corruption", sorted(PROJECT_CORRUPTIONS))
def test_corrupted_project_fails(case, corruption, weighted):
    code, report, A, W, small = _output(case, "project", weighted)
    PROJECT_CORRUPTIONS[corruption](report, report["n"])
    assert _problems("project", code, report, A, W, small)


RANK_CORRUPTIONS = {
    "swapped log-ranking": lambda r: r.update(logvalues=r["logvalues"][::-1]),
    "shifted log-ranking": lambda r: r.update(logvalues=[x + 1e-3 for x in r["logvalues"]]),
    "swapped weights": lambda r: r.update(weights=r["weights"][::-1]),
    "short ranking": lambda r: r.update(logvalues=r["logvalues"][:-1]),
}


@pytest.mark.parametrize("corruption", sorted(RANK_CORRUPTIONS))
def test_corrupted_rank_fails(case, corruption):
    code, report, A, W, small = _output(case, "rank", True)
    RANK_CORRUPTIONS[corruption](report)
    assert _problems("rank", code, report, A, W, small)


FACTOR_CORRUPTIONS = {
    "scaled phi(B_h) entry": lambda r: r["phi_b_h"][0].__setitem__(1, r["phi_b_h"][0][1] * 1.001),
    "factors swapped": lambda r: r.update(phi_b_h=r["phi_b_l"], phi_b_l=r["phi_b_h"]),
    "non-positive factor": lambda r: r["phi_b_l"][1].__setitem__(2, -1.0),
}


@pytest.mark.parametrize("corruption", sorted(FACTOR_CORRUPTIONS))
def test_corrupted_factor_fails(case, corruption):
    code, report, A, W, small = _output(case, "factor", True)
    FACTOR_CORRUPTIONS[corruption](report)
    assert _problems("factor", code, report, A, W, small)


CHECK_CORRUPTIONS = {
    "flipped consistent verdict": lambda r: r.update(consistent=not r["consistent"]),
    "flipped reciprocal verdict": lambda r: r.update(reciprocal=not r["reciprocal"]),
    "consistency defect too small": lambda r: r.update(worst_consistency_defect=0.0),
    "reciprocity defect wrong": lambda r: r.update(worst_reciprocity_defect=0.5),
    "pair out of range": lambda r: r.update(worst_pair=[0, 99]),
}


@pytest.mark.parametrize("corruption", sorted(CHECK_CORRUPTIONS))
def test_corrupted_check_fails(case, corruption):
    code, report, A, W, small = _output(case, "check", False)
    CHECK_CORRUPTIONS[corruption](report)
    assert _problems("check", code, report, A, W, small)


def test_consistent_input_verdict():
    w = np.array([0.5, 0.2, 0.2, 0.1])
    A = w[:, None] / w[None, :]
    report = {"command": "check", "n": 4, "reciprocal": True, "worst_reciprocity_defect": 0.0,
              "worst_pair": [1, 1], "consistent": True, "worst_consistency_defect": 0.0}
    assert checker.check_cli("check", 0, json.dumps(report), A, None, False) == []
    report["consistent"] = False
    assert checker.check_cli("check", 0, json.dumps(report), A, None, False)


def test_exit_code_and_garbage_fail():
    A = np.ones((3, 3))
    assert checker.check_cli("rank", 2, "", A, None, False)
    assert checker.check_cli("rank", 0, "not json", A, None, False)
    assert checker.check_cli("rank", "MemoryError: ", "", A, None, False)


def test_panel_checks():
    rng = np.random.default_rng(3)
    panel = workloads.Panel(rng, "")
    A = workloads.noisy_reciprocal(rng, workloads.LARGE_N)
    D, rv, ratio = panel.run_op(A)
    assert panel.check(A, (D, rv, ratio)) == []
    up = D.B_h.upper.copy()
    up[5] += 1e-4
    assert checker.check_panel(A, panel.W_rows, D.B_l.upper, up, rv.logvalues, rv.weights, ratio)
    assert checker.check_panel(A, panel.W_rows, D.B_l.upper, D.B_h.upper, rv.logvalues[::-1],
                               rv.weights, ratio)
    assert checker.check_panel(A, panel.W_rows, D.B_l.upper, D.B_h.upper, rv.logvalues,
                               rv.weights, ratio * 1.01)


def test_tracer_wraps_every_namespace_and_restores(case):
    small, _, _, mpath, wpath = case
    before = {name: dict(vars(m)) for name, m in sys.modules.items() if name.startswith("pcortho")}
    commands, dense = dict(pcortho.cli._COMMANDS), pcortho.SkewMatrix.dense
    spans = tracer.SpanTracer()
    spans.install()
    try:
        assert pcortho.projection.ln_w_basis is pcortho.bases.ln_w_basis is pcortho.ln_w_basis
        assert pcortho.projection.ln_w_basis is not before["pcortho.bases"]["ln_w_basis"]
        _cli(["project", mpath, "--weights", wpath, "--output", "json"] + ["--symmetrize"] * small)
    finally:
        spans.uninstall()
    after = {name: dict(vars(m)) for name, m in sys.modules.items() if name.startswith("pcortho")}
    assert after == before
    assert pcortho.cli._COMMANDS == commands and pcortho.SkewMatrix.dense is dense
    s = spans.summary()
    # reached through the CLI's dispatch table, and through projection's import of bases
    assert s["cli.cmd_project"]["calls"] == 1
    assert s["bases.ln_w_basis"]["calls"] == 2
    assert s["inner.VectorMetricInner.__call__"]["outer_calls"] > 0
    for name, v in s.items():
        assert 0 <= v["self_s"] <= v["total_s"] + 1e-9, name


def test_alloc_tracer_nests():
    n = 30
    rng = np.random.default_rng(1)
    B = pcortho.mu(pcortho.PCMatrix.from_rows(workloads.noisy_reciprocal(rng, n)))
    W = pcortho.WeightMatrix.from_rows(workloads.spd_weights(rng, n))
    alloc = tracer.AllocTracer()
    alloc.install()
    tracemalloc.start()
    try:
        pcortho.decompose(B, W)
    finally:
        tracemalloc.stop()
        alloc.uninstall()
    stack = (n - 1) * n * n * 8  # the dense basis stack
    assert alloc.peak_bytes["projection.project_ln_w"] >= stack
    assert alloc.peak_bytes["projection.decompose"] >= alloc.peak_bytes["projection.project_ln_w"]


def _result(capsys, trace):
    assert run.main(["--workload", "cli-small", "--seed", "1", "--seconds", "0.3",
                     "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_matches_benchmark_json(capsys, trace, key):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    result = _result(capsys, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in spec[key]} == {
        name: m["unit"] for name, m in result["metrics"].items()}
