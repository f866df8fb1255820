"""Self-tests of the benchmark.

Run from the repository root:  python3 -m pytest -q perfbench/selftest.py
(The file name keeps it out of the default test collection; the tiny
runs take about two minutes, most of it in the certify workload.)
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, aggregate  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(out):
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["certify", "crosscheck", "sweep"])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    out = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    result = last_json(out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {n: u for n, u, *_ in (run.PER_LAYER if trace else run.END_TO_END)}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == want
    for name, unit in want.items():
        assert "\n%s %s = " % (workload, name) in out.stdout
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["crosscheck", "sweep"])
def test_call_counts_repeat_between_traced_runs(workload):
    runs = [last_json(bench("--workload", workload, "--seed", str(s), "--seconds", "1", "--trace", "1"))
            for s in (1, 2)]
    counts = [{n: m["value"] for n, m in r["metrics"].items() if m["unit"] == "count"} for r in runs]
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_corrupted_golden_counts_ops_as_failed(tmp_path):
    reports = json.loads(workloads.GOLDEN.read_text())
    reports[1]["mu"]["sign"] = "+"
    bad = tmp_path / "golden.json"
    bad.write_text(json.dumps(reports, indent=2) + "\n")
    metrics, ops = run.timed_run(workloads.Certify(ROOT, 0, golden=bad), 0.0)
    assert ops and not any(op.ok for op in ops)
    assert metrics["ok_ratio"] == 0.0
    assert "np2-s7-squashed" in ops[0].detail


def test_report_check_separates_byte_match_from_failure():
    golden = workloads.GOLDEN.read_bytes()
    reports = json.loads(golden)
    check = workloads.check_report_all
    assert check(0, golden, golden) == (True, True, "")
    extra = json.dumps(reports + [dict(reports[0], identity="new-identity")], indent=2).encode()
    assert check(0, extra, golden)[:2] == (True, False)
    assert not check(0, json.dumps(reports[1:], indent=2).encode(), golden)[0]
    assert not check(1, golden, golden)[0]
    failing = reports + [dict(reports[0], identity="new-identity", status="fails")]
    assert not check(0, json.dumps(failing).encode(), golden)[0]


def test_float_values_at_the_wrong_point_count_ops_as_failed(monkeypatch):
    right = workloads.float_values

    def wrong(which, system, point, ts):
        return right(which, system, dict(point, lam=point["lam"] + Fraction(1, 4)), ts)

    monkeypatch.setattr(workloads, "float_values", wrong)
    metrics, ops = run.timed_run(workloads.CrossCheck(ROOT, 5), 0.0)
    assert ops and not any(op.ok for op in ops)
    assert metrics["ok_ratio"] == 0.0


def test_sweep_check_is_semantic_not_a_hit_count():
    lam = workloads.LAM_JOINT
    zero = {"lam": lam, "a": 0.5, "b": 0.0, "mu": -3 * lam, "residual": 1e-9}
    check = workloads.check_sweep
    assert check("b7", 0, json.dumps({"hits": [zero]}))[0]
    assert check("b7", 0, json.dumps({"hits": [zero] * 5}))[0]
    assert not check("b7", 0, json.dumps({"hits": []}))[0]
    assert not check("b7", 0, json.dumps({"hits": [zero, dict(zero, a=0.6)]}))[0]
    branch = {"lam": 0.5, "a": 0.0, "b": -1.0, "mu": -4.0, "residual": 0.0}
    assert check("s7-squashed", 0, json.dumps({"hits": [branch]}))[0]
    assert not check("s7-squashed", 0, json.dumps({"hits": [dict(branch, b=-0.9)]}))[0]
    assert not check("s7-squashed", 0, json.dumps({"hits": [dict(branch, mu=-3.0)]}))[0]


def test_tracer_rebinds_imported_names_and_restores_them():
    from g2cal import cli, exterior, structures

    originals = (exterior.ext_d, structures.ext_d, dict(cli.SPACE_RUNNERS), exterior.Form.wedge)
    tracer = Tracer()
    tracer.install()
    try:
        assert structures.ext_d is not originals[1]
        structures.s7_coframe()
    finally:
        tracer.uninstall()
    assert (exterior.ext_d, structures.ext_d, dict(cli.SPACE_RUNNERS), exterior.Form.wedge) == originals
    record = tracer.take()
    names = [s[0] for s in record["spans"]]
    assert names[:3] == ["structures.s7_coframe", "exterior.coframe_spec", "exterior.d_squared_check"]
    assert "exterior.ext_d" in names
    assert record["counts"]["exterior.wedge"] > 0
    for calls, total, own in aggregate(record["spans"]).values():
        assert 0 <= own <= total + 1e-9


def test_benchmark_json_matches_the_tables():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == run.spec()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
