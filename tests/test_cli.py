"""CLI behavior: exit codes, report schema, config handling, determinism."""

import json
from pathlib import Path

import pytest

from g2cal import cli
from g2cal.cli import main, SPACES
from g2cal.structures import NotProportional

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden" / "report-all.json"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("space", SPACES)
def test_verify_every_space_passes(capsys, space):
    code, out, err = run(capsys, "verify", "--space", space)
    assert code == 0
    assert out.strip()


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "--space", "s7-squashed",
                       "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert isinstance(reports, list) and reports
    for rep in reports:
        assert set(rep) == {"identity", "status", "mu", "residual", "elapsed_ms"}
        assert rep["status"] in ("holds", "holds-with-mu", "fails")
        assert isinstance(rep["elapsed_ms"], int)
    np2 = next(r for r in reports if r["identity"] == "np2-s7-squashed")
    assert np2["status"] == "holds-with-mu"
    assert np2["mu"] == {
        "exact": "6/sqrt5",
        "approx": pytest.approx(2.68328157300, abs=1e-10),
        "sign": "-",
    }


def test_verify_requires_space(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2
    assert "space" in err


def test_unknown_space_rejected_by_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--space", "nope"])
    assert exc.value.code == 2


def test_unknown_command_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_report_all_deterministic(capsys):
    code1, out1, _ = run(capsys, "report-all", "--format", "json")
    code2, out2, _ = run(capsys, "report-all", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    reports = json.loads(out1)
    assert all(r["elapsed_ms"] == 0 for r in reports)
    assert all(r["status"] in ("holds", "holds-with-mu") for r in reports)
    # every space contributes at least one report
    assert len(reports) >= len(SPACES)
    # every committed golden report is reproduced
    for want in json.loads(GOLDEN.read_text()):
        assert want in reports


def test_runner_error_becomes_fails_report(capsys, monkeypatch):
    def broken():
        raise NotProportional("conflicting ratios")

    monkeypatch.setitem(cli.SPACE_RUNNERS, "connection", broken)
    code, out, _ = run(capsys, "verify", "--space", "connection",
                       "--format", "json")
    assert code == 1
    rep, = json.loads(out)
    assert rep["identity"] == "connection"
    assert rep["status"] == "fails"
    assert rep["residual"] == "conflicting ratios"
    monkeypatch.setattr(cli, "SPACES", ("gram-blocks", "connection"))
    code, out, _ = run(capsys, "report-all", "--format", "json")
    assert code == 1
    assert [r["status"] for r in json.loads(out)] == ["holds", "fails"]


def test_output_file(capsys, tmp_path):
    path = tmp_path / "out.json"
    code, out, _ = run(capsys, "verify", "--space", "connection",
                       "--format", "json", "--output", str(path))
    assert code == 0
    assert out == ""
    reports = json.loads(path.read_text())
    assert reports[0]["status"] == "holds"


def test_constraints_command(capsys):
    code, out, _ = run(capsys, "constraints", "--space", "s7-squashed",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "s7" and payload["system"] == "nhf"
    assert len(payload["constraints"]) == 3


def test_constraints_needs_parametric_space(capsys):
    code, _, err = run(capsys, "constraints", "--space", "lemma-1-1")
    assert code == 2


def test_sweep_command(capsys):
    code, out, _ = run(
        capsys, "sweep", "--space", "s7-squashed", "--format", "json",
        "--lambda-min", "0.5", "--lambda-max", "0.5",
        "--a-min", "0", "--a-max", "0", "--b-min", "-1", "--b-max", "0",
        "--resolution", "0.5", "--t-samples", "5",
    )
    assert code == 0
    payload = json.loads(out)
    hits = payload["hits"]
    assert {h["b"] for h in hits} == {-1.0, 0.0}
    for h in hits:
        assert h["mu"] == pytest.approx(-4.0, abs=1e-6)
        assert h["count"] == 1
    code, out, _ = run(
        capsys, "sweep", "--space", "s7-squashed",
        "--lambda-min", "0.5", "--lambda-max", "0.5",
        "--a-min", "0", "--a-max", "0", "--b-min", "0", "--b-max", "0",
        "--resolution", "0.5", "--t-samples", "5",
    )
    assert code == 0
    assert out.startswith("lam=0.5 a=0 b=0 mu=-4 ")
    assert out.rstrip().endswith(" count=1")


def test_config_file_and_flag_override(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "space": "s7-squashed", "format": "json",
        "lambda-min": 0.5, "lambda-max": 0.5,
        "a-min": 0.0, "a-max": 0.0, "b-min": 0.0, "b-max": 0.0,
        "resolution": 0.5, "t-samples": 5,
    }))
    code, out, _ = run(capsys, "sweep", str(cfg))
    assert code == 0
    assert json.loads(out)["hits"]
    # a flag overrides the file: move the window off the solution set
    code, out, _ = run(capsys, "sweep", str(cfg), "--b-min", "0.4",
                       "--b-max", "0.4")
    assert code == 0
    assert json.loads(out)["hits"] == []


def test_bad_config_keys(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    code, _, err = run(capsys, "verify", str(cfg), "--space", "connection")
    assert code == 2
    assert "bogus" in err
