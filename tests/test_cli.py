"""CLI behavior: exit codes, report schema, config handling, determinism."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from g2cal import cli, exterior
from g2cal import structures as st
from g2cal.cli import main, SPACES
from g2cal.exterior import CoframeSpec, OrthoFrame, SingularFrame
from g2cal.scalars import alg, ALG_ZERO

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


def test_verify_times_each_report(capsys, monkeypatch):
    # one clock read before the runner and one after each report
    ticks = iter([10.0, 10.25, 11.0])
    monkeypatch.setattr(cli, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
    code, out, _ = run(capsys, "verify", "--space", "s7-squashed", "--format", "json")
    assert code == 0
    assert [(r["identity"], r["elapsed_ms"]) for r in json.loads(out)] == [
        ("s7-coframe-d-squared", 250),
        ("np2-s7-squashed", 750),
    ]


def test_verify_requires_space(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2
    assert "space" in err


@pytest.mark.parametrize("command", ["verify", "constraints", "sweep"])
def test_space_commands_need_space(capsys, command):
    # refused by name as a usage error, before any space is looked up
    code, out, err = run(capsys, command, "--format", "json")
    assert (code, out, err) == (2, "", "%s needs --space\n" % command)


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
    # byte for byte the committed file: a faster exact engine may not
    # reorder, reformat or drop a report
    assert out1.encode() == GOLDEN.read_bytes()
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
        raise SingularFrame("wedge of the frame forms vanishes")

    monkeypatch.setitem(cli.SPACE_RUNNERS, "connection", broken)
    code, out, _ = run(capsys, "verify", "--space", "connection",
                       "--format", "json")
    assert code == 1
    rep, = json.loads(out)
    assert rep["identity"] == "connection"
    assert rep["status"] == "fails"
    assert rep["residual"] == "wedge of the frame forms vanishes"
    monkeypatch.setattr(cli, "SPACES", ("gram-blocks", "connection"))
    code, out, _ = run(capsys, "report-all", "--format", "json")
    assert code == 1
    assert [r["status"] for r in json.loads(out)] == ["holds", "fails"]


def test_runner_error_after_a_report_keeps_it(capsys, monkeypatch):
    def breaks_midway():
        yield st.verify_connection()
        raise SingularFrame("wedge of the frame forms vanishes")

    monkeypatch.setitem(cli.SPACE_RUNNERS, "connection", breaks_midway)
    code, out, _ = run(capsys, "verify", "--space", "connection", "--format", "json")
    assert code == 1
    assert [(r["identity"], r["status"]) for r in json.loads(out)] == [
        ("connection", "holds"), ("connection", "fails"),
    ]


def test_wrong_squashing_fails_np2_and_keeps_d_squared(capsys, monkeypatch):
    def squashed_by_one():
        cf = st.s7_coframe()
        forms = list(st.s7_frame(cf).forms)
        forms[0:6:2] = st.beta_forms(cf)
        frame = OrthoFrame(st.S7_FRAME_NAMES, forms)
        return st.canonical_g2_form(frame), frame, cf

    monkeypatch.setattr(st, "build_s7_squashed", squashed_by_one)
    code, out, _ = run(capsys, "verify", "--space", "s7-squashed", "--format", "json")
    assert code == 1
    assert [(r["identity"], r["status"], r["residual"]) for r in json.loads(out)] == [
        ("s7-coframe-d-squared", "holds", None),
        ("np2-s7-squashed", "fails", "conflicting ratios"),
    ]


def test_rejected_claim_becomes_fails_report(capsys, monkeypatch):
    wrong = [{"lam": alg(1), "a": alg(Fraction(1, 2)), "b": ALG_ZERO}]
    monkeypatch.setattr(st, "joint_system_claims", lambda: wrong)
    code, out, _ = run(capsys, "verify", "--space", "b7", "--format", "json")
    assert code == 1
    reps = {r["identity"]: r for r in json.loads(out)}
    assert reps["joint-system-triples"]["status"] == "fails"
    assert reps["joint-system-triples"]["residual"].startswith("constraint survives: ")
    assert reps["invariant-family-locus"]["status"] == "holds"


def test_coframe_with_nonzero_d_squared_becomes_fails_report(capsys, monkeypatch):
    s7_coframe = st.s7_coframe

    def broken():
        cf = s7_coframe()
        de1 = cf.structure["e1"] + cf.mono(("e1", "f1"))
        return CoframeSpec(cf.gens, cf.t_name, dict(cf.structure, e1=de1))

    monkeypatch.setattr(st, "s7_coframe", broken)
    code, out, _ = run(capsys, "verify", "--space", "s7-squashed", "--format", "json")
    assert code == 1
    rep, = json.loads(out)
    assert rep["identity"] == "s7-coframe-d-squared"
    assert rep["status"] == "fails"
    assert rep["residual"] == "d^2 != 0"


def test_report_all_checks_d_squared_once_per_coframe(capsys, monkeypatch):
    calls = []
    check = exterior.d_squared_check

    def counting(cf):
        calls.append(cf.gens)
        return check(cf)

    monkeypatch.setattr(exterior, "d_squared_check", counting)
    monkeypatch.setattr(cli, "d_squared_check", counting)
    code, _, _ = run(capsys, "report-all", "--format", "json")
    assert code == 0
    # the s7-coframe-d-squared and b7-coframe-d-squared reports only
    assert calls == [st.S7_GENS, st.B7_GENS]


def test_output_file(capsys, tmp_path):
    path = tmp_path / "out.json"
    code, out, _ = run(capsys, "verify", "--space", "connection",
                       "--format", "json", "--output", str(path))
    assert code == 0
    assert out == ""
    reports = json.loads(path.read_text())
    assert reports[0]["status"] == "holds"


def test_unwritable_output_is_usage_error(capsys, tmp_path):
    path = tmp_path / "missing-dir" / "out.json"
    code, out, err = run(capsys, "verify", "--space", "lemma-1-1",
                         "--format", "json", "--output", str(path))
    assert code == 2
    assert out == ""
    assert "--output" in err and err.count("\n") == 1
    assert not path.exists()


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


def test_sweep_without_hits_prints_no_hits(capsys):
    box = ("--space", "s7-squashed", "--lambda-min", "1.0", "--lambda-max", "1.1",
           "--a-min", "1.0", "--a-max", "1.2", "--b-min", "2.0", "--b-max", "2.2",
           "--resolution", "0.1")
    code, out, _ = run(capsys, "sweep", *box)
    assert (code, out) == (0, "no hits\n")
    code, out, _ = run(capsys, "sweep", *box, "--format", "json")
    assert code == 0
    assert json.loads(out)["hits"] == []


@pytest.mark.parametrize("flags, message", [
    (("--resolution", "0"), "resolution must be positive"),
    (("--resolution", "-0.1"), "resolution must be positive"),
    (("--lambda-min", "2", "--lambda-max", "1"), "lambda_range is empty"),
    (("--t-samples", "0"), "t_samples must hold 1 to 20408 samples"),
    (("--tolerance", "0"), "tolerance must be positive"),
    (("--tolerance", "-0.001"), "tolerance must be positive"),
    (("--tolerance", "nan"), "tolerance must be positive"),
    (("--a-max", "inf"), "a_range bounds must be finite"),
    (("--lambda-min", "nan"), "lambda_range bounds must be finite"),
    (("--b-min=-inf",), "b_range bounds must be finite"),
    (("--a-min=-1e308", "--a-max=1e308"), "a_range spans 1000000 or more resolution steps"),
    (("--a-min=-1e300", "--a-max=1e300"), "a_range spans 1000000 or more resolution steps"),
    (("--resolution", "1e-6"), "lambda_range spans 1000000 or more resolution steps"),
    (("--resolution", "0.002"),
     "resolution 0.002 meshes a_range x b_range with 6005001 points, over 1000000"),
    (("--resolution", "inf"), "lambda_range (0.1, 2.0) spans at most half of resolution inf"),
    (("--resolution", "5"), "lambda_range (0.1, 2.0) spans at most half of resolution 5.0"),
    (("--t-samples", "20409"), "t_samples must hold 1 to 20408 samples, got 20409"),
], ids=["resolution-zero", "resolution-negative", "inverted-box", "no-t-samples",
        "tolerance-zero", "tolerance-negative", "tolerance-nan", "a-max-inf",
        "lambda-min-nan", "b-min-minus-inf", "a-span-overflows", "a-span-huge",
        "resolution-tiny", "slice-too-large", "resolution-inf", "resolution-coarse",
        "too-many-t-samples"])
def test_sweep_rejects_bad_inputs(capsys, monkeypatch, flags, message):
    # refused before any grid is built or slice screened
    from g2cal import numeric

    def never(*args):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(numeric, "_grid", never)
    monkeypatch.setattr(numeric, "_screen", never)
    code, out, err = run(capsys, "sweep", "--space", "b7", *flags)
    assert code == 2
    assert out == ""
    assert message in err and err.count("\n") == 1


# Address space of a child sweep: enough to import numpy and refuse, so a
# regression that builds the t-sample list fails fast with a MemoryError.
_CHILD_ADDRESS_SPACE = 1536 * 2**20


@pytest.mark.parametrize("flags", [
    ("--resolution", "inf"),
    ("--t-samples", "100000000"),
    ("--tolerance", "nan"),
], ids=["resolution-inf", "t-samples-huge", "tolerance-nan"])
def test_sweep_refusals_through_entry_point(flags):
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (_CHILD_ADDRESS_SPACE, _CHILD_ADDRESS_SPACE))

    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "g2cal.cli", "sweep", "--space", "b7", *flags],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        preexec_fn=limit, timeout=120,
    )
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr


def test_sweep_lets_solver_errors_through(monkeypatch):
    # only the library's input refusals are usage errors: a failed solve in
    # the polish is a ValueError too, and must not read as exit 2
    import numpy as np
    from g2cal import numeric

    def fail(*args):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(numeric, "_refine", fail)
    with pytest.raises(np.linalg.LinAlgError):
        main(["sweep", "--space", "b7", "--lambda-min", "0.8", "--lambda-max", "1.0"])


def test_sweep_polishes_negative_lambda(capsys):
    code, out, _ = run(capsys, "sweep", "--space", "b7", "--format", "json",
                       "--lambda-min", "-1.0", "--lambda-max", "-0.8")
    assert code == 0
    hit, = json.loads(out)["hits"]
    want = (-2 / math.sqrt(5), 0.5, 0.0)
    assert max(abs(hit[k] - w) for k, w in zip(("lam", "a", "b"), want)) < 1e-6


def test_sweep_recovers_s7_canonical_point(capsys):
    code, out, _ = run(capsys, "sweep", "--space", "s7-canonical", "--format", "json")
    assert code == 0
    hit, = json.loads(out)["hits"]
    want = (2 / math.sqrt(5), 2.0, 1.0, st.MU_CANON.to_float())
    assert max(abs(hit[k] - w) for k, w in zip(("lam", "a", "b", "mu"), want)) < 1e-6


def _check_sweep_golden(capsys, name, *args):
    golden = json.loads((Path(__file__).parent / "golden" / name).read_text())
    code, out, _ = run(capsys, "sweep", *args, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    got, want = payload.pop("hits"), golden.pop("hits")
    assert payload == golden
    # the residuals are rounding noise and are not pinned
    assert [{k: h[k] for k in ("lam", "a", "b", "count")} for h in got] == [
        {k: h[k] for k in ("lam", "a", "b", "count")} for h in want
    ]
    assert max(abs(g["mu"] - w["mu"]) for g, w in zip(got, want)) <= 1e-9


def test_sweep_s7_default_box_matches_golden(capsys):
    _check_sweep_golden(capsys, "sweep-s7-squashed.json", "--space", "s7-squashed")


@pytest.mark.parametrize("space", ["b7", "s7-canonical"])
def test_sweep_default_joint_box_matches_golden(capsys, space):
    # the default joint boxes evaluate whole slices of candidates at once,
    # the largest batches a sweep takes
    _check_sweep_golden(capsys, "sweep-%s.json" % space, "--space", space)


def test_sweep_b7_bench_box_matches_golden(capsys):
    # the benchmark's b7 box has no grid hit: its one hit is the polish's,
    # the joint zero (2/sqrt5, 1/2, 0) met by all five polished minima
    _check_sweep_golden(capsys, "sweep-b7-bench.json", "--space", "b7",
                        "--lambda-min", "0.8", "--lambda-max", "1.0")


def test_import_does_not_load_numpy():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, g2cal.cli; print('numpy' in sys.modules, 'dataclasses' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "False False\n"
    # nor does the whole exact report: a fresh report-all never pays for numpy
    code = ("import io, sys, contextlib, g2cal.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(['report-all', '--format', 'json'])\n"
            "print(code, 'numpy' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "0 False\n"


def test_report_all_bytes_independent_of_hash_seed():
    src = str(Path(cli.__file__).resolve().parents[1])
    argv = [sys.executable, "-m", "g2cal.cli", "report-all", "--format", "json"]
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        done = subprocess.run(argv, env=env, capture_output=True, check=True)
        assert done.stdout == GOLDEN.read_bytes(), seed


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
    for command, body, key in (
        ("verify", {"bogus": 1}, "bogus"),
        ("sweep", {"resolution": "x"}, "resolution"),
        ("sweep", {"t-samples": 2.5}, "t-samples"),
        ("verify", {"format": "yaml"}, "format"),
        ("verify", [1], "bad config file"),
        ("verify", 5, "bad config file"),
    ):
        cfg.write_text(json.dumps(body))
        code, out, err = run(capsys, command, str(cfg), "--space", "s7-squashed")
        assert code == 2, body
        assert out == ""
        assert key in err and err.count("\n") == 1


def test_constraints_match_golden(capsys):
    # _check_claim reads mu off the first constraint with a mu term and
    # names the first constraint that survives, so the order of the
    # constraints is part of what is pinned here
    golden = json.loads((Path(__file__).parent / "golden" / "constraints.json").read_text())
    assert sorted(golden) == ["b7", "s7-canonical", "s7-squashed"]
    for space, want in golden.items():
        code, out, _ = run(capsys, "constraints", "--space", space, "--format", "json")
        assert code == 0
        assert json.loads(out) == want
