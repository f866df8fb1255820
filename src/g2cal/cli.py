"""Command-line verification front end.

Commands: verify, constraints, sweep, report-all.  Reports render as
text or JSON; exit code 0 when everything holds, 1 when an identity
fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .scalars import InexactDivision
from .exterior import d_squared_check, SingularFrame
from . import structures as st
from . import numeric

SPACES = (
    "s7-squashed",
    "s7-canonical",
    "b7",
    "lemma-1-1",
    "connection",
    "gram-blocks",
    "lie-checks",
)

COMMANDS = ("verify", "sweep", "constraints", "report-all")


# -- space runners ---------------------------------------------------------------

def _d2_report(identity, cf):
    return st._report(identity, [] if d_squared_check(cf) else ["d^2 != 0"])


def _run_s7_squashed():
    phi, frame, cf = st.build_s7_squashed()
    return [
        _d2_report("s7-coframe-d-squared", cf),
        st.verify_np2(phi, frame, cf, "np2-s7-squashed"),
    ]


def _run_s7_canonical():
    phi, frame, cf = st.build_s7_squashed()
    agree = phi == st.canonical_g2_form(frame)
    su = st.Su3Structure(frame.forms[:6])
    inv = su.invariants_check()
    fam = st.AnsatzFamily(st.AnsatzFamily.S7_STYLE)
    rep, _ = st.verify_solution_set(
        fam, "both", [st.s7_canonical_claim()], "s7-canonical-systems"
    )
    return [
        st._report("s7-frame-form-agreement", [] if agree else ["forms differ"]),
        st._report(
            "su3-invariants-s7",
            [name for name, ok in inv.items() if name != "all" and not ok],
        ),
        rep,
    ]


def _run_b7():
    phi, frame, cf = st.build_b7()
    fam = st.AnsatzFamily(st.AnsatzFamily.B7_STYLE)
    rep_i, _ = st.verify_solution_set(fam, "both", st.joint_system_claims(), "joint-system-triples")
    rep_ii, _ = st.verify_solution_set(fam, "nhf", st.locus_claims(), "invariant-family-locus")
    return [
        _d2_report("b7-coframe-d-squared", cf),
        st.verify_np2(phi, frame, cf, "np2-b7"),
        rep_i,
        rep_ii,
    ]


SPACE_RUNNERS = {
    "s7-squashed": _run_s7_squashed,
    "s7-canonical": _run_s7_canonical,
    "b7": _run_b7,
    "lemma-1-1": lambda: [st.verify_lemma_1_1()],
    "connection": lambda: [st.verify_connection()],
    "gram-blocks": lambda: [st.gram_blocks_report()],
    "lie-checks": st.lie_check_reports,
}

# Exact-arithmetic failures a runner may raise; they become a fails report.
_RUNNER_ERRORS = (st.NotProportional, InexactDivision, SingularFrame)


def _run_space(space):
    try:
        return SPACE_RUNNERS[space]()
    except _RUNNER_ERRORS as exc:
        return [st.VerificationReport(space, "fails", residual=str(exc))]


_FAMILY_OF_SPACE = {
    "s7-squashed": ("s7", "nhf"),
    "s7-canonical": ("s7", "both"),
    "b7": ("b7", "both"),
}


# -- rendering --------------------------------------------------------------------

def _round12(x):
    return float("%.12g" % float(x))


def _mu_json(mu):
    if mu is None:
        return None
    sign = "-" if mu.to_float() < 0 else "+"
    mag = -mu if mu.to_float() < 0 else mu
    q0, q1, q2, q3 = mag.q
    if q1 == 0 and q2 == 0 and q3 == 0:
        exact = str(q0)
    elif q0 == 0 and q1 == 0 and q3 == 0 and (5 * q2).denominator == 1:
        exact = "%d/sqrt5" % (5 * q2)
    elif q0 == 0 and q2 == 0 and q3 == 0 and (3 * q1).denominator == 1:
        exact = "%d/sqrt3" % (3 * q1)
    else:
        exact = mag.render()
    return {"exact": exact, "approx": _round12(mag.to_float()), "sign": sign}


def _report_json(rep, elapsed_ms):
    return {
        "identity": rep.identity,
        "status": rep.status,
        "mu": _mu_json(rep.mu),
        "residual": rep.residual,
        "elapsed_ms": elapsed_ms,
    }


def _report_text(rep):
    line = "%-28s %s" % (rep.identity, rep.status)
    if rep.mu is not None:
        m = _mu_json(rep.mu)
        line += "  mu = %s%s (%.12g)" % (m["sign"], m["exact"], m["approx"])
    if rep.residual:
        line += "  [%s]" % rep.residual
    return line


def _emit(payload, fmt, output, text_lines=None):
    if fmt == "json":
        body = json.dumps(payload, indent=2) + "\n"
    else:
        body = "\n".join(text_lines) + "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)


# -- commands ---------------------------------------------------------------------

def _cmd_verify(cfg):
    space = cfg.get("space")
    if space not in SPACE_RUNNERS:
        sys.stderr.write("unknown space: %r\n" % space)
        return 2
    t0 = time.monotonic()
    reports = _run_space(space)
    elapsed = int((time.monotonic() - t0) * 1000)
    payload = [_report_json(r, elapsed_ms=elapsed) for r in reports]
    _emit(payload, cfg["format"], cfg.get("output"),
          [_report_text(r) for r in reports])
    return 0 if all(r.ok() for r in reports) else 1


def _cmd_report_all(cfg):
    payload = []
    lines = []
    ok = True
    for space in SPACES:
        for rep in _run_space(space):
            payload.append(_report_json(rep, elapsed_ms=0))
            lines.append(_report_text(rep))
            ok = ok and rep.ok()
    _emit(payload, cfg["format"], cfg.get("output"), lines)
    return 0 if ok else 1


def _cmd_constraints(cfg):
    space = cfg.get("space")
    if space not in _FAMILY_OF_SPACE:
        sys.stderr.write("space %r has no parametric family\n" % space)
        return 2
    which, system = _FAMILY_OF_SPACE[space]
    fam = st.AnsatzFamily(which)
    cons = []
    if system in ("nhf", "both"):
        cons += st.extract_constraints(st.nhf_residual(fam))
    if system in ("flow", "both"):
        cons += st.extract_constraints(st.flow_residual(fam))
    rendered = [p.render() for p in cons]
    payload = {"space": space, "family": which, "system": system,
               "constraints": rendered}
    _emit(payload, cfg["format"], cfg.get("output"), rendered)
    return 0


def _cmd_sweep(cfg):
    space = cfg.get("space")
    if space not in _FAMILY_OF_SPACE:
        sys.stderr.write("space %r has no parametric family\n" % space)
        return 2
    which, system = _FAMILY_OF_SPACE[space]
    hits = numeric.numeric_sweep(
        which,
        system,
        lambda_range=(cfg["lambda-min"], cfg["lambda-max"]),
        a_range=(cfg["a-min"], cfg["a-max"]),
        b_range=(cfg["b-min"], cfg["b-max"]),
        resolution=cfg["resolution"],
        tolerance=cfg["tolerance"],
        t_samples=numeric.default_t_samples(cfg["t-samples"]),
    )
    hits = [
        {k: v if k == "count" else _round12(v) for k, v in h.items()}
        for h in sorted(hits, key=lambda h: (h["lam"], h["a"], h["b"]))
    ]
    payload = {"space": space, "family": which, "system": system, "hits": hits}
    lines = ["lam=%(lam)g a=%(a)g b=%(b)g mu=%(mu)g residual=%(residual)g"
             " count=%(count)d" % h for h in hits]
    _emit(payload, cfg["format"], cfg.get("output"), lines or ["no hits"])
    return 0


_DEFAULTS = {
    "format": "text",
    "output": None,
    "space": None,
    "lambda-min": 0.1,
    "lambda-max": 2.0,
    "a-min": -3.0,
    "a-max": 3.0,
    "b-min": -2.0,
    "b-max": 2.0,
    "resolution": 0.05,
    "tolerance": 1e-6,
    "t-samples": 9,
}


def build_parser():
    p = argparse.ArgumentParser(prog="g2cal", description=__doc__)
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("config", nargs="?", default=None,
                   help="optional JSON config file; flags override its keys")
    p.add_argument("--space", choices=SPACES)
    p.add_argument("--format", choices=("text", "json"))
    p.add_argument("--output")
    p.add_argument("--lambda-min", type=float)
    p.add_argument("--lambda-max", type=float)
    p.add_argument("--a-min", type=float)
    p.add_argument("--a-max", type=float)
    p.add_argument("--b-min", type=float)
    p.add_argument("--b-max", type=float)
    p.add_argument("--resolution", type=float)
    p.add_argument("--tolerance", type=float)
    p.add_argument("--t-samples", type=int)
    return p


def resolve_config(args):
    cfg = dict(_DEFAULTS)
    if args.config:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, ValueError) as exc:
            raise SystemExit("bad config file: %s" % exc)
        unknown = set(file_cfg) - set(_DEFAULTS)
        if unknown:
            raise SystemExit("unknown config keys: %s" % ", ".join(sorted(unknown)))
        cfg.update(file_cfg)
    for key in _DEFAULTS:
        val = getattr(args, key.replace("-", "_"))
        if val is not None:
            cfg[key] = val
    return cfg


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
    except SystemExit as exc:
        sys.stderr.write("%s\n" % exc)
        return 2
    if cfg["space"] is not None and cfg["space"] not in SPACES:
        sys.stderr.write("unknown space: %r\n" % cfg["space"])
        return 2
    if args.command == "verify":
        return _cmd_verify(cfg)
    if args.command == "report-all":
        return _cmd_report_all(cfg)
    if args.command == "constraints":
        return _cmd_constraints(cfg)
    if args.command == "sweep":
        return _cmd_sweep(cfg)
    return 2


if __name__ == "__main__":
    sys.exit(main())
