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

from .exterior import d_squared_check, SingularFrame
from . import structures as st

SPACES = (
    "s7-squashed",
    "s7-canonical",
    "b7",
    "lemma-1-1",
    "connection",
    "gram-blocks",
    "lie-checks",
)

# -- space runners ---------------------------------------------------------------

def _d2_report(identity, cf):
    return st._report(identity, [] if d_squared_check(cf) else ["d^2 != 0"])


# Runners yield their reports one by one, so `verify` can time each.
# The checks after a d^2 report use d, so they run only when d^2 = 0.

def _run_s7_squashed():
    phi, frame, cf = st.build_s7_squashed()
    d2 = _d2_report("s7-coframe-d-squared", cf)
    yield d2
    if d2.ok():
        yield st.verify_np2(phi, frame, cf, "np2-s7-squashed")


def _run_s7_canonical():
    phi, frame, cf = st.build_s7_squashed()
    agree = phi == st.canonical_g2_form(frame)
    yield st._report("s7-frame-form-agreement", [] if agree else ["forms differ"])
    yield st.su3_invariants_report(frame.forms[:6], "su3-invariants-s7")
    fam = st.AnsatzFamily(st.AnsatzFamily.S7_STYLE)
    yield st.verify_solution_set(
        fam, "both", [st.s7_canonical_claim()], "s7-canonical-systems"
    )


def _run_b7():
    phi, frame, cf = st.build_b7()
    d2 = _d2_report("b7-coframe-d-squared", cf)
    yield d2
    if not d2.ok():
        return
    yield st.verify_np2(phi, frame, cf, "np2-b7")
    fam = st.AnsatzFamily(st.AnsatzFamily.B7_STYLE)
    yield st.verify_solution_set(fam, "both", st.joint_system_claims(), "joint-system-triples")
    yield st.verify_solution_set(fam, "nhf", st.locus_claims(), "invariant-family-locus")


SPACE_RUNNERS = {
    "s7-squashed": _run_s7_squashed,
    "s7-canonical": _run_s7_canonical,
    "b7": _run_b7,
    "lemma-1-1": lambda: [st.verify_lemma_1_1()],
    "connection": lambda: [st.verify_connection()],
    "gram-blocks": lambda: [st.gram_blocks_report()],
    "lie-checks": st.lie_check_reports,
}

# A frame that does not span its coframe; it becomes a fails report.
_RUNNER_ERRORS = (SingularFrame,)


def _run_space(space):
    """The space's reports as they are made; a runner error ends them
    with one fails report named after the space."""
    try:
        yield from SPACE_RUNNERS[space]()
    except _RUNNER_ERRORS as exc:
        yield st.VerificationReport(space, "fails", residual=str(exc))


_FAMILY_OF_SPACE = {
    "s7-squashed": ("s7", "nhf"),
    "s7-canonical": ("s7", "both"),
    "b7": ("b7", "both"),
}


def _family_of(space):
    """(family, system) of a space; a usage error when it has none."""
    if space not in _FAMILY_OF_SPACE:
        raise SystemExit("space %r has no parametric family" % space)
    return _FAMILY_OF_SPACE[space]


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
        approx = -m["approx"] if m["sign"] == "-" else m["approx"]
        line += "  mu = %s%s (%.12g)" % (m["sign"], m["exact"], approx)
    if rep.residual:
        line += "  [%s]" % rep.residual
    return line


def _emit(payload, fmt, output, text_lines=None):
    if fmt == "json":
        body = json.dumps(payload, indent=2) + "\n"
    else:
        body = "\n".join(text_lines) + "\n"
    if output:
        try:
            with open(output, "w") as fh:
                fh.write(body)
        except OSError as exc:
            raise SystemExit("cannot write --output: %s" % exc)
    else:
        sys.stdout.write(body)


# -- commands ---------------------------------------------------------------------

def _emit_reports(cfg, spaces, timed):
    """Emit the reports of the spaces; timed, each carries the time since
    the previous one, else elapsed_ms 0, so the bytes are reproducible."""
    reports, payload = [], []
    start = time.monotonic()
    for space in spaces:
        for rep in _run_space(space):
            now = time.monotonic()
            reports.append(rep)
            payload.append(_report_json(rep, int((now - start) * 1000) if timed else 0))
            start = now
    _emit(payload, cfg["format"], cfg.get("output"),
          [_report_text(r) for r in reports])
    return 0 if all(r.ok() for r in reports) else 1


def _cmd_verify(cfg):
    return _emit_reports(cfg, [cfg["space"]], timed=True)


def _cmd_report_all(cfg):
    return _emit_reports(cfg, SPACES, timed=False)


def _cmd_constraints(cfg):
    space = cfg.get("space")
    which, system = _family_of(space)
    cons = st.system_constraints(st.AnsatzFamily(which), system)
    rendered = [p.render() for p in cons]
    payload = {"space": space, "family": which, "system": system,
               "constraints": rendered}
    _emit(payload, cfg["format"], cfg.get("output"), rendered)
    return 0


def _cmd_sweep(cfg):
    space = cfg.get("space")
    which, system = _family_of(space)
    from . import numeric  # numpy is needed by sweep only

    # the library checks every argument; its refusals are usage errors
    try:
        hits = numeric.numeric_sweep(
            which,
            system,
            lambda_range=(cfg["lambda-min"], cfg["lambda-max"]),
            a_range=(cfg["a-min"], cfg["a-max"]),
            b_range=(cfg["b-min"], cfg["b-max"]),
            resolution=cfg["resolution"],
            tolerance=cfg["tolerance"],
            t_samples=cfg["t-samples"],
        )
    except numeric.SweepInputError as exc:
        sys.stderr.write("%s\n" % exc)
        return 2
    hits = [
        {k: v if k == "count" else _round12(v) for k, v in h.items()}
        for h in sorted(hits, key=lambda h: (h["lam"], h["a"], h["b"]))
    ]
    payload = {"space": space, "family": which, "system": system, "hits": hits}
    lines = None
    if cfg["format"] != "json":  # formatted only when they are printed
        lines = ["lam=%(lam)g a=%(a)g b=%(b)g mu=%(mu)g residual=%(residual)g"
                 " count=%(count)d" % h for h in hits] or ["no hits"]
    _emit(payload, cfg["format"], cfg.get("output"), lines)
    return 0


COMMANDS = {
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "constraints": _cmd_constraints,
    "report-all": _cmd_report_all,
}


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


def resolve_config(args, parser):
    """Defaults, then the config file's keys, then the flags.

    The file's values are parsed as the flags they name, so they meet
    the same types and choices; JSON null leaves a key unset.
    """
    layers = [args]
    if args.config:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, ValueError) as exc:
            raise SystemExit("bad config file: %s" % exc)
        if not isinstance(file_cfg, dict):
            raise SystemExit("bad config file: expected a JSON object, got %s"
                             % type(file_cfg).__name__)
        unknown = set(file_cfg) - set(_DEFAULTS)
        if unknown:
            raise SystemExit("unknown config keys: %s" % ", ".join(sorted(unknown)))
        argv = [args.command] + [
            "--%s=%s" % (key, val) for key, val in file_cfg.items() if val is not None
        ]
        parser.exit_on_error = False
        try:
            layers.insert(0, parser.parse_args(argv))
        except argparse.ArgumentError as exc:
            raise SystemExit("bad config value: %s" % exc)
    cfg = dict(_DEFAULTS)
    for layer in layers:
        for key in _DEFAULTS:
            val = getattr(layer, key.replace("-", "_"))
            if val is not None:
                cfg[key] = val
    return cfg


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    # a bad config, a missing --space, a space without a family or an
    # unwritable --output is a usage error
    try:
        cfg = resolve_config(args, parser)
        if cfg["space"] is None and args.command != "report-all":
            raise SystemExit("%s needs --space" % args.command)
        return COMMANDS[args.command](cfg)
    except SystemExit as exc:
        sys.stderr.write("%s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
