"""The three benchmark workloads and their per-op correctness checks.

Each workload is a closed loop with one client: the next op starts when
the previous one has finished and been checked.  `op()` runs one op
untraced; `traced_op(tracer, out_dir)` runs one with the layer tracer
installed and also returns what the tracer recorded.
The caller puts `src/` on sys.path before importing this module.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

# Layer functions are looked up through their modules at call time, so
# that the tracer's rebinding reaches the benchmark's own calls too.
from g2cal import cli, numeric, scalars, structures

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "report-all.json"
# a hung child is killed well inside the 180 s a whole run may take
CHILD_TIMEOUT_S = 100


@dataclass
class Op:
    seconds: float
    ok: bool
    detail: str = ""
    rss_kb: int = 0
    bytes_equal: bool = False


def guarded(op):
    """An op that raises counts as one failed op; the run goes on."""

    @functools.wraps(op)
    def wrapper(self):
        t0 = perf_counter()
        try:
            return op(self)
        except Exception as exc:
            return Op(perf_counter() - t0, False, "%s: %s" % (type(exc).__name__, exc))

    return wrapper


def child_env(root):
    env = dict(os.environ)
    src = str(Path(root) / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


@dataclass
class Child:
    rc: int
    out: bytes
    err: bytes
    wall: float
    rss_kb: int


def run_child(cmd, root, timeout=CHILD_TIMEOUT_S):
    """Run one child to completion; wall time and its own peak RSS.

    os.wait4 gives the resource usage of exactly this child, which
    subprocess.run would discard.  The pipes are drained by threads so
    a chatty child cannot block on a full pipe.
    """
    t0 = perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=root, env=child_env(root), stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    data = {}

    def drain(key, stream):
        data[key] = stream.read()

    readers = [
        threading.Thread(target=drain, args=("out", proc.stdout)),
        threading.Thread(target=drain, args=("err", proc.stderr)),
    ]
    for r in readers:
        r.start()
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = perf_counter() - t0
    for r in readers:
        r.join()
    proc.stdout.close()
    proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, data["out"], data["err"], wall, usage.ru_maxrss)


def self_rss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# -- certify -----------------------------------------------------------------

HOLDS = ("holds", "holds-with-mu")


def check_report_all(rc, out, golden):
    """(ok, bytes_equal, detail) for one `report-all --format json` run.

    The op fails on a nonzero exit, on a report that does not hold, or
    when a golden report is missing or changed.  Extra reports (a new
    identity) break byte equality but do not fail the op.
    """
    equal = out == golden
    if rc != 0:
        return False, equal, "exit code %d" % rc
    try:
        reports = json.loads(out)
    except ValueError as exc:
        return False, equal, "unparsable output: %s" % exc
    bad = [r.get("identity") for r in reports if r.get("status") not in HOLDS]
    if bad:
        return False, equal, "reports not holding: %s" % ", ".join(map(str, bad))
    got = {r.get("identity"): r for r in reports}
    for want in json.loads(golden):
        if got.get(want["identity"]) != want:
            return False, equal, "golden report missing or changed: %s" % want["identity"]
    return True, equal, "" if equal else "reports hold but bytes differ from golden"


class Certify:
    """Fresh `python -m g2cal.cli report-all --format json` per op."""

    name = "certify"
    warmup = False

    def __init__(self, root, seed, golden=GOLDEN):
        self.root = Path(root)
        self.golden = Path(golden).read_bytes()

    @guarded
    def op(self):
        c = run_child([sys.executable, "-m", "g2cal.cli", "report-all", "--format", "json"], self.root)
        ok, equal, detail = check_report_all(c.rc, c.out, self.golden)
        if c.rc != 0:
            detail += ": " + c.err.decode(errors="replace")[-500:]
        return Op(c.wall, ok, detail, c.rss_kb, equal)

    def traced_op(self, tracer, out_dir):
        path = Path(out_dir) / "certify-child-trace.json"
        c = run_child([sys.executable, str(HERE / "child.py"), str(path)], self.root)
        if c.rc != 0:
            detail = "traced child failed: " + c.err.decode(errors="replace")[-500:]
            return Op(c.wall, False, detail, c.rss_kb), None
        record = json.loads(path.read_text())
        path.unlink()
        ok, equal, detail = check_report_all(record["rc"], record["stdout"].encode(), self.golden)
        return Op(c.wall, ok, detail, c.rss_kb, equal), record


# -- in-process workloads ----------------------------------------------------

class InProcess:
    warmup = True

    def traced_op(self, tracer, out_dir):
        tracer.install()
        try:
            op = self.op()
        finally:
            tracer.uninstall()
        return op, tracer.take()


SYSTEMS = (("s7", "nhf"), ("s7", "flow"), ("b7", "nhf"), ("b7", "flow"))
CROSS_TOL = 1e-9
T_PER_POINT = 3
DEN = 64


def build_residual(which, system):
    """The exact residual, built the way the Tier-1 cross-check builds it."""
    fam = structures.AnsatzFamily(which)
    if system == "nhf":
        return structures.nhf_residual(fam)
    return structures.flow_residual(fam)


def exact_values(residual, point, ts):
    """{monomial: [value at each t]} from exact binding of (lam, a, b, mu)."""
    bindings = {k: scalars.alg(point[k]) for k in ("lam", "a", "b", "mu")}
    out = {}
    for mono, coeff in residual.terms.items():
        trig = coeff.bind(bindings).const_value()
        out[mono] = [trig.to_float(t) for t in ts]
    return out


def float_values(which, system, point, ts):
    """{monomial: [value at each t]} from the independent float evaluator."""
    lam, a, b, mu = (float(point[k]) for k in ("lam", "a", "b", "mu"))
    out = {}
    for j, t in enumerate(ts):
        r0, r1 = numeric.residual_parts(which, system, lam, a, b, t)
        for mono in set(r0) | set(r1):
            out.setdefault(mono, [0.0] * len(ts))[j] = float(r0.get(mono, 0.0) - mu * r1.get(mono, 0.0))
    return out


def max_diff(exact, approx, n):
    zero = [0.0] * n
    return max(
        (abs(x - y) for m in set(exact) | set(approx)
         for x, y in zip(exact.get(m, zero), approx.get(m, zero))),
        default=0.0,
    )


class CrossCheck(InProcess):
    """One seeded exact point per op, checked in all four residuals."""

    name = "crosscheck"

    def __init__(self, root, seed):
        self.rng = random.Random(seed)

    def _rational(self, lo, hi):
        # nonzero, so no coefficient vanishes by accident and the
        # per-op call counts do not depend on the seed
        n = 0
        while n == 0:
            n = self.rng.randint(lo * DEN, hi * DEN)
        return Fraction(n, DEN)

    def next_point(self):
        point = {
            "lam": Fraction(self.rng.randint(13, 2 * DEN), DEN),
            "a": self._rational(-2, 2),
            "b": self._rational(-2, 2),
            "mu": self._rational(-3, 3),
        }
        ts = [self.rng.uniform(0.05, math.pi / 3 - 0.05) for _ in range(T_PER_POINT)]
        return point, ts

    @guarded
    def op(self):
        point, ts = self.next_point()
        t0 = perf_counter()
        worst = 0.0
        for which, system in SYSTEMS:
            res = build_residual(which, system)
            exact = exact_values(res, point, ts)
            approx = float_values(which, system, point, ts)
            worst = max(worst, max_diff(exact, approx, len(ts)))
        dt = perf_counter() - t0
        ok = worst <= CROSS_TOL
        detail = "" if ok else "worst |exact - float| = %.3g at %s" % (worst, point)
        return Op(dt, ok, detail)


# Claimed solution sets, written out independently of g2cal.
NEAR = 1e-4
LAM_JOINT = 2 / math.sqrt(5)


def _round_mu(lam):
    return -2 / lam


def _branch_mu(lam):
    return -(lam * lam + 4) / (2 * lam)


# Prop 5.1 branches of the round (s7) family: (a, b, mu(lam)).
ROUND_BRANCHES = ((0.0, -1.0, _round_mu), (0.0, 0.0, _round_mu), (2.0, 1.0, _branch_mu), (-2.0, 1.0, _branch_mu))


def on_round_branch(h):
    return any(
        abs(h["a"] - a) < NEAR and abs(h["b"] - b) < NEAR and abs(h["mu"] - mu(h["lam"])) < NEAR
        for a, b, mu in ROUND_BRANCHES
    )


def on_joint_triple(h):
    """Near (+-2/sqrt5, 1/2, 0) with mu = -3 lam."""
    return any(
        abs(h["lam"] - s * LAM_JOINT) < NEAR
        and abs(h["a"] - 0.5) < NEAR
        and abs(h["b"]) < NEAR
        and abs(h["mu"] + 3 * s * LAM_JOINT) < NEAR
        for s in (1, -1)
    )


BOXES = (
    ("s7-squashed", (), on_round_branch),
    ("b7", ("--lambda-min", "0.8", "--lambda-max", "1.0"), on_joint_triple),
)


def check_sweep(space, rc, out):
    """(ok, detail): every hit lies on a claimed set; b7 finds its zero.

    The hit count is not checked, so merging duplicate hits is no failure.
    """
    if rc != 0:
        return False, "exit code %d" % rc
    try:
        hits = json.loads(out)["hits"]
    except (ValueError, KeyError) as exc:
        return False, "unparsable output: %s" % exc
    on_claimed = dict((s, f) for s, _, f in BOXES)[space]
    off = [h for h in hits if not on_claimed(h)]
    if off:
        return False, "%d hits off the claimed sets, e.g. %s" % (len(off), off[0])
    if space == "b7" and not any(on_joint_triple(h) for h in hits):
        return False, "b7 sweep missed the joint zero"
    return True, ""


class Sweep(InProcess):
    """Both fixed boxes per op, one in-process `cli.main(["sweep", ...])` each.

    One op covers both boxes because the two calls differ in cost by
    about 2x: a median over alternating single calls would fall between
    the two modes and be set by their extremes.
    """

    name = "sweep"

    def __init__(self, root, seed):
        pass

    @guarded
    def op(self):
        seconds, fails = 0.0, []
        for space, extra, _ in BOXES:
            buf = io.StringIO()
            t0 = perf_counter()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(["sweep", "--space", space, "--format", "json", *extra])
            seconds += perf_counter() - t0
            ok, detail = check_sweep(space, rc, buf.getvalue())
            if not ok:
                fails.append("%s: %s" % (space, detail))
        return Op(seconds, not fails, "; ".join(fails))


WORKLOADS = {w.name: w for w in (Certify, CrossCheck, Sweep)}
