"""g2cal benchmark: three closed-loop workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload certify|crosscheck|sweep \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-spec      # regenerate BENCHMARK.json

With --trace 0 the run measures the end-to-end metrics with tracing off.
With --trace 1 it alternates untraced and traced ops and reports the
per-layer metrics from the traced ones.  Every op's output is checked.
The last stdout line is one JSON object {correct, attempted, failed,
metrics}; the lines before it print each metric by name with its unit.
A record of the run (metadata, all metrics, spans) goes to .perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 11

WHY = {
    "certify": "fresh report-all process per op, as users check the paper; pays import, coframes and the frame inversion each time",
    "crosscheck": "seeded exact points bound into the four parametric residuals vs the float evaluator; scalar tower and builders, no inversion",
    "sweep": "in-process numeric sweep over two fixed boxes (s7 grid, b7 refine); numpy only, so exact-engine changes must not move it",
}

# name, unit, better, bound (share of the parent's median)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("op_s.p50", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("ok_ratio", "ratio", "higher", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

SPACES = ("s7-squashed", "s7-canonical", "b7", "lemma-1-1", "connection", "gram-blocks", "lie-checks")


def _calls(span):
    return lambda u: u.agg.get(span, (0, 0.0, 0.0))[0]


def _self_s(span):
    return lambda u: u.agg.get(span, (0, 0.0, 0.0))[2]


def _total_s(span):
    return lambda u: u.agg.get(span, (0, 0.0, 0.0))[1]


def _count(name):
    return lambda u: u.counts.get(name, 0)


def _value(name):
    return lambda u: u.values.get(name, 0)


def _useful_refines(u):
    calls = _calls("numeric.refine")(u)
    return u.values.get("numeric.refine.distinct", 0) / calls if calls else 0.0


# name, unit, better, the end-to-end metric and workload it should move,
# and how to read it from one traced op
PER_LAYER = (
    ("scalars.alg_mul.calls", "count", "lower", "op_s.p50 on certify and crosscheck", _count("scalars.alg_mul")),
    ("scalars.alg_inverse.calls", "count", "lower", "op_s.p50 on certify and crosscheck", _count("scalars.alg_inverse")),
    ("scalars.trig_mul.calls", "count", "lower", "op_s.p50 on certify and crosscheck", _count("scalars.trig_mul")),
    ("scalars.param_mul.calls", "count", "lower", "op_s.p50 on certify and crosscheck", _count("scalars.param_mul")),
    ("scalars.param_bind.calls", "count", "lower", "op_s.p50 on crosscheck", _calls("scalars.param_bind")),
    ("scalars.param_bind.self_s", "s", "lower", "op_s.p50 on crosscheck", _self_s("scalars.param_bind")),
    ("scalars.trig_div_exact.calls", "count", "lower", "op_s.p50 on certify", _calls("scalars.trig_div_exact")),
    ("scalars.trig_div_exact.self_s", "s", "lower", "op_s.p50 on certify", _self_s("scalars.trig_div_exact")),
    ("scalars.poly_div_exact.calls", "count", "lower", "op_s.p50 on certify", _calls("scalars.poly_div_exact")),
    ("scalars.poly_div_exact.self_s", "s", "lower", "op_s.p50 on certify", _self_s("scalars.poly_div_exact")),
    ("exterior.wedge.calls", "count", "lower", "op_s.p50 on certify and crosscheck", _count("exterior.wedge")),
    ("exterior.ext_d.calls", "count", "lower", "op_s.p50 on certify and crosscheck", _calls("exterior.ext_d")),
    ("exterior.ext_d.self_s", "s", "lower", "op_s.p50 on certify and crosscheck", _self_s("exterior.ext_d")),
    ("exterior.coframe_spec.calls", "count", "lower", "op_s.p50 on crosscheck, less on certify", _calls("exterior.coframe_spec")),
    ("exterior.coframe_spec.self_s", "s", "lower", "op_s.p50 on crosscheck, less on certify", _self_s("exterior.coframe_spec")),
    ("exterior.hodge_star.self_s", "s", "lower", "op_s.p50 on certify", _self_s("exterior.hodge_star")),
    ("exterior.to_frame_basis.calls", "count", "lower", "op_s.p50 on certify", _calls("exterior.to_frame_basis")),
    ("exterior.to_frame_basis.self_s", "s", "lower", "op_s.p50 on certify", _self_s("exterior.to_frame_basis")),
    ("quaternionic.quat_wedge.calls", "count", "lower", "op_s.p50 on certify", _calls("quaternionic.quat_wedge")),
    ("quaternionic.quat_wedge.self_s", "s", "lower", "op_s.p50 on certify", _self_s("quaternionic.quat_wedge")),
    ("liealg.mat_mul.calls", "count", "lower", "op_s.p50 on certify", _calls("liealg.mat_mul")),
    ("liealg.mat_mul.self_s", "s", "lower", "op_s.p50 on certify", _self_s("liealg.mat_mul")),
    ("liealg.bracket.calls", "count", "lower", "op_s.p50 on certify", _calls("liealg.bracket")),
    ("liealg.trace_pairing.calls", "count", "lower", "op_s.p50 on certify", _calls("liealg.trace_pairing")),
    ("liealg.pullback_frame.self_s", "s", "lower", "op_s.p50 on certify", _self_s("liealg.pullback_frame")),
    ("structures.verify_np2.self_s", "s", "lower", "op_s.p50 on certify", _self_s("structures.verify_np2")),
    ("structures.verify_solution_set.self_s", "s", "lower", "op_s.p50 on certify (claim checking)", _self_s("structures.verify_solution_set")),
    ("structures.constraints.count", "count", "lower", "op_s.p50 on certify", _value("structures.constraints.count")),
    ("structures.nhf_residual.calls", "count", "lower", "op_s.p50 on crosscheck, then certify", _calls("structures.nhf_residual")),
    ("structures.nhf_residual.self_s", "s", "lower", "op_s.p50 on crosscheck, then certify", _self_s("structures.nhf_residual")),
    ("structures.flow_residual.calls", "count", "lower", "op_s.p50 on crosscheck, then certify", _calls("structures.flow_residual")),
    ("structures.flow_residual.self_s", "s", "lower", "op_s.p50 on crosscheck, then certify", _self_s("structures.flow_residual")),
    ("structures.extract_constraints.self_s", "s", "lower", "op_s.p50 on crosscheck, then certify", _self_s("structures.extract_constraints")),
    ("numeric.best_mu_residual.calls", "count", "lower", "op_s.p50 on sweep", _calls("numeric.best_mu_residual")),
    ("numeric.best_mu_residual.self_s", "s", "lower", "op_s.p50 on sweep", _self_s("numeric.best_mu_residual")),
    ("numeric.refine.calls", "count", "lower", "op_s.p50 on sweep", _calls("numeric.refine")),
    ("numeric.refine.converged", "count", "lower", "op_s.p50 on sweep", _value("numeric.refine.converged")),
    ("numeric.refine.useful_ratio", "ratio", "higher", "op_s.p50 on sweep", _useful_refines),
    ("numeric.sweep.hits", "count", "lower", "op_s.p50 on sweep", _value("numeric.sweep.hits")),
    ("numeric.residual_parts.calls", "count", "lower", "op_s.p50 on crosscheck", _calls("numeric.residual_parts")),
    ("numeric.residual_parts.self_s", "s", "lower", "op_s.p50 on crosscheck", _self_s("numeric.residual_parts")),
    *(
        ("cli.space.%s.s" % s, "s", "lower", "op_s.p50 on certify", _total_s("cli.space." + s))
        for s in SPACES
    ),
    ("cli.report_all.bytes_equal", "count", "higher", "none: golden byte match on certify", lambda u: u.bytes_equal),
    ("trace.overhead_ratio", "ratio", "lower", "none: traced over untraced wall time", None),
)


def spec():
    """The BENCHMARK.json contents, from the tables above."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 40,
        "workloads": [{"name": n, "why": why} for n, why in WHY.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _, _ in PER_LAYER],
    }


class ProgramMissing(Exception):
    pass


def load_program():
    """Import g2cal from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import g2cal.cli
    except ImportError as exc:
        raise ProgramMissing("cannot import g2cal from %s: %s" % (src, exc))
    where = Path(g2cal.cli.__file__).resolve().parent
    if where != (src / "g2cal").resolve():
        raise ProgramMissing("g2cal imported from %s, not from %s" % (where, src))


def setup_seconds(repeats=SETUP_REPEATS):
    """Median time for a fresh process to `import g2cal.cli`.

    One unmeasured import first, so that compiling bytecode, which a
    user pays once, is not counted.
    """
    from workloads import run_child

    snippet = (
        "import sys, time; t = time.perf_counter(); import g2cal.cli; "
        "sys.stdout.write(repr(time.perf_counter() - t))"
    )
    times = []
    for k in range(repeats + 1):
        c = run_child([sys.executable, "-c", snippet], ROOT, timeout=60)
        if c.rc != 0:
            raise ProgramMissing("import g2cal.cli failed: %s" % c.err.decode(errors="replace"))
        if k:
            times.append(float(c.out))
    return statistics.median(times)


def timed_run(wl, seconds):
    """End-to-end metrics with tracing off; (metrics, ops)."""
    from workloads import self_rss_kb

    setup = setup_seconds()
    ops = [wl.op()] if wl.warmup else []  # checked, not timed
    timed = []
    t0 = perf_counter()
    while True:
        timed.append(wl.op())
        elapsed = perf_counter() - t0
        p50 = statistics.median(op.seconds for op in timed)
        # start no op that would likely end after the measuring time
        if elapsed + p50 > seconds:
            break
    ops += timed
    rss_kb = statistics.median(op.rss_kb for op in timed) if wl.name == "certify" else self_rss_kb()
    failed = sum(not op.ok for op in ops)
    metrics = {
        "setup_s": setup,
        "op_s.p50": p50,
        "ops_per_s": len(timed) / elapsed,
        "ok_ratio": 1.0 - failed / len(ops),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    return metrics, ops


class Traced:
    """What one traced op recorded, in the form the PER_LAYER getters read."""

    def __init__(self, record, op):
        from tracer import aggregate

        self.agg = aggregate(record["spans"])
        self.counts = record["counts"]
        self.values = record["values"]
        self.bytes_equal = int(op.bytes_equal)


def traced_run(wl, seconds):
    """Per-layer metrics: alternate untraced and traced ops; (metrics, ops, spans)."""
    from tracer import Tracer

    tracer = Tracer()
    ops = [wl.op()] if wl.warmup else []
    plain_s, traced_s, traced, spans = [], [], [], []
    t0 = perf_counter()
    while True:
        ops.append(wl.op())
        plain_s.append(ops[-1].seconds)
        op, record = wl.traced_op(tracer, OUT_DIR)
        ops.append(op)
        traced_s.append(op.seconds)
        if record is None:
            break
        traced.append(Traced(record, op))
        spans.append(record["spans"])
        if perf_counter() - t0 + plain_s[-1] + traced_s[-1] > seconds:
            break
    metrics = {}
    for name, unit, _, _, get in PER_LAYER:
        if get is None:
            continue
        if not traced:
            metrics[name] = 0
        elif unit == "s":
            # times vary: median over traced ops; counts repeat: the first
            metrics[name] = statistics.median(get(t) for t in traced)
        else:
            metrics[name] = get(traced[0])
    metrics["trace.overhead_ratio"] = statistics.median(traced_s) / statistics.median(plain_s)
    return metrics, ops, spans


def git_sha():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def meta(args):
    import numpy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=tuple(WHY))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-spec", action="store_true",
                   help="write BENCHMARK.json from the metric tables and exit")
    args = p.parse_args(argv)
    if not args.write_spec and args.workload is None:
        p.error("--workload is required")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    try:
        load_program()
        sys.path.insert(0, str(HERE))
        from workloads import WORKLOADS

        wl = WORKLOADS[args.workload](ROOT, args.seed)
        OUT_DIR.mkdir(exist_ok=True)
        if args.trace:
            metrics, ops, spans = traced_run(wl, args.seconds)
        else:
            metrics, ops = timed_run(wl, args.seconds)
            spans = None
    except ProgramMissing as exc:
        sys.stderr.write("benchmark cannot run: %s\n" % exc)
        return 2

    unit_of = {n: u for n, u, *_ in (PER_LAYER if args.trace else END_TO_END)}
    failed = [op for op in ops if not op.ok]
    info = meta(args)
    record = {
        "meta": info,
        "metrics": {n: {"value": v, "unit": unit_of[n]} for n, v in metrics.items()},
        "attempted": len(ops),
        "failed": len(failed),
        "fail_ratio": len(failed) / len(ops),
        "golden_bytes_equal": sum(op.bytes_equal for op in ops) if wl.name == "certify" else None,
        "op_seconds": [op.seconds for op in ops],
        "failures": [op.detail for op in failed][:20],
    }
    stem = OUT_DIR / ("%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        stem.with_name(stem.name + "-spans.json").write_text(json.dumps(spans) + "\n")

    print("meta %s" % json.dumps(info, sort_keys=True))
    for op in failed[:5]:
        print("FAILED op: %s" % op.detail)
    print("%s fail_ratio = %.6g ratio (%d of %d ops failed)"
          % (args.workload, record["fail_ratio"], len(failed), len(ops)))
    if record["golden_bytes_equal"] is not None:
        print("%s golden_bytes_equal = %d count (of %d ops)"
              % (args.workload, record["golden_bytes_equal"], len(ops)))
    for name, m in record["metrics"].items():
        extra = " (n=%d ops)" % (len(ops) - wl.warmup) if name == "op_s.p50" else ""
        print("%s %s = %.6g %s%s" % (args.workload, name, m["value"], m["unit"], extra))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
