"""The benchmark tracer still fits the classes it patches.

perfbench/tracer.py reads each counted method through vars(cls)[attr], so
a method that moved to a base class would break every traced run.
"""

import importlib.util
import pathlib

from g2cal.exterior import Form
from g2cal.scalars import A_UNK, LAM, SQRT3, SQRT5, AlgebraicScalar, ParamPoly, TrigScalar, alg

_TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_counts_scalar_products():
    before = {cls: dict(vars(cls)) for cls in (TrigScalar, ParamPoly)}
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        LAM * LAM
        counts = tracer.take()["counts"]
    finally:
        tracer.uninstall()
    assert counts.get("scalars.param_mul") == 1
    assert counts.get("scalars.trig_mul", 0) >= 1
    assert {cls: dict(vars(cls)) for cls in (TrigScalar, ParamPoly)} == before


def test_tracer_counts_field_products_and_spans_bind():
    p = LAM * A_UNK
    before = {cls: dict(vars(cls)) for cls in (AlgebraicScalar, ParamPoly)}
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        # bind multiplies the int tuples under the field values, so it
        # makes no AlgebraicScalar product
        p.bind({"lam": SQRT3, "a": alg(2)})
        bound = tracer.take()
        3 * SQRT5  # through the __rmul__ alias
        SQRT3.inverse()
        field = tracer.take()
    finally:
        tracer.uninstall()
    assert bound["counts"] == {}
    assert [span[0] for span in bound["spans"]] == ["scalars.param_bind"]
    assert field["counts"].get("scalars.alg_inverse") == 1
    assert field["counts"].get("scalars.alg_mul", 0) >= 2
    assert {cls: dict(vars(cls)) for cls in (AlgebraicScalar, ParamPoly)} == before


def test_tracer_counts_a_direct_wedge():
    x, y = Form.generator(("g1", "g2"), "g1"), Form.generator(("g1", "g2"), "g2", LAM)
    before = dict(vars(Form))
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        x.wedge(y)
        counts = tracer.take()["counts"]
    finally:
        tracer.uninstall()
    assert counts.get("exterior.wedge") == 1
    assert dict(vars(Form)) == before


def test_tracer_spans_each_polish_of_a_sweep():
    # the tracer wraps numeric._refine by name and reads one
    # (point, mu, res) per polish: on the benchmark's b7 box all five
    # polished minima converge to the one joint zero
    from g2cal import numeric

    before = dict(vars(numeric))
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        hits = numeric.numeric_sweep("b7", "both", lambda_range=(0.8, 1.0))
        taken = tracer.take()
    finally:
        tracer.uninstall()
    assert len(hits) == 1
    assert sum(span[0] == "numeric.refine" for span in taken["spans"]) == 5
    assert taken["values"]["numeric.refine.converged"] == 5
    assert taken["values"]["numeric.refine.distinct"] == 1
    assert taken["values"]["numeric.sweep.hits"] == 1
    assert dict(vars(numeric)) == before
