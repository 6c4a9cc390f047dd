import json
import math
from dataclasses import asdict, fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gapsieve import bv, moments, singular
from gapsieve.serialize import OUTSIDE_DOC, Report, canonical_json
from gapsieve.tuples import TWIN_OFFSETS, OffsetTuple


def _oracle(obj) -> str:
    """canonical_json as it was before its chain put float and str first:
    None, bool, str, int, float, Fraction, dict, list; every string through
    json.dumps."""
    parts: list[str] = []

    def emit(obj):
        if obj is None:
            parts.append("null")
        elif obj is True:
            parts.append("true")
        elif obj is False:
            parts.append("false")
        elif isinstance(obj, str):
            parts.append(json.dumps(obj, ensure_ascii=False))
        elif isinstance(obj, int):
            parts.append(str(obj))
        elif isinstance(obj, float):
            if math.isnan(obj) or math.isinf(obj):
                raise ValueError(f"non-finite float {obj} has no canonical form")
            parts.append(format(obj, ".17g"))
        elif isinstance(obj, Fraction):
            parts.append(json.dumps(str(obj)))
        elif isinstance(obj, dict):
            parts.append("{")
            for i, key in enumerate(sorted(obj)):
                if not isinstance(key, str):
                    raise TypeError(f"canonical JSON keys must be strings, got {key!r}")
                if i:
                    parts.append(",")
                parts.append(json.dumps(key, ensure_ascii=False))
                parts.append(":")
                emit(obj[key])
            parts.append("}")
        elif isinstance(obj, (list, tuple)):
            parts.append("[")
            for i, item in enumerate(obj):
                if i:
                    parts.append(",")
                emit(item)
            parts.append("]")
        else:
            raise TypeError(f"no canonical JSON form for {type(obj).__name__}")

    emit(obj)
    return "".join(parts)


class _Text(str):
    pass


finite = st.floats(allow_nan=False, allow_infinity=False)
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    finite,
    finite.map(np.float64),
    st.fractions(),
    st.text(),
    st.text().map(_Text),
)
documents = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(), children, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=120, deadline=None)
@example(doc={"é": ["ünï", " ", "\x00", '"\\'], "a": (1, True, 0, False, None)})
@example(doc=[(), [], {}, ((),), [[[]]], {"": {}}])
@example(doc=(np.float64(0.1), 0.1, -0.0, 1e300, 5e-324, Fraction(-3, 7), 2**70, True, 1))
@given(doc=documents)
def test_canonical_json_is_the_isinstance_emitter_byte_for_byte(doc):
    assert canonical_json(doc) == _oracle(doc)


@pytest.mark.parametrize(
    "doc, error",
    [
        (math.nan, ValueError),
        ([1.0, -math.inf], ValueError),
        ({"x": np.float64(math.inf)}, ValueError),
        ({1: "a"}, TypeError),
        ({"a": {2: 0}}, TypeError),
        (np.int64(3), TypeError),
        ({"a": {1, 2}}, TypeError),
    ],
)
def test_canonical_json_refuses_what_the_isinstance_emitter_refuses(doc, error):
    with pytest.raises(error):
        _oracle(doc)
    with pytest.raises(error):
        canonical_json(doc)


# every report class and its document's keys; the detector's positives stay out
_DOC_KEYS = {
    moments.SieveParams: {"N", "R", "k", "l", "a", "span_bound", "theta"},
    moments.ThresholdReport: {"kind", "k", "l", "theta", "eps", "coefficient", "theta_term",
                              "log_n_coefficient", "bracket_coefficient"},
    moments.MomentReport: {"kind", "empirical", "main_term", "ratio", "params", "offsets", "diagnostics"},
    moments.DetectorReport: {"kind", "mode", "empirical", "predicted", "bracket", "positive_count",
                             "witnesses", "tuple_count", "params", "diagnostics"},
    bv.BvDeviationTable: {"kind", "x", "theta", "y_grid", "rows", "total"},
    bv.ThetaSupportReport: {"kind", "A", "groups"},
    singular.SingularSeriesValue: {"kind", "value", "truncation_prime", "tail_bound"},
    singular.TupleAverageReport: {"kind", "span_bound", "k", "normalized", "tuple_sum", "tuple_count",
                                  "stride", "phase", "convention"},
}


@pytest.fixture(scope="module")
def reports() -> list:
    twin = OffsetTuple(TWIN_OFFSETS)
    params = moments.SieveParams(N=10**4, R=8.0, k=2, l=1, span_bound=10)
    tables = [bv.bv_deviation(x, Fraction(1, 3), workers=1) for x in (10**4, 10**5)]
    return [
        params,
        moments.threshold(2, 1, Fraction(1, 2)),
        moments.pure_moment(twin, params, workers=1),
        moments.two_primes_detector(params, [twin], workers=1, collect_positives=True),
        *tables,
        bv.supported_theta(tables, A=1.0),
        singular.singular_series(twin),
        singular.gallagher_average(10, 2),
    ]


def test_a_reports_document_is_its_fields_less_the_marked_plus_its_kind(reports):
    assert {type(rep) for rep in reports} == set(_DOC_KEYS) == set(Report.__subclasses__())
    for rep in reports:
        documented = {f.name for f in fields(rep) if f.metadata != OUTSIDE_DOC}
        kind = {"kind"} if hasattr(rep, "kind") else set()
        assert set(rep.doc()) == documented | kind == _DOC_KEYS[type(rep)], type(rep).__name__
    detector = reports[3]
    assert [f.name for f in fields(detector) if f.metadata == OUTSIDE_DOC] == ["positives"]
    assert detector.positives


def test_document_values_follow_the_one_rule(reports):
    params, thr, pure, detector, table, _, support, series, average = reports
    assert params.doc()["a"] == params.k + params.l == params.a
    assert params.doc()["theta"] == "1/2" and thr.doc()["coefficient"] == str(thr.coefficient)
    assert pure.doc()["params"] == params.doc() and pure.doc()["offsets"] == [1, 3]
    assert table.doc()["y_grid"] == list(table.y_grid)
    assert table.doc()["rows"][0] == {"q": 1, "worst_a": table.rows[0].worst_a,
                                      "worst_y": table.rows[0].worst_y, "deviation": table.rows[0].deviation}
    # lists and dicts pass through uncopied
    assert detector.doc()["witnesses"] is detector.witnesses
    assert detector.doc()["diagnostics"] is detector.diagnostics
    assert all(a is b for a, b in zip(support.doc()["groups"], support.groups))
    assert (pure.doc()["kind"], detector.doc()["kind"], series.doc()["kind"], average.doc()["kind"]) == (
        "pure", "detector", "singular_series", "gallagher")


def test_kind_is_no_field_of_what_the_bench_serialises_with_asdict(reports):
    series, average = reports[-2:]
    assert set(asdict(series)) == {"value", "truncation_prime", "tail_bound"}
    assert set(asdict(average)) == {"span_bound", "k", "normalized", "tuple_sum", "tuple_count",
                                    "stride", "phase", "convention"}
