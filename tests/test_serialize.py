import json
import math
from dataclasses import asdict, fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gapsieve import bv, moments, singular
from gapsieve.serialize import OUTSIDE_DOC, Report, canonical_json
from gapsieve.tuples import TWIN_OFFSETS, OffsetTuple
from oracles import canonical_json_oracle


class _Text(str):
    pass


class _Dict(dict):
    pass


class _List(list):
    pass


class _Tuple(tuple):
    pass


finite = st.floats(allow_nan=False, allow_infinity=False)
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**63 - 4, max_value=2**80) | st.integers(min_value=-(2**80), max_value=-(2**63) + 4),
    finite,
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072009e-308, 1e308, -1.7976931348623157e308]),
    finite.map(np.float64),
    st.fractions(),
    st.text(),
    st.text(alphabet=st.characters(max_codepoint=0x9F) | st.sampled_from('"\\\u2028\U0001f600')),
    st.text().map(_Text),
)
documents = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(children, max_size=5).map(_List),
        st.lists(children, max_size=5).map(_Tuple),
        st.dictionaries(st.text(), children, max_size=5),
        st.dictionaries(st.text(), children, max_size=5).map(_Dict),
        # one layout, shared by every row, as a table's rows share one
        st.lists(st.tuples(children, children), max_size=4).map(lambda rows: [{"b": b, "a": a} for a, b in rows]),
    ),
    max_leaves=40,
)


@settings(max_examples=150, deadline=None)
@example(doc={"é": ["ünï", " ", "\x00", '"\\'], "a": (1, True, 0, False, None)})
@example(doc=[(), [], {}, ((),), [[[]]], {"": {}}])
@example(doc=(np.float64(0.1), 0.1, -0.0, 1e300, 5e-324, Fraction(-3, 7), 2**70, True, 1))
@example(doc=[{"x": 1, "y": 2}, {"y": 3, "x": 4}, _Dict(y=5, x=6), {"x": _List([7]), "z": _Tuple((8,))}])
@given(doc=documents)
def test_canonical_json_is_the_isinstance_emitter_byte_for_byte(doc):
    assert canonical_json(doc) == canonical_json_oracle(doc)


def test_canonical_json_is_the_isinstance_emitter_on_every_reference_document():
    reference = json.loads((Path(__file__).parents[1] / "bench" / "reference" / "seed0.json").read_text())
    docs = [entry["doc"] for entries in reference.values() for entry in entries]
    assert len(docs) == 15
    for doc in docs:
        assert canonical_json(doc) == canonical_json_oracle(doc)


@pytest.mark.parametrize(
    "doc, error",
    [
        (math.nan, ValueError),
        ([1.0, -math.inf], ValueError),
        ({"x": np.float64(math.inf)}, ValueError),
        ({"x": 1.0, "y": [np.float64(-math.nan)]}, ValueError),
        ({1: "a"}, TypeError),
        ({"a": {2: 0}}, TypeError),
        ({2: 0, 1: 0}, TypeError),
        ({"a": 0, 1: 0}, TypeError),  # keys that do not sort
        (_Dict({None: 0}), TypeError),
        (np.int64(3), TypeError),
        ({"a": {1, 2}}, TypeError),
        ([b"bytes"], TypeError),
    ],
)
def test_canonical_json_refuses_what_the_isinstance_emitter_refuses(doc, error):
    with pytest.raises(error) as oracle:
        canonical_json_oracle(doc)
    with pytest.raises(error) as emitter:
        canonical_json(doc)
    assert (type(emitter.value), str(emitter.value)) == (type(oracle.value), str(oracle.value))


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
