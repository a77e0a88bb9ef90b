"""The CLI's JSON writer gives the bytes of ``json.dumps(obj, sort_keys=True,
indent=2)``, with tie lists held as (T, k) integer arrays.

Checked on every JSON payload the byte corpus has the CLI write, and on
Hypothesis payloads: nested dicts and lists (empty ones too), tie arrays
of one row and of k = 1, NaN, infinities, -0.0, big integers and strings
that need escapes or are not ASCII.  Examples are derandomized, so every
run checks the same inputs.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from gcentral import cli
from gcentral.measures import Measure
from gcentral.optimize import optimumset

import byte_corpus

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def as_lists(obj):
    """``obj`` with every array as nested lists, as ``json.dumps`` takes it."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {key: as_lists(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [as_lists(value) for value in obj]
    return obj


def assert_writes_as_json_dumps(obj) -> None:
    assert cli.json_text(obj) == json.dumps(as_lists(obj), sort_keys=True, indent=2)


@pytest.fixture(scope="module")
def corpus_payloads(tmp_path_factory) -> list:
    """Every payload the byte corpus has the CLI write as JSON, and the
    single-k search results it writes."""
    payloads = []
    emit = cli._emit_json

    def record(payload, out):
        payloads.append(payload)
        emit(payload, out)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_emit_json", record)
        byte_corpus.write_corpus(tmp_path_factory.mktemp("corpus"))
    assert {p["kind"] for p in payloads} == {"optimum-report", "hitting", "centrality"}
    return payloads + [cli.optimum_json(optimumset(g, k, measure)) for _, g, k, measure in byte_corpus.search_cases()]


def test_every_corpus_payload(corpus_payloads):
    for payload in corpus_payloads:
        assert_writes_as_json_dumps(payload)


def test_tie_rows_span_pieces(monkeypatch):
    monkeypatch.setattr(cli, "_ROWS_PER_PIECE", 3)
    rows = np.arange(40, dtype=np.intp).reshape(10, 4)
    assert len(list(cli.json_pieces(rows))) == 5
    # Scalar children are written inline, in their parent's piece.
    assert len(list(cli.json_pieces({"k": 4, "value": 1.5, "exact": None}))) == 1
    assert_writes_as_json_dumps({"rows": [{"optimal_sets": rows}], "k": 4})


def test_one_row_and_one_column_arrays():
    one = optimumset(byte_corpus.search_cases()[0][1], 1, Measure.DEGREE).ties
    assert one.shape == (70, 1)
    for obj in (one, one[:1], {"a": {"b": [one[:1], []]}}, [{}, one], {"k": one[:0]}):
        assert_writes_as_json_dumps(obj)


scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([-0.0, float("nan"), float("inf"), -float("inf")])
    | st.text(alphabet=st.characters(codec="utf-8"), max_size=6)
    | st.sampled_from(['"', "\\", "\n\t", "été", " ", "\U0001f600", "\x00"])
)
tie_arrays = st.tuples(st.integers(0, 5), st.integers(1, 4)).flatmap(
    lambda shape: st.lists(
        st.integers(0, 2**40), min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]
    ).map(lambda values: np.array(values, dtype=np.intp).reshape(shape))
)
keys = st.text(alphabet=st.characters(codec="utf-8"), max_size=5)
payloads = st.recursive(
    scalars | tie_arrays,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(keys, inner, max_size=4),
    max_leaves=12,
)


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(obj=payloads)
def test_hypothesis_payloads(obj):
    assert_writes_as_json_dumps(obj)
