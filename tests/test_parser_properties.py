"""Property tests: the text parsers fail only with InputError.

Examples are derandomized, so every run checks the same inputs.
"""

from __future__ import annotations

import pytest

from gcentral.errors import InputError
from gcentral.graph import load_edge_list, parse_label_file

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

DETERMINISTIC = settings(derandomize=True, deadline=None, database=None)

# Tokens near every branch of the parsers: ids, names, Unicode digits,
# signs, separators, comments and weights that are bad, huge or non-finite.
TOKENS = st.sampled_from(
    ["0", "1", "2", "10", "-1", "+1", "0_1", "١", "²", "a", "b", "#", "\t", " ",
     "1.5", "-2.0", "1e308", "1e-320", "inf", "nan"]
)
LINE = st.lists(st.one_of(TOKENS, st.text(max_size=4)), max_size=5).map(" ".join)
TEXT = st.one_of(st.text(), st.lists(LINE, max_size=8).map("\n".join))


@DETERMINISTIC
@given(text=TEXT, weighted=st.booleans())
def test_load_edge_list_raises_only_input_error(text, weighted):
    try:
        load_edge_list(text, weighted=weighted)
    except InputError:
        pass


@DETERMINISTIC
@given(text=TEXT)
def test_parse_label_file_raises_only_input_error(text):
    try:
        parse_label_file(text)
    except InputError:
        pass


INDEX = st.one_of(
    st.from_regex(r"[0-9]", fullmatch=True),
    st.text(alphabet="0123456789+-_ ١²", min_size=1, max_size=3),
)


@DETERMINISTIC
@given(rows=st.lists(st.tuples(INDEX, st.text(alphabet="abc", max_size=3)), min_size=1, max_size=4))
def test_label_file_accepts_only_ascii_digit_indices(rows):
    text = "".join(f"{index}\t{label}\n" for index, label in rows)
    try:
        parse_label_file(text)
    except InputError:
        return
    assert all(index.isascii() and index.isdigit() for index, _ in rows)
