import json

from hypothesis import given, settings, strategies as st

from dwnls.io_utils import dumps_17g

_leaves = (st.none() | st.booleans() | st.integers()
           | st.floats(allow_nan=False, allow_infinity=False) | st.text())
_values = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20)


@settings(max_examples=200, deadline=None)
@given(obj=_values)
def test_dumps_17g_round_trips(obj):
    assert json.loads(dumps_17g(obj)) == obj


def test_control_characters_and_quotes_escaped():
    obj = {'k"\n': 'a\nb\t"c"\\d\x00'}
    assert json.loads(dumps_17g(obj)) == obj
