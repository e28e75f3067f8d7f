"""``repeat_add`` rounds exactly as the loop of additions it replaces."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.floats import repeat_add


def loop(x, d, n):
    for _ in range(n):
        x += d
    return x


class TestRepeatAdd:
    @settings(max_examples=200, deadline=None)
    @given(
        x=st.floats(0.0, 1e12, allow_nan=False),
        d=st.floats(0.0, 1e6, allow_nan=False),
        n=st.integers(0, 5000),
    )
    def test_equals_the_loop(self, x, d, n):
        assert repeat_add(x, d, n) == loop(x, d, n)

    def test_rounding_differs_from_a_product(self):
        """The case a closed form gets wrong: 0.1 added ten times."""
        assert repeat_add(0.0, 0.1, 10) == loop(0.0, 0.1, 10) != 10 * 0.1
