"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

#: finite coefficient lists, not all zero, with at most 12 entries
coefficient_lists = st.lists(
    st.floats(-1e3, 1e3).map(lambda x: x if abs(x) > 1e-60 else 0.0), min_size=1, max_size=12
).filter(lambda a: any(a))


def signs_and_order_moved(data, coeffs: list[float]) -> list[float]:
    """The coefficients with some signs flipped, in a drawn order."""
    n = len(coeffs)
    signs = data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
    return data.draw(st.permutations([s * a for s, a in zip(signs, coeffs)]))
