"""Hypothesis strategies shared by the kernel oracle tests."""

from hypothesis import strategies as st

from gaudin_potentials.weight_space import WeightVector, weight_dim, zero_vector

# mixed denominators, negative entries and zeros
fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def dense_vectors(draw, min_k=0, n=None, k=None):
    """A weight vector with 2k <= n <= 6, every coefficient drawn; now and
    then the zero vector.  Fixing n and k draws in that space."""
    if n is None:
        n = draw(st.integers(max(1, 2 * min_k), 6))
        k = draw(st.integers(min_k, n // 2))
    if draw(st.booleans()) and draw(st.booleans()):
        return zero_vector(n, k)
    dim = weight_dim(n, k)
    return WeightVector.of(n, k, draw(st.lists(fractions, min_size=dim, max_size=dim)))
