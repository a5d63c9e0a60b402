"""Exact-arithmetic verification of potential-function identities for the
sl2 Gaudin model on tensor powers of the vector representation."""

__version__ = "0.1.0"
