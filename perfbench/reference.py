"""A fixed pure-Python computation that measures the host's speed.

    python3 perfbench/reference.py

It does the kind of work the package does (Fraction arithmetic on
dictionaries keyed by tuples) and imports nothing from the package, so
no change to the package moves its time; only the host's speed does.
"""

from fractions import Fraction

terms: dict[tuple[int, int], Fraction] = {}
for i in range(1, 8000):
    key = (i % 37, i % 11)
    terms[key] = terms.get(key, 0) + Fraction(i % 97 + 1, i % 13 + 1) * Fraction(i % 7 + 1, i % 5 + 2)
