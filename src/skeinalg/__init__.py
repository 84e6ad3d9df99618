"""Exact computer algebra for Kauffman bracket skein algebras of the three
basic surfaces: the closed torus, the once-punctured torus, and the
four-punctured sphere.

All arithmetic is exact over Z[q, q^-1].  The closed torus carries a
complete multiplication; the punctured surfaces carry the proved partial
product families together with the bounded positivity certifications built
on them.
"""

__version__ = "0.1.0"
