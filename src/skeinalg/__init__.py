"""Exact computer algebra for Kauffman bracket skein algebras of the three
basic surfaces: the closed torus, the once-punctured torus, and the
four-punctured sphere.

All arithmetic is exact over Z[q, q^-1].  The closed torus carries a
complete multiplication; the punctured surfaces carry the proved partial
product families together with the bounded positivity certifications built
on them.
"""

from .curves import CurveClass, MappingClass, curve, gcd_decompose, intersection_number, sigma
from .elements import NoProductRuleError, SkeinElement, split_by_q_exponent
from .laurent import Laurent, parse_laurent, q_power, quantum_int
from .polyseq import (
    CHEB_S,
    MONOMIAL,
    THAT,
    Poly1,
    PolySeq,
    chebyshev,
    expand_in,
    load_sequence_file,
    seq_leq,
    substitute_t,
)
from .positivity import lower_bound_certify, sandwich_check, torus_uniqueness
from .reports import PositivityReport, Witness

__version__ = "0.1.0"

__all__ = [
    "CurveClass",
    "MappingClass",
    "curve",
    "gcd_decompose",
    "intersection_number",
    "sigma",
    "NoProductRuleError",
    "SkeinElement",
    "split_by_q_exponent",
    "Laurent",
    "parse_laurent",
    "q_power",
    "quantum_int",
    "CHEB_S",
    "MONOMIAL",
    "THAT",
    "Poly1",
    "PolySeq",
    "chebyshev",
    "expand_in",
    "load_sequence_file",
    "seq_leq",
    "substitute_t",
    "lower_bound_certify",
    "sandwich_check",
    "torus_uniqueness",
    "PositivityReport",
    "Witness",
    "__version__",
]
