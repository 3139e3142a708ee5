"""Computational toolkit for entire functions under weighted Hadamard
multiplication: exact decision procedures (divisibility, invertibility, ideal
membership, corona), stable-rank constructions, per-coefficient matrix
algebra with logarithms and elementary factorizations, and index-order /
chain diagnostics."""

from . import algebra, coeffseq, errors, ideals, matalg, serialize, weights
from .algebra import Element, unit, zero, monomial, star, norm, eval_at
from .coeffseq import EPSeq
from .matalg import MatElement
from .weights import FACTORIAL, Weight, superexp

__all__ = [
    "algebra", "coeffseq", "errors", "ideals", "matalg", "serialize",
    "weights", "Element", "unit", "zero", "monomial", "star", "norm",
    "eval_at", "EPSeq", "MatElement", "FACTORIAL", "Weight", "superexp",
]

__version__ = "0.1.0"
