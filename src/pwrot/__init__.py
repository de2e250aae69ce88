"""Exact-arithmetic engine for the piecewise planar rotations
F(z) = lambda * (z - H(z)) with lambda a rational rotation."""

from .cyclo import (
    CycloNum,
    FieldContext,
    Sign,
    cyclotomic_polynomial,
    make_field,
    sign_of_real,
)

__all__ = [
    "CycloNum",
    "FieldContext",
    "Sign",
    "cyclotomic_polynomial",
    "make_field",
    "sign_of_real",
]

__version__ = "0.1.0"
