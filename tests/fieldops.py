"""Field operations that only the tests use, built on ``CycloNum``."""


def squared_abs(a):
    """|a|^2 = a * conj(a), an exact real field element."""
    return a * a.conj()


def is_rational(a) -> bool:
    """Whether a lies in Q: no power of zeta past the constant appears."""
    return not any(a.vec[1:])
