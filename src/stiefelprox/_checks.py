"""Argument checks of the public entry points, one ValueError form each: integers,
finite reals and the sizes of St(n, r). NumPy numbers pass, bool is rejected, and
a plain int or float skips the ABC test (about 1 us) on its exact type."""

import numbers
import sys


def check_integer(name: str, value, low: int | None = None) -> None:
    """Raise ValueError unless value is an integer >= low (any integer if low is None)."""
    if (type(value) is not int and (not isinstance(value, numbers.Integral) or isinstance(value, bool))
            or low is not None and value < low):
        raise ValueError(f"{name} must be an integer{'' if low is None else f' >= {low}'}, got {value!r}")


def check_real(name: str, value, low: float, *, strict: bool = False) -> None:
    """Raise ValueError unless value is a real >= low (> low if strict) and at most the largest float."""
    real = type(value) is float or isinstance(value, numbers.Real) and not isinstance(value, bool)
    # a float32 would round the bound to inf, so other reals compare as floats; integers compare exactly
    x = value if type(value) is float or not real or isinstance(value, numbers.Integral) else float(value)
    if not (real and (x > low if strict else x >= low) and x <= sys.float_info.max):
        raise ValueError(f"{name} must be a finite number {'>' if strict else '>='} {low}, got {value!r}")


def check_sizes(n, r) -> None:
    """Raise ValueError unless n and r are integers with 1 <= r <= n."""
    check_integer("n", n)
    check_integer("r", r)
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got n={n}, r={r}")
