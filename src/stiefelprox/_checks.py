"""Scalar argument checks of the public entry points, one ValueError form each:
NumPy integers and floats pass, bool is rejected, and a plain int or float
passes on its exact type before the ABC test, which costs about 1 us."""

import numbers
import sys


def check_integer(name: str, value, low: int | None = None) -> None:
    """Raise ValueError unless value is an integer >= low (any integer if low is None)."""
    if (type(value) is not int and (not isinstance(value, numbers.Integral) or isinstance(value, bool))
            or low is not None and value < low):
        raise ValueError(f"{name} must be an integer{'' if low is None else f' >= {low}'}, got {value!r}")


def check_real(name: str, value, low: float, *, strict: bool = False) -> None:
    """Raise ValueError unless value is a real >= low (> low if strict) and at most the largest float."""
    if not ((type(value) is float or isinstance(value, numbers.Real) and not isinstance(value, bool))
            and (value > low if strict else value >= low) and value <= sys.float_info.max):
        raise ValueError(f"{name} must be a finite number {'>' if strict else '>='} {low}, got {value!r}")
