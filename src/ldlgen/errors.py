"""Exception types shared across the package, and the one set of argument
checks every public entry reads its arguments through.

The CLI maps these onto its exit-code contract: validation failures exit
with 1, numeric failures with 2.  Each check returns the value in the form
the numerics use (a float, an int, a float or complex array, the JSON
object itself) or raises ValidationError naming `where`.
"""

import math
import numbers

import numpy as np


class ValidationError(ValueError):
    """Raised when an input (model file, bath, state, argument) violates a contract."""


class NumericError(RuntimeError):
    """Raised when a numerical procedure cannot deliver its result
    (singular solve, gamma at a rect support edge, trace drift, ...)."""


def _real(value, where):
    """A finite real number as float; anything else is a ValidationError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{where} must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ValidationError(f"{where} must be finite, got {value!r}")
    return value


def _count(value, where):
    """An integral number as int; a fractional or non-finite count is rejected
    rather than truncated."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not float(value).is_integer()):
        raise ValidationError(f"{where} must be an integer, got {value!r}")
    return int(value)


def _index(value, name):
    """A label 0 or 1 as int; 1.0 passes, a bool or anything else is a ValidationError."""
    if _count(value, name) not in (0, 1):
        raise ValidationError(f"{name} must be 0 or 1, got {value!r}")
    return int(value)


def _energies(E):
    """A finite real energy, or a 1-D array of them, as a float array of the
    same shape; anything else is a ValidationError.  The pointwise views
    take either: an array adds a leading node axis to the result."""
    try:
        arr = np.asarray(E)
        ok = arr.dtype.kind in "iuf" and arr.ndim <= 1 and np.isfinite(arr).all()
    except ValueError:
        ok = False
    if not ok:
        raise ValidationError(f"energy must be a finite number or a 1-D array of them, got {E!r}")
    return arr.astype(float)


def _array(value, shape, where, dtype=complex, nonnegative=False):
    """A finite array of exactly `shape` as a `dtype` array, where a None in
    `shape` takes any length and a `shape` of None any shape; anything else
    is a ValidationError.  The kind is checked before the cast: strings,
    bytes, booleans and objects are refused, and so is a complex array when
    `dtype` is float.  With `nonnegative`, a negative entry is one too, and a
    non-finite or negative entry gets the one message saying both."""
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{where} must be a numeric array") from None
    if arr.dtype.kind not in ("iuf" if dtype is float else "iufc"):
        kind = "real" if dtype is float else "numeric"
        raise ValidationError(f"{where} must be a {kind} array, not of dtype {arr.dtype}")
    arr = arr.astype(dtype, copy=False)
    if shape is not None and (arr.ndim != len(shape)
                              or any(n not in (None, m) for n, m in zip(shape, arr.shape))):
        want = (" x ".join(map(str, shape)) if len(shape) != 1
                else "1-D" if shape[0] is None else f"of dimension {shape[0]}")
        raise ValidationError(f"{where} must be {want}, not of shape {arr.shape}")
    if not np.isfinite(arr).all() or (nonnegative and not (arr >= 0.0).all()):
        sign = " and nonnegative" if nonnegative else ""
        raise ValidationError(f"{where} must be finite{sign}")
    return arr


def _fields(obj, where, required, optional=()):
    """obj itself when it is a JSON object holding every required key and no
    key outside required and optional; anything else is a ValidationError.
    An unknown key is reported before a missing one."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{where} must be a JSON object")
    unknown = set(obj) - {*required, *optional}
    if unknown:
        raise ValidationError(f"unknown key(s) {sorted(unknown)} in {where}")
    for key in required:
        if key not in obj:
            raise ValidationError(f"missing required field '{key}' in {where}")
    return obj
