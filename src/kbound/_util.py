"""Small shared helpers (private)."""

from __future__ import annotations

import json
import math
from contextlib import contextmanager

import numpy as np

from .errors import NumericalError, ValidationError


@contextmanager
def open_write(path_or_file):
    """Yield a writable handle for a path or pass a file-like through."""
    if hasattr(path_or_file, "write"):
        yield path_or_file
    else:
        with open(path_or_file, "w") as fh:
            yield fh


def _json_pieces(value):
    """The text of json.dumps(value, allow_nan=False), in pieces.

    Dicts with string keys and lists of lists or dicts are split into their
    items; everything else is one piece from the C encoder.  A NaN or an
    infinity raises ValidationError.
    """
    if isinstance(value, dict) and value and all(isinstance(k, str) for k in value):
        sep = "{"
        for key, item in value.items():
            yield sep + json.dumps(key) + ": "
            yield from _json_pieces(item)
            sep = ", "
        yield "}"
    elif isinstance(value, list) and value and isinstance(value[0], (list, dict)):
        sep = "["
        for item in value:
            yield sep
            yield from _json_pieces(item)
            sep = ", "
        yield "]"
    else:
        try:
            text = json.dumps(value, allow_nan=False)
        except ValueError as exc:
            raise ValidationError(
                f"cannot write JSON: the payload holds a NaN or an infinity ({exc})"
            ) from exc
        yield text


def write_json(path_or_file, payload) -> None:
    """Write payload as one line of JSON to a path or a file-like.

    The text is json.dumps(payload) and a newline.  It is encoded by the C
    encoder that json.dumps uses (json.dump encodes in pure Python), one
    row of a nested list at a time and written as it goes, so no more than
    a row's text is held at once.  A NaN or an infinity, which JSON cannot
    hold, raises ValidationError.
    """
    with open_write(path_or_file) as fh:
        for piece in _json_pieces(payload):
            fh.write(piece)
        fh.write("\n")


def _csv_cell(x) -> str:
    if isinstance(x, (str, int)):
        return str(x)
    return f"{float(x):.17g}"


def write_csv(path_or_file, header, rows, comment=None) -> None:
    """Write a CSV table to a path or a file-like.

    header names the columns; each row is an iterable of cells.  A str or
    int cell is written as it is, any other as float(x) to 17 significant
    digits, which gives nan and inf for undefined values.  comment, when
    given, is written first as a line "# comment".
    """
    with open_write(path_or_file) as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            # Python floats, the bulk of every table, skip the type tests.
            cells = [f"{x:.17g}" if type(x) is float else _csv_cell(x) for x in row]
            fh.write(",".join(cells) + "\n")


def load_json_object(path) -> dict:
    """The JSON object stored at ``path``.

    Raises ValidationError if the file is not valid JSON or holds a JSON
    value other than an object.
    """
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    return payload


def json_field(payload: dict, key: str, convert, path, expected: str):
    """convert(payload[key]) for a field of the JSON file at ``path``.

    Raises ValidationError naming the file and the field when the value
    does not convert; ``expected`` says what it should have been.
    """
    try:
        return convert(payload[key])
    except (TypeError, ValueError, OverflowError, KeyError) as exc:
        raise ValidationError(f"{path}: field {key!r} must be {expected}") from exc


def json_bool(value) -> bool:
    """A JSON boolean as itself; TypeError for anything else (such as "false")."""
    if not isinstance(value, bool):
        raise TypeError(f"expected a JSON boolean, got {value!r}")
    return value


def integer(value, name: str, minimum: int = 1) -> int:
    """value as an int: a Python or numpy integer, or an integral float.

    Raises ValidationError naming ``name`` for a bool, a number with a
    fraction (which int() would truncate), anything that is not a number,
    and a value below ``minimum``.  A JSON field reads through
    :func:`json_field`, whose message names the file instead.
    """
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        value = int(value)
    if (isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer))
            or value < minimum):
        raise ValidationError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def positive(value, name: str) -> float:
    """value as a finite float > 0.

    Raises ValidationError naming ``name`` for a bool, a string, anything
    else float() cannot convert, NaN, an infinity and a value <= 0.
    """
    x = math.nan
    if not isinstance(value, (bool, np.bool_, str)):
        try:
            x = float(value)
        except (TypeError, ValueError):
            pass
    if not 0.0 < x < math.inf:
        raise ValidationError(f"{name} must be a finite number > 0, got {value!r}")
    return x


def coefficients(b, name: str = "b") -> np.ndarray:
    """A chain b_1, b_2, ... as a flat float64 array of finite entries > 0.

    Raises ValidationError naming ``name`` for a scalar or nested input
    (ravel would flatten it into a different chain), entries that are not
    numbers (bools and strings included), and entries that are NaN,
    infinite or <= 0.  An empty list is the chain of a single site.
    """
    expected = f"{name} must be a flat list of finite numbers > 0"
    try:
        arr = np.asarray(b)
    except ValueError as exc:     # ragged nesting
        raise ValidationError(f"{expected}; it is nested unevenly") from exc
    if arr.ndim != 1:
        raise ValidationError(f"{expected}, got an array of shape {arr.shape}")
    if arr.dtype.kind not in "iuf":
        raise ValidationError(f"{expected}, got entries of type {arr.dtype}")
    arr = arr.astype(np.float64, copy=False)
    bad = np.flatnonzero(~((arr > 0.0) & (arr < math.inf)))
    if bad.size:
        raise ValidationError(f"{expected}; it holds {float(arr[bad[0]])!r}")
    return arr


def finite_or_none(x) -> float | None:
    """x as a float for JSON, or None where it is None, NaN or infinite."""
    if x is None:
        return None
    x = float(x)
    return x if math.isfinite(x) else None


def validate_times(times, name: str = "times") -> np.ndarray:
    """A time grid as a flat float64 array: non-empty, finite, strictly increasing.

    ``name`` is the argument name the error messages cite.
    """
    t = np.asarray(times, dtype=np.float64).ravel()
    if t.size == 0:
        raise ValidationError(f"{name} must be a non-empty finite array: it has no points")
    if not np.all(np.isfinite(t)):
        raise ValidationError(
            f"{name} must be a non-empty finite array: it has non-finite values"
        )
    if t.size > 1 and not np.all(np.diff(t) > 0.0):
        raise ValidationError(f"{name} must be strictly increasing")
    return t


def output_array(points: int, sites: int) -> np.ndarray:
    """A zeroed (points, sites) float64 array for amplitudes on a time grid.

    Raises NumericalError naming the grid points, the sites and the size
    where numpy cannot allocate it, in place of a bare MemoryError.
    """
    try:
        return np.zeros((points, sites))
    except MemoryError as exc:
        raise NumericalError(
            f"{points} grid points by {sites} sites take "
            f"{8 * points * sites / 1e9:.3g} GB of memory, more than is available; "
            "use fewer grid points or a shorter grid"
        ) from exc
