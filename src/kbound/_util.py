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


def json_int(value, minimum: int = 1) -> int:
    """A JSON integer (or integral number such as 3.0) as an int.

    TypeError for a bool or anything else that is not an integer (such as
    3.9, which int() would truncate); ValueError below ``minimum``, which
    defaults to 1 for the sizes and lengths most fields hold.
    """
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected a JSON integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"expected an integer >= {minimum}, got {value}")
    return value


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
