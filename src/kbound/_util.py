"""Small shared helpers (private)."""

from __future__ import annotations

import io
import json
import math
from contextlib import contextmanager

import numpy as np
import orjson

from .errors import NumericalError, ValidationError

# Cells of the amplitude grid in one row block of row_blocks, so that every
# temporary of a pass over a block takes at most 512 KB.  On the su2
# D = 2000 grid of 601 points (1 BLAS thread, 2-core x86_64), model_amplitudes
# took 0.030 s and peaked at 13 MB, against 0.055 s and 68 MB at 1 << 20
# cells and 0.061 s and 10 MB at 1 << 12.
_BLOCK_CELLS = 1 << 16


@contextmanager
def open_write(path_or_file, mode: str = "w"):
    """Yield a writable handle for a path, opened in ``mode``, or pass a
    file-like through."""
    if hasattr(path_or_file, "write"):
        yield path_or_file
    else:
        with open(path_or_file, mode) as fh:
            yield fh


# Numpy arrays and scalars are encoded from their memory, and dict keys that
# are not strings are written as strings, as the json module writes them.
_JSON_OPTIONS = orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_NON_STR_KEYS


def _finite(value) -> bool:
    """Whether no float in value, at any depth, is NaN or infinite."""
    if isinstance(value, (float, np.floating)):
        return math.isfinite(value)
    if isinstance(value, np.ndarray):
        return value.dtype.kind not in "fc" or bool(np.isfinite(value).all())
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        try:                      # a flat list of numbers, in one C loop
            return all(map(math.isfinite, value))
        except (TypeError, OverflowError):
            return all(map(_finite, value))
    return True


def _json_pieces(value):
    """The compact JSON of value, as bytes, in pieces.

    A dict with string keys is split into its items, and a list of lists,
    dicts or arrays and an array of two or more dimensions into their rows;
    everything else is one piece from orjson, a 1-D array from its memory.
    """
    if isinstance(value, (np.ndarray, np.generic)) and value.ndim == 0:
        value = value.item()
    if isinstance(value, dict) and value and all(isinstance(k, str) for k in value):
        sep = b"{"
        for key, item in value.items():
            yield sep + orjson.dumps(key) + b":"
            yield from _json_pieces(item)
            sep = b","
        yield b"}"
    elif (isinstance(value, np.ndarray) and value.ndim > 1
          or isinstance(value, list) and value
          and isinstance(value[0], (list, dict, np.ndarray))):
        sep = b"["
        for item in value:
            yield sep
            yield from _json_pieces(item)
            sep = b","
        yield b"]"
    else:
        if isinstance(value, np.ndarray):
            value = np.ascontiguousarray(value)
        yield orjson.dumps(value, option=_JSON_OPTIONS)


def write_json(path_or_file, payload) -> None:
    """Write payload as one line of compact JSON to a path or a file-like.

    The text is UTF-8 from orjson, with no spaces between tokens and floats
    written as the shortest decimals that read back bit for bit; dict keys
    that are not strings become strings.  Numpy arrays are encoded from
    their memory, not through tolist(); a float64, integer or bool array
    reads back as its tolist().  The text is encoded one dict item and one
    row of a nested list or array at a time and written as it goes, so no
    more than a row's text is held at once.  A path is written in binary
    mode, and so is a file-like, unless it is a text stream (sys.stdout,
    io.StringIO), which is given str.  A NaN or an infinity, which JSON
    cannot hold (orjson would write null), raises ValidationError before
    the path is opened, so a refused payload leaves the file as it was.
    """
    if not _finite(payload):
        raise ValidationError("cannot write JSON: the payload holds a NaN or an infinity")
    with open_write(path_or_file, "wb") as fh:
        text = isinstance(fh, io.TextIOBase)
        for piece in _json_pieces(payload):
            fh.write(piece.decode() if text else piece)
        fh.write("\n" if text else b"\n")


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

    The file's bytes are parsed by orjson.  Only a file orjson refuses is
    parsed again by the json module, which reads the NaN and Infinity
    tokens, so that the field checks name them, and reports invalid JSON by
    line and column.  Raises ValidationError if the file is not valid JSON
    or holds a JSON value other than an object.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        payload = orjson.loads(data)
    except orjson.JSONDecodeError:
        try:
            payload = json.loads(data)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    return payload


def json_field(payload: dict, key: str, check, path, *args, default=...):
    """Field ``key`` of the JSON object ``payload`` read from ``path``.

    An absent or null field is ``default``; without one (``...``) it raises
    ValidationError "PATH: missing field 'KEY'".  Any other value goes to
    ``check(value, "field 'KEY'", *args)``, one of the checks below, whose
    ValidationError is raised again as "PATH: field 'KEY' must be ...".
    """
    if not isinstance(payload, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    value = payload.get(key)
    if value is None:
        if default is ...:
            raise ValidationError(f"{path}: missing field {key!r}")
        return default
    try:
        return check(value, f"field {key!r}", *args)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def json_chain(payload: dict, path, complete: bool = False):
    """Fields 'b', 'D' (None where absent) and 'truncated' of a chain artifact.

    b may list fewer than D - 1 coefficients (the head of the chain) unless
    ``complete``, which also makes D required; more is always an error.
    """
    b = json_field(payload, "b", coefficients, path)
    D = json_field(payload, "D", integer, path, default=... if complete else None)
    if D is not None and (b.size > D - 1 or complete and b.size < D - 1):
        raise ValidationError(
            f"{path}: field 'b' lists {b.size} coefficients, but field 'D' = {D} "
            f"needs D - 1 = {D - 1}"
        )
    return b, D, json_field(payload, "truncated", boolean, path, default=False)


def json_entry(value, name: str, index: int):
    """Entry ``index`` of the JSON list ``value``."""
    if not (isinstance(value, list) and 0 <= index < len(value)):
        raise ValidationError(f"{name} must be a list with an entry {index}")
    return value[index]


def complex_array(value, name: str, shape: tuple) -> np.ndarray:
    """The object {"re": [..], "im": [..]} as a complex array of ``shape``;
    "im" may be absent or null.  Each part is an array of finite numbers."""
    re = json_field(value, "re", _real_array, name, shape)
    im = json_field(value, "im", _real_array, name, shape, default=0.0)
    return re + 1j * im


def _real_array(value, name: str, shape: tuple) -> np.ndarray:
    return _numbers(value, f"{name} must be an array of finite numbers of shape {shape}",
                    shape)


def _numbers(value, expected: str, shape=None, inside=np.isfinite,
             dtype=np.float64) -> np.ndarray:
    """value as an array of ``dtype`` (float64, or complex128, which also takes
    complex numbers) of numbers x with inside(x) (any number where inside is
    None), of ``shape`` where given; ValidationError "EXPECTED..." for anything
    else (ragged nesting too)."""
    try:
        arr = np.asarray(value)
    except ValueError as exc:     # ragged nesting
        raise ValidationError(f"{expected}; it is nested unevenly") from exc
    if shape is not None and arr.shape != shape:
        raise ValidationError(f"{expected}, got shape {arr.shape}")
    if arr.dtype.kind not in "iuf" + np.dtype(dtype).kind:
        raise ValidationError(f"{expected}, got entries of type {arr.dtype}")
    arr = arr.astype(dtype, copy=False)
    bad = np.flatnonzero(~inside(arr)) if inside is not None else ()
    if len(bad):
        raise ValidationError(f"{expected}; it holds {arr.flat[bad[0]].item()!r}")
    return arr


def boolean(value, name: str) -> bool:
    """value if it is a bool; ValidationError naming ``name`` otherwise."""
    if not isinstance(value, bool):
        raise ValidationError(f"{name} must be true or false, got {value!r}")
    return value


def integer(value, name: str, minimum: int = 1) -> int:
    """value as an int: a Python or numpy integer, or an integral float of
    size at most 2^53.

    Raises ValidationError naming ``name`` for a bool, a number with a
    fraction (which int() would truncate), a float past 2^53 (which need
    not be the integer written: orjson reads an integer past 64 bits as a
    float), anything that is not a number, and a value below ``minimum``.
    """
    if (isinstance(value, (float, np.floating)) and float(value).is_integer()
            and abs(value) <= 2**53):
        value = int(value)
    if (isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer))
            or value < minimum):
        raise ValidationError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _real(value, name: str, inside, expected: str) -> float:
    """value as a float x with inside(x); ValidationError naming ``name`` for a
    bool, a string, anything else float() cannot convert, and any other x."""
    x = math.nan
    if not isinstance(value, (bool, np.bool_, str)):
        try:
            x = float(value)
        except (TypeError, ValueError):
            pass
    if not inside(x):
        raise ValidationError(f"{name} must be {expected}, got {value!r}")
    return x


def finite(value, name: str) -> float:
    """value as a finite float (see :func:`_real`)."""
    return _real(value, name, math.isfinite, "a finite number")


def positive(value, name: str) -> float:
    """value as a finite float > 0 (see :func:`_real`)."""
    return _real(value, name, lambda x: 0.0 < x < math.inf, "a finite number > 0")


def nonnegative(value, name: str) -> float:
    """value as a finite float >= 0 (see :func:`_real`)."""
    return _real(value, name, lambda x: 0.0 <= x < math.inf, "a finite number >= 0")


def fraction(value, name: str) -> float:
    """value as a float in the open interval (0, 1) (see :func:`_real`)."""
    return _real(value, name, lambda x: 0.0 < x < 1.0, "a number in (0, 1)")


def coefficients(b, name: str = "b") -> np.ndarray:
    """A chain b_1, b_2, ... as a flat float64 array of finite entries > 0.

    Raises ValidationError naming ``name`` for a scalar or nested input
    (ravel would flatten it into a different chain), entries that are not
    numbers (bools and strings included), and entries that are NaN,
    infinite or <= 0.  An empty list is the chain of a single site.
    """
    expected = f"{name} must be a flat list of finite numbers > 0"
    arr = _numbers(b, expected, inside=lambda a: (a > 0.0) & (a < math.inf))
    if arr.ndim != 1:
        raise ValidationError(f"{expected}, got an array of shape {arr.shape}")
    return arr


def square_matrix(value, name: str) -> np.ndarray:
    """value as a new complex128 square matrix of finite numbers, at least 1 x 1;
    ValidationError naming ``name`` for anything else (ragged nesting, bools
    and strings too)."""
    expected = f"{name} must be a square matrix of numbers, at least 1 x 1"
    m = _numbers(value, expected, inside=None, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise ValidationError(f"{expected}, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{name} has non-finite entries")
    return m.copy()


def finite_or_none(x) -> float | None:
    """x as a float for JSON, or None where it is None, NaN or infinite."""
    if x is None:
        return None
    x = float(x)
    return x if math.isfinite(x) else None


def validate_times(times, name: str = "times") -> np.ndarray:
    """A time grid as a flat float64 array: non-empty, finite, strictly increasing.

    ``name`` is the argument name the error messages cite.  Like a chain, a
    grid may not be a scalar, nested, or hold bools or strings.
    """
    expected = f"{name} must be a flat list of numbers"
    t = _numbers(times, expected, inside=None)
    if t.ndim != 1:
        raise ValidationError(f"{expected}, got an array of shape {t.shape}")
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


def row_blocks(points: int, sites: int):
    """Slices of consecutive rows of a (points, sites) grid, in order.

    Each slice holds at most _BLOCK_CELLS cells, and always at least one
    row; together they cover every row once.
    """
    step = max(1, _BLOCK_CELLS // sites)
    for lo in range(0, points, step):
        yield slice(lo, min(lo + step, points))
