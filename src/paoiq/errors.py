"""Exception types shared across the package, the one check of each scalar
input rule (``check_int`` for counts and seeds, ``check_positive`` and
``check_nonnegative`` for reals), the one reader and writer of the numbers
in outside files, and the one way the package writes a file.

The CLI maps the exceptions onto exit codes: validation problems exit 1,
numeric failures exit 2, I/O errors exit 3.
"""

from __future__ import annotations

import contextlib
import json
import math
import numbers
import os
import stat
import sys


class PaoiqError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(PaoiqError, ValueError):
    """Invalid parameter, input, or configuration."""


class StabilityError(ValidationError):
    """A bound was requested for an unstable system (load at or above 1)."""


class NumericError(PaoiqError, ArithmeticError):
    """A computation could not produce a usable result."""


class CalibrationRangeError(NumericError):
    """The variability mapping was evaluated outside its fitted region."""


class NoSolutionError(NumericError):
    """A root-finding target is unreachable."""


class SingularDesignError(NumericError):
    """A regression design matrix is rank deficient."""


@contextlib.contextmanager
def parsing(what: str):
    """Report malformed outside input parsed in the block as ValidationError.

    A missing key, a wrong type or an unconvertible value raised while
    reading ``what`` (a config document, a CSV file) becomes a
    ValidationError naming it; ValidationErrors pass through unchanged.
    """
    try:
        yield
    except ValidationError:
        raise
    except KeyError as exc:
        raise ValidationError(f"{what} is missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed {what}: {exc}") from exc


def load_json(path):
    """The document in the JSON file ``path``; text that is not JSON is a ValidationError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    # a JSONDecodeError, bytes that are not text, or nesting too deep to decode
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def write_text(path, text: str) -> None:
    """Write ``text`` to the file ``path`` as UTF-8, rewriting it in place.

    The file is opened without ``O_TRUNC`` and, if it is a regular file, cut
    to the bytes written.  On ext4 an ``O_TRUNC`` open of a file whose last
    contents are still dirty in the page cache blocks for tens of
    milliseconds, and rerunning a command onto the same output path does
    exactly that.  A device or FIFO (``/dev/null``) is only written.  If a
    write fails, the file keeps the bytes already written and no tail of its
    old contents.

    A path that opens the process's own stdout file (``/dev/stdout``, or the
    file stdout is redirected to) is written through ``sys.stdout`` and not
    cut: a fresh descriptor would start at offset 0 and ignore ``O_APPEND``,
    overwriting what the shell's ``>>`` or earlier output put there.
    """
    data = memoryview(text.encode())
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        st = os.fstat(fd)
        if _is_stdout(st):
            sys.stdout.flush()
            sys.stdout.buffer.write(data)
            sys.stdout.buffer.flush()
            return
        written = 0
        try:
            while written < len(data):
                written += os.write(fd, data[written:])
        finally:
            if stat.S_ISREG(st.st_mode):
                os.ftruncate(fd, written)
    finally:
        os.close(fd)


def _is_stdout(st: os.stat_result) -> bool:
    """Whether ``st`` describes the file open as descriptor 1."""
    try:
        out = os.fstat(1)
    except OSError:  # stdout is closed
        return False
    return (st.st_dev, st.st_ino) == (out.st_dev, out.st_ino)


def check_int(value, name: str, minimum: int) -> int:
    """The count or seed ``value``, if it is an integer (a bool is not one) of
    at least ``minimum``; ``int()`` would truncate 2.5 to 2 without a word."""
    # replicate checks a few seeds per replication: a plain int skips the
    # ABC check, which costs about 0.2 us
    if type(value) is not int and (isinstance(value, bool)
                                   or not isinstance(value, numbers.Integral)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")
    return value


def check_positive(value: float, name: str) -> None:
    """Reject a real that is not finite and > 0 (NaN is not)."""
    if not 0 < value < math.inf:
        raise ValidationError(f"{name} must be finite and > 0, got {value}")


def check_nonnegative(value: float, name: str) -> None:
    """Reject a real that is not finite and >= 0 (NaN is not)."""
    if not 0 <= value < math.inf:
        raise ValidationError(f"{name} must be finite and >= 0, got {value}")


def json_float(value, name: str) -> float:
    """A real number read from outside input: only a JSON number passes.

    ``float()`` would accept "0.5" and read ``true`` as 1; an integer too
    large for a float raises ValidationError too.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{name} is out of the float range: {value}") from None


# The type of every number field of a JSON document paoiq reads, by name.
_READERS = {**dict.fromkeys(("n", "sources", "replications", "master_seed"),
                            lambda value, name: check_int(value, name, 0)),
            **dict.fromkeys(("lam", "mu", "warmup_fraction", "theta0", "theta1", "theta2"),
                            json_float)}


def read_fields(doc, known, what: str) -> dict:
    """The fields of the JSON object ``doc`` (a ``what``), numbers read by name.

    A field outside ``known`` is rejected: a misspelt optional field would
    otherwise fall back to its default without a word.  Counts (``n``,
    ``sources``, ``replications``, ``master_seed``) go through ``check_int``
    with minimum 0 (the library holds the tighter minimums), reals (``lam``,
    ``mu``, ``warmup_fraction``, ``theta0``..``theta2``) through
    ``json_float``; any other field is returned as it is.
    """
    if not isinstance(doc, dict):
        raise ValidationError(f"{what} must be a JSON object, got {type(doc).__name__}")
    unknown = set(doc) - set(known)
    if unknown:
        raise ValidationError(f"unknown {what} fields: {sorted(unknown)}")
    return {name: _READERS[name](value, name) if name in _READERS else value
            for name, value in doc.items()}


def fmt(x: float) -> str:
    """A number as every CSV and every CLI line writes it: 12 significant digits."""
    return format(float(x), ".12g")
