"""Small shared helpers: the gate error, the package-wide quantile rule,
stable file output into a directory it makes, and the errors of a malformed file."""

from __future__ import annotations

import csv
import hashlib
import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np


class GateError(ValueError):
    """A computation failed a convergence or coverage gate; the CLI exits 1.

    A ``ValueError`` so that library callers catching bad input still catch it.
    """


def empirical_quantile(values, q):
    """Empirical quantile with linear interpolation between order statistics.

    This is the single quantile convention used everywhere (threshold
    selection, return-level tables), so that all modules agree on the rule.
    Accepts a scalar or a sequence of probability levels.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("empty input")
    return np.quantile(arr, q)


def sha256_of_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def writable(path) -> Path:
    """``path`` as a ``Path``, its directory made: each writer of the package
    calls it at the moment it writes, so a refused command makes no directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def dump_json(obj, path) -> None:
    """Write JSON with sorted keys and a trailing newline; byte-stable for equal input."""
    writable(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def load_json(path):
    return json.loads(Path(path).read_text())


def write_csv(path, header, rows) -> None:
    """Write a header row, then ``rows``, in the one CSV dialect of every artifact
    (the csv module's default: comma-separated, ``\\r\\n`` line ends)."""
    with open(writable(path), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def format_float(x: float) -> str:
    """Shortest round-trip decimal form; keeps CSV artifacts byte-stable."""
    return repr(float(x))


# what parsing a malformed file raises besides a ValueError: an oversized csv
# field, a missing key or column, a value of the wrong type, an empty file
# read with next(), and broken JSON (a ValueError that names no file)
PARSE_ERRORS = (csv.Error, json.JSONDecodeError, KeyError, TypeError, IndexError, StopIteration)


@contextmanager
def parse_errors_named(path):
    """Re-raise a ``PARSE_ERRORS`` error, or a ``ValueError`` whose message
    does not start with ``path``, raised while parsing ``path`` as a
    ``ValueError`` naming ``path``, so the CLI reports a malformed file as bad
    input and says which file it is."""
    try:
        yield
    except PARSE_ERRORS as exc:
        if isinstance(exc, KeyError):
            detail = f"missing key {exc}"
        elif isinstance(exc, StopIteration):
            detail = "too few rows"
        else:
            detail = str(exc)
        raise ValueError(f"{path}: {detail}") from exc
    except ValueError as exc:
        if str(exc).startswith(str(path)):  # as the hourly reader's <path>:<line> errors
            raise
        raise ValueError(f"{path}: {exc}") from exc
