"""Exception taxonomy shared across the package, the UTF-8 text opener,
the all-or-nothing binary writer and the strict-JSON constant hook.

The CLI maps these onto its exit-code contract: validation and check
failures exit 1, file-format and I/O problems exit 2.
"""

import contextlib
import os
import secrets


class IbenError(Exception):
    """Base class for all errors raised by this package."""


class DataFormatError(IbenError):
    """A file on disk does not match its documented format."""


class ConfigError(IbenError):
    """A run configuration failed schema validation."""


class TrainingError(IbenError):
    """Training aborted (non-finite loss or gradient)."""


def refuse_json_constant(name: str):
    """A ``parse_constant`` hook for :mod:`json`: ``NaN``, ``Infinity`` and
    ``-Infinity`` are Python's extensions, not JSON numbers."""
    raise ValueError(f"{name} is not a JSON number")


@contextlib.contextmanager
def open_text(path, newline=None):
    """Open ``path`` as UTF-8 text for reading.

    Bytes that are not UTF-8 raise :class:`DataFormatError` naming the file
    and its first line that does not decode.
    """
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}{_first_bad_line(path)}: not valid UTF-8 "
                                  f"({exc.reason})") from exc


def _first_bad_line(path) -> str:
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return f" line {lineno}"
    return ""


@contextlib.contextmanager
def open_replacing(path):
    """A binary file to write that takes ``path``'s place only once it is
    complete.

    The bytes go to a new file beside ``path``, which ``os.replace`` moves
    onto ``path`` when the ``with`` block ends normally.  When the block
    raises, the new file is removed and ``path`` keeps its old bytes, so a
    writer that fails halfway never leaves a truncated file behind.
    """
    path = os.fspath(path)
    head, tail = os.path.split(path)
    temp = os.path.join(head, f".{tail}.{secrets.token_hex(4)}.tmp")
    try:
        with open(temp, "xb") as fh:
            yield fh
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(temp)
        raise
