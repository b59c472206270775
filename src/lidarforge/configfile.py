"""Plain key-value config files.

One ``key = value`` pair per line, ``#`` starts a comment, blank lines
ignored.  Keys may contain spaces (e.g. object category names), so the
first ``=`` is the delimiter.
"""

from __future__ import annotations

import os

from .errors import FormatError


def read_keyvalue(path: str | os.PathLike) -> dict[str, str]:
    """Parse a key-value config file into an ordered dict of strings."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise FormatError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, value = line.split("=", 1)
            key = key.strip()
            value = value.strip()
            if not key:
                raise FormatError(f"{path}:{lineno}: empty key")
            out[key] = value
    return out


def parse_number(path: str | os.PathLike, key: str, text: str, kind: type):
    """``kind(text)``, or a FormatError naming the file and the key."""
    try:
        return kind(text)
    except ValueError:
        raise FormatError(f"{path}: {key} = {text!r} is not a valid {kind.__name__}") from None


def write_keyvalue(path: str | os.PathLike, pairs: dict[str, object]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in pairs.items():
            fh.write(f"{key} = {value}\n")
