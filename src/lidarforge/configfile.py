"""Plain key-value config files.

UTF-8 text, a leading byte order mark allowed, one ``key = value`` pair
per line, ``#`` starts a comment, blank lines ignored.  Keys may contain
spaces (e.g. object category names), so the first ``=`` is the
delimiter.  A key may appear once.
"""

from __future__ import annotations

import io
import os
from importlib import resources
from pathlib import Path

from .errors import FormatError


def read_keyvalue(path: str | os.PathLike) -> dict[str, str]:
    """Parse a key-value config file into an ordered dict of strings."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        # lines end as in a file opened in text mode; the text before the bad byte decodes
        lineno = len(io.StringIO(data[:exc.start].decode("utf-8") + "x", newline=None).readlines())
        raise FormatError(f"{path}:{lineno}: not UTF-8 text "
                          f"(byte 0x{data[exc.start]:02x})") from None
    out: dict[str, str] = {}
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
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
        if key in seen:
            raise FormatError(f"{path}:{lineno}: key {key!r} already set on line {seen[key]}")
        seen[key] = lineno
        out[key] = value
    return out


def read_bundled(name: str, read):
    """``read(path)`` of the bundled data file ``lidarforge.data/<name>``."""
    with resources.as_file(resources.files("lidarforge.data") / name) as path:
        return read(path)


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
