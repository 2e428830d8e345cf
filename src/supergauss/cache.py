"""Zero-table persistence: cache files and atomic writes.

The cache holds one CSV per (n, w_max, tol) key in the zero-table format of
:mod:`supergauss.zeros` (``HEADER``, :func:`format_zero_cache`,
:func:`parse_zero_cache`, re-exported here).  A file holds exactly the scan
its key names, and its name carries the scan's ``SCAN_VERSION``, so a
table written by an earlier scan is never read: a cached table is the
table a fresh scan would return.
The cache directory defaults to ~/.cache/supergauss and is overridden by the
POLYA_CACHE_DIR environment variable.  All writes go through a temp file and
an atomic rename.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

from .transform import QuadratureSpec
from .zeros import (
    HEADER,
    SCAN_VERSION,
    ZeroRecord,
    format_zero_cache,
    parse_zero_cache,
    scan_real_zeros,
)

CACHE_ENV = "POLYA_CACHE_DIR"


def cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "supergauss"


def zero_cache_path(n: int, w_max: float, tol: float) -> Path:
    return cache_dir() / f"zeros_v{SCAN_VERSION}_n{n}_wmax{float(w_max)!r}_tol{float(tol)!r}.csv"


def atomic_write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_zero_cache(path: Path, records: list[ZeroRecord]) -> None:
    atomic_write_text(Path(path), format_zero_cache(records))


def read_zero_cache(path: Path) -> list[ZeroRecord]:
    return parse_zero_cache(Path(path).read_text())


def cached_zeros(n: int, w_max: float, q: QuadratureSpec) -> list[ZeroRecord]:
    """:func:`scan_real_zeros` (n, w_max, q), read from its cache file when
    one exists, otherwise scanned and written there."""
    path = zero_cache_path(n, w_max, q.tol)
    if path.exists():
        return read_zero_cache(path)
    records = scan_real_zeros(n, w_max, q)
    write_zero_cache(path, records)
    return records
