"""Deterministic JSON text and atomic file output for the CLI."""

from __future__ import annotations

import contextlib
import json
import os
import tempfile

from .errors import DomainError


def dump_json(obj) -> str:
    """Stable JSON text: fixed key order (insertion), lossless floats,
    trailing newline. A nan or infinite value raises :class:`DomainError`."""
    try:
        return json.dumps(obj, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise DomainError(str(exc)) from None


def atomic_write_many(outputs: dict[str, str]) -> None:
    """Write a set of files via sibling temp files: stage every temp
    first, then rename each onto its target. Any error removes every temp
    not yet renamed, so a failure leaves no partial or temp file behind;
    an error while staging writes no target at all."""
    staged: list[tuple[str, str]] = []
    try:
        for path, text in outputs.items():
            directory = os.path.dirname(os.path.abspath(path))
            fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
            staged.append((tmp, path))
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
        for tmp, path in list(staged):
            os.replace(tmp, path)
            staged.pop(0)
    except BaseException as exc:
        for tmp, _ in staged:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        if isinstance(exc, OSError) and exc.strerror:  # name the target, not its temp file
            raise OSError(exc.errno, exc.strerror, path) from None
        raise
