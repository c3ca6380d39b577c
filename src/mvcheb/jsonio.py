"""Deterministic JSON text, and the staged temp files every CLI output file goes through."""

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


@contextlib.contextmanager
def atomic_files(paths):
    """Yield one text handle per path, each onto a sibling temp file staged
    before the block runs, and rename every temp onto its target once the
    block exits cleanly. Any error removes each temp not yet renamed, so no
    partial or temp file is left; an ``OSError`` names the target."""
    staged, target = [], None  # target: the path being staged or renamed
    try:
        for target in paths:
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(target)),
                                       prefix=".tmp-", suffix="~")
            staged.append((os.fdopen(fd, "w"), tmp, target))
        target = None
        yield [fh for fh, _, _ in staged]
        for fh, _, target in staged:
            fh.close()
        while staged:
            _, tmp, target = staged[0]
            os.replace(tmp, target)
            staged.pop(0)
    except OSError as exc:
        if target is not None and exc.strerror:
            raise OSError(exc.errno, exc.strerror, target) from None
        raise
    finally:
        for fh, tmp, _ in staged:
            with contextlib.suppress(OSError):
                fh.close()
            with contextlib.suppress(OSError):
                os.unlink(tmp)
