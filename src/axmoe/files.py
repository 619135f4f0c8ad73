"""The one writer of every output file, and the one reader of the
package's `.npz` archives (checkpoints and `.npz` dataset splits).

Callers build an output's bytes in memory and hand them to `replace_file`,
which never opens an existing output for writing. It writes a sibling
temporary file, renames the old output aside, renames the temporary file
into its place and then removes the old output. So a reader sees the old
file, briefly no file, or the whole new one, never a half-written file, and
a hard link or symlink to the old output keeps the old file rather than
being written through. If the new file cannot be renamed in, the old one is
renamed back.

Truncating a file that holds recently written data makes ext4 (with its
default auto_da_alloc) flush that data before the truncate returns, and so
does renaming onto an existing file; on a rerun into the same output
directory that costs tens of milliseconds per file. No rename here lands on
an existing file. Nothing here calls fsync: every output can be regenerated
from its config.
"""

from __future__ import annotations

import contextlib
import errno
import io
import os
import warnings
from pathlib import Path

import numpy as np

from .errors import FormatError


def replace_file(path, data) -> None:
    """Make `path` a new file holding the bytes-like `data`. If any step
    before the new file is renamed in fails, the old output is left in
    place, the temporary file is removed and the error propagates. Removing
    the old output afterwards is best effort: if it fails, the write still
    succeeds and a hidden `.<name>.<pid>.old` copy stays beside it."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    aside = path.with_name(f".{path.name}.{os.getpid()}.old")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        if path.is_dir() and not path.is_symlink():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        try:
            os.rename(path, aside)
        except FileNotFoundError:
            aside = None
        try:
            os.rename(tmp, path)
        except BaseException:
            if aside is not None:
                os.rename(aside, path)
            raise
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    if aside is not None:
        # the new output is in place: a stale aside copy is not a failed write
        with contextlib.suppress(OSError):
            aside.unlink()


def read_npz(path) -> dict[str, np.ndarray]:
    """Every array of the `.npz` archive at `path`, read without pickle.
    Anything else at `path` raises FormatError; a file that cannot be opened
    or read stays an OSError."""
    data = Path(path).read_bytes()
    try:
        with warnings.catch_warnings():
            # numpy reads on past a deprecated dtype alias or a Python 2 header
            warnings.simplefilter("error")
            archive = np.load(io.BytesIO(data), allow_pickle=False)
            if isinstance(archive, np.lib.npyio.NpzFile):
                with archive:
                    arrays = {name: archive[name] for name in archive.files}
                # a zip member that is not an .npy file reads as raw bytes
                if all(isinstance(a, np.ndarray) for a in arrays.values()):
                    return arrays
    # only the parse of bytes already read runs here: any failure of zipfile
    # or numpy on them (there are many kinds) is the file not being an archive
    except Exception as exc:
        raise FormatError(f"{path}: {exc}") from exc
    raise FormatError(f"{path}: not an .npz archive of arrays")
