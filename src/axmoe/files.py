"""The one writer of every output file.

Callers build an output's bytes in memory and hand them to `replace_file`,
which never opens an existing output for writing. It writes a sibling
temporary file, unlinks the old output and renames the temporary file into
its place. So a reader sees the old file, briefly no file, or the whole new
one, never a half-written file, and a hard link or symlink to the old output
keeps the old file rather than being written through.

Truncating a file that holds recently written data makes ext4 (with its
default auto_da_alloc) flush that data before the truncate returns, and so
does renaming onto an existing file; on a rerun into the same output
directory that costs tens of milliseconds per file. Nothing here calls
fsync: every output can be regenerated from its config.
"""

from __future__ import annotations

import os
from pathlib import Path


def replace_file(path, data) -> None:
    """Make `path` a new file holding the bytes-like `data`. If any step
    fails, the temporary file is removed and the error propagates."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        # unlink first: a rename onto an existing file pays the same flush
        path.unlink(missing_ok=True)
        os.rename(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
