"""Cross-process file locking for the shared on-disk stores.

The result cache (:mod:`repro.sweep.cache`) and the history ledger
(:mod:`repro.observatory.history`) are written concurrently by sweep
worker processes, the experiment server's worker pool, and any number
of CLI clients pointed at the same ``.repro_cache/`` root.  Writers
serialize through an advisory ``fcntl`` lock on a dedicated ``.lock``
sidecar file; readers never lock — every write is
temp-file-then-``os.replace``, so a reader always sees either the old
bytes or the new bytes, never a torn file (the "lock-free read path").

The lock is *best-effort by contract*, matching the storage layers it
protects: a filesystem that cannot lock (no ``fcntl`` on the platform,
a read-only directory, an NFS mount refusing ``flock``) degrades to
unlocked writes — exactly the pre-lock behaviour — rather than
failing the run.  :attr:`FileLock.acquired` reports whether the lock
is actually held, so callers that *need* mutual exclusion (the ledger
rotation) can fall back defensively.

The lock file lives *next to* the protected path rather than being the
path itself: rotation and compaction ``os.replace`` the protected file
away, which would silently detach any lock held on its inode.
"""

from __future__ import annotations

import os
from pathlib import Path
from types import TracebackType
from typing import Optional, Type, Union

try:  # pragma: no cover - exercised only on platforms without fcntl
    import fcntl
except ImportError:  # Windows: advisory locking degrades to a no-op
    fcntl = None  # type: ignore[assignment]

#: suffix appended to the protected path to name its lock sidecar.
LOCK_SUFFIX = ".lock"


def lock_path_for(path: Union[str, Path]) -> Path:
    """The lock-sidecar path protecting ``path``."""
    path = Path(path)
    return path.with_name(path.name + LOCK_SUFFIX)


class FileLock:
    """Advisory exclusive lock on a sidecar file (``with`` style).

    Blocking acquire; reentrant use is not supported (each writer
    creates its own instance).  Every failure to lock is swallowed:
    the protected write proceeds unlocked, as it did before locking
    existed.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._fh = None
        self.acquired = False

    def acquire(self) -> bool:
        """Take the lock; returns whether it is actually held."""
        if fcntl is None or self._fh is not None:
            return self.acquired
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fh = open(self.path, "a+b")
        except OSError:
            return False
        try:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        except OSError:
            try:
                fh.close()
            except OSError:
                pass
            return False
        self._fh = fh
        self.acquired = True
        return True

    def release(self) -> None:
        if self._fh is None:
            return
        try:
            if fcntl is not None:
                fcntl.flock(self._fh.fileno(), fcntl.LOCK_UN)
        except OSError:
            pass
        try:
            self._fh.close()
        except OSError:
            pass
        self._fh = None
        self.acquired = False

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.release()


def atomic_write_bytes(path: Path, blob: bytes) -> None:
    """Write ``blob`` to ``path`` via temp-file-then-rename.

    The write is crash-atomic: a killed process leaves either the old
    file or an orphan ``*.tmp`` (cleaned by compaction), never a
    truncated ``path``.  Raises ``OSError`` on failure — callers own
    the swallow-and-account policy.
    """
    import tempfile

    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
