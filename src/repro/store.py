"""One verified on-disk store: the cache, checkpoints and registry use it.

A :class:`Store` owns a directory with one file per key, named by the
key: a header line, then the body::

    repro-store/<STORE_SCHEMA> <consumer schema> <key> sha256:<body digest>

A load rebuilds the header from the body it read and compares bytes, so
a torn write, a flipped bit, a file copied under another key and a file
of another consumer or store layout all fail one check.  Such a file
(or one whose body the consumer cannot decode) is deleted, counted in
``stats.corrupt`` and reported as a miss; a load never raises.  A put
renames a unique tmp file into place, so readers see the old file or
the new one; a failed put counts in ``stats.write_errors``, leaves no
tmp file and never raises.  A durable store also fsyncs the file before
the rename and the directory after it.  A non-durable store is bounded:
its first put in a process trims it to :data:`MAX_ENTRIES`.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

#: Bump when the header layout changes: every older file then fails
#: verification and is evicted on first read.
STORE_SCHEMA = 1

#: What :meth:`Store.get` returns on a miss (a decoded ``None`` is a hit).
MISS = object()

#: Most entries a non-durable store keeps.  Keys hash the source code,
#: so every edit orphans the old entries; the first put of a process
#: deletes the oldest-modified ones down to this, at the cost of one
#: directory scan.
MAX_ENTRIES = 20_000


@dataclass
class StoreStats:
    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0
    write_errors: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)

    def __str__(self) -> str:
        return (
            f"{self.hits} hits, {self.misses} misses, "
            f"{self.stores} stores, {self.corrupt} corrupt, "
            f"{self.write_errors} write errors"
        )


class Store:
    """Verified files under ``root``, which the store owns (see :meth:`clear`).

    ``schema`` names the consumer and its body layout.  ``durable``
    decides whether :meth:`put` fsyncs: each consumer fixes it in code.
    """

    def __init__(self, root, *, schema: str, durable: bool):
        self.root = Path(root)
        self.schema = schema
        self.durable = durable
        self.stats = StoreStats()
        #: Whether a put still has to trim a non-durable store.
        self._untrimmed = not durable

    def path(self, key: str) -> Path:
        return self.root / key

    def _header(self, key: str, body: bytes) -> bytes:
        digest = hashlib.sha256(body).hexdigest()
        head = f"repro-store/{STORE_SCHEMA} {self.schema} {key} sha256:"
        return (head + digest).encode()

    def get(self, key: str, decode: Callable[[bytes], object] = bytes):
        """``decode(body)`` of a verified entry, or :data:`MISS`."""
        try:
            data = self.path(key).read_bytes()
        except OSError:  # absent entry or unreachable root: a plain miss
            self.stats.misses += 1
            return MISS
        header, _, body = data.partition(b"\n")
        try:
            if header != self._header(key, body):
                raise ValueError(f"{key} does not verify")
            value = decode(body)
        except Exception:  # whatever is wrong with the file, it goes
            self.stats.corrupt += 1
            self.stats.misses += 1
            self.delete(key)
            return MISS
        self.stats.hits += 1
        return value

    def put(self, key: str, body: bytes) -> bool:
        """Install ``body`` under ``key``; ``False`` if the write failed."""
        if self._untrimmed:
            self._untrimmed = False
            self.trim(MAX_ENTRIES)
        # A unique name, created with the umask's permissions (a
        # registry may be published by one user and served by another).
        name = self.root / f".{key}.{os.urandom(6).hex()}.tmp"
        tmp = None
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            with open(name, "xb") as f:
                tmp = name
                f.write(self._header(key, body) + b"\n" + body)
                if self.durable:
                    f.flush()
                    os.fsync(f.fileno())
            os.replace(tmp, self.path(key))
            tmp = None
            if self.durable:
                _fsync_dir(self.root)
        except OSError:
            self.stats.write_errors += 1
            return False
        finally:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
        self.stats.stores += 1
        return True

    def delete(self, key: str) -> None:
        try:
            self.path(key).unlink()
        except OSError:
            pass

    def keys(self) -> list[str]:
        """Every entry's key (tmp files start with a dot)."""
        try:
            with os.scandir(self.root) as it:
                return [
                    e.name
                    for e in it
                    if e.is_file() and not e.name.startswith(".")
                ]
        except OSError:
            return []

    def trim(self, limit: int) -> None:
        """Delete the oldest-modified entries beyond ``limit``."""
        keys = self.keys()
        if len(keys) <= limit:
            return
        entries = []
        for key in keys:
            try:
                entries.append((self.path(key).stat().st_mtime_ns, key))
            except OSError:  # deleted under us
                pass
        entries.sort()
        for _, key in entries[: max(0, len(entries) - limit)]:
            self.delete(key)

    def clear(self) -> int:
        """Delete the root with everything in it; returns how many entries
        went.  Tmp files a killed writer left behind go too."""
        removed = len(self.keys())
        shutil.rmtree(self.root, ignore_errors=True)
        return removed


def _fsync_dir(path: Path) -> None:
    """Flush a directory entry so a rename survives power loss, where the
    platform can fsync a directory at all."""
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    except OSError:
        pass
