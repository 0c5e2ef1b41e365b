"""One basis cache per process: an in-memory map with an optional disk mirror.

Keys combine the ring descriptor, a hash of the generating data, and the
order descriptor.  Verification suites recompute the same bases heavily,
so hits matter.  Memory holds parsed basis objects, so a hit costs a dict
lookup; the disk mirror (text JSON, one file per basis) makes them survive
across runs.  A disk entry is parsed once, on its first lookup; an
unreadable one, or one written for another ring or order, counts as a
miss.  All access goes through one lock, and each write renames a
temporary file of its own, so processes can share a directory.
"""

from __future__ import annotations

import json
import os
import threading

# The builtin sha256 module spares loading OpenSSL's libcrypto through
# hashlib, about 3.7 MB of resident memory; the digests are the same.
try:
    from _sha256 import sha256          # Python <= 3.11
except ImportError:
    try:
        from _sha2 import sha256        # Python >= 3.12
    except ImportError:
        from hashlib import sha256

_ENV_VAR = "TROPCM_CACHE"


def digest(*parts) -> str:
    h = sha256()
    for p in parts:
        h.update(p.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


class GBCache:
    """Basis objects by key; each object's ``strings()`` is its disk text."""

    def __init__(self, directory=None):
        self.directory = directory
        self._mem = {}
        self._lock = threading.Lock()

    def _path(self, key):
        return os.path.join(self.directory, key + ".json")

    def get(self, key, load, meta):
        """The basis cached under ``key``, or None.

        A disk entry becomes a basis through ``load(strings)`` and is then
        kept in memory.  An entry that cannot be read, lacks a list of
        strings under ``basis``, lacks or differs from any field of
        ``meta`` (the fields ``put`` writes beside the basis), or that
        ``load`` rejects with a ``ValueError`` is a miss; the caller's next
        ``put`` overwrites it.
        """
        with self._lock:
            hit = self._mem.get(key)
            if hit is not None or not self.directory:
                return hit
            path = self._path(key)
            if not os.path.exists(path):
                return None
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    entry = json.load(fh)
                strings = entry["basis"]
                if not (isinstance(strings, list)
                        and all(isinstance(s, str) for s in strings)
                        and all(entry.get(k) == v for k, v in meta.items())):
                    return None
                basis = load(strings)
            except (OSError, ValueError, KeyError, TypeError):
                return None
            self._mem[key] = basis
            return basis

    def put(self, key, basis, meta):
        with self._lock:
            self._mem[key] = basis
            if self.directory:
                os.makedirs(self.directory, exist_ok=True)
                payload = {"basis": basis.strings(), **meta}
                # unique to this process and cache; the lock serialises threads
                tmp = f"{self._path(key)}.{os.getpid()}.{id(self)}.tmp"
                with open(tmp, "w", encoding="utf-8") as fh:
                    json.dump(payload, fh, indent=1, sort_keys=True)
                os.replace(tmp, self._path(key))


_default = GBCache(directory=os.environ.get(_ENV_VAR) or None)


def default_cache() -> GBCache:
    return _default


def set_cache_directory(directory):
    """Point the shared cache at ``directory`` (None disables persistence)."""
    _default.directory = directory
