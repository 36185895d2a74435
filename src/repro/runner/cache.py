"""On-disk result cache for grid cells.

One JSON file per cell under ``.repro_cache/`` (override with the
``REPRO_CACHE_DIR`` env var; disable with ``REPRO_CACHE=0``).  The file
name is a digest of the task's content hash *and* a fingerprint of the
``repro`` package sources, so any code change — not just a task change —
invalidates stale results automatically.  Entries are written atomically
(temp file + rename); a corrupt or unreadable entry reads as a miss.
"""

import hashlib
import json
import os
import tempfile

DEFAULT_CACHE_DIR = ".repro_cache"

_FINGERPRINT = None


def code_fingerprint():
    """Digest of every ``.py`` file in the repro package (cached per process)."""
    global _FINGERPRINT
    if _FINGERPRINT is None:
        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
        digest = hashlib.sha256()
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode("utf-8"))
                with open(path, "rb") as handle:
                    digest.update(handle.read())
        _FINGERPRINT = digest.hexdigest()
    return _FINGERPRINT


def cache_enabled_by_env():
    return os.environ.get("REPRO_CACHE", "1").lower() not in (
        "0", "false", "no", "off")


class ResultCache:
    """Maps :class:`repro.runner.task.CellTask` to cached result payloads."""

    def __init__(self, directory=None, enabled=None, fingerprint=None):
        if directory is None:
            directory = os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
        if enabled is None:
            enabled = cache_enabled_by_env()
        self.directory = directory
        self.enabled = enabled
        self._fingerprint = fingerprint

    @property
    def fingerprint(self):
        if self._fingerprint is None:
            self._fingerprint = code_fingerprint()
        return self._fingerprint

    def key(self, task):
        blob = "%s:%s" % (self.fingerprint, task.content_hash())
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def path(self, task):
        return os.path.join(self.directory, self.key(task) + ".json")

    def get(self, task):
        """Return the cached payload for ``task``, or None on a miss."""
        if not self.enabled:
            return None
        try:
            with open(self.path(task), "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(entry, dict):
            return None
        return entry.get("result")

    def put(self, task, payload):
        """Store ``payload`` (a JSON-ready dict) for ``task``."""
        if not self.enabled:
            return
        os.makedirs(self.directory, exist_ok=True)
        entry = {"task": task.describe(), "result": payload}
        handle = tempfile.NamedTemporaryFile(
            "w", encoding="utf-8", dir=self.directory,
            suffix=".tmp", delete=False)
        try:
            with handle:
                json.dump(entry, handle)
            os.replace(handle.name, self.path(task))
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
