"""Content-addressed on-disk result cache, hardened against torn writes.

One JSON file per case, at ``<root>/<key[:2]>/<key>.json`` (the git
object-store layout keeps directories small).  Writes are atomic
(temp file + rename), so concurrent workers and concurrent runner
invocations can share one cache directory safely.

Every entry is **versioned and self-describing**: it carries the cache
schema version, its own key, and the full case parameters.  On read,
three bad outcomes are distinguished and counted separately:

* **miss** — no file: the case was never computed;
* **corrupt** — the file exists but does not parse, fails its own key
  check, or lacks required fields (a torn write, bit rot, or a renamed
  file).  Corrupt entries are **quarantined** — moved aside to
  ``<root>/quarantine/`` rather than silently rewritten — so a fault
  that mangles the store leaves forensic evidence instead of vanishing;
* **stale** — a well-formed entry written under a different schema
  version; orphaned, never replayed.

All three return ``None`` to the caller (the case re-runs), but the
``hits / misses / corrupt / stale`` counters and the quarantine
directory tell an operator exactly what happened.

The key (``Case.key``, computed once when the case is built; see
:func:`repro.exec.cases.case_key`) hashes the experiment name and the
full parameter set, so any parameter change — scale, RTT, thresholds —
lands in a fresh slot and never aliases an old result.

``REPRO_CACHE_DIR`` (the default cache location) is the only ``REPRO_*``
variable the codebase reads, and this module is the only place allowed
to read one (rule ``KRN001`` in :mod:`repro.lint`).  Importing it warns
once about every other ``REPRO_*`` name in the environment — a misspelt
name, or a switch a later commit deleted, would otherwise be ignored
without a word.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import warnings
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Union

from repro.exec.cases import CACHE_SCHEMA_VERSION, Case

__all__ = ["ResultCache", "default_cache_dir"]


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``.repro-cache`` in the cwd."""
    env = os.environ.get("REPRO_CACHE_DIR")
    return Path(env) if env else Path(".repro-cache")


def _warn_unregistered() -> None:
    """One RuntimeWarning naming every unknown ``REPRO_*`` variable.

    A warning, not an error: ledger children and executor workers
    inherit whatever environment their parent had.
    """
    unknown = sorted(
        name
        for name in os.environ
        if name.startswith("REPRO_") and name != "REPRO_CACHE_DIR"
    )
    if unknown:
        warnings.warn(
            "ignoring unregistered environment variable(s) "
            f"{', '.join(unknown)}: no such REPRO_* switch; the "
            "registered ones are REPRO_CACHE_DIR",
            RuntimeWarning,
            stacklevel=2,
        )


_warn_unregistered()


class _Corrupt(Exception):
    """Internal: entry exists but cannot be trusted."""


class ResultCache:
    """Maps a :class:`Case` to its stored result dict, or a miss."""

    QUARANTINE_DIR = "quarantine"

    def __init__(self, root: Optional[Path] = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.stale = 0

    # -- paths ---------------------------------------------------------

    def _path(self, key: str) -> Path:
        """Where ``key``'s entry lives; ``get`` and ``put`` spell the same
        layout with ``os.path.join``, which costs a hit no ``Path``."""
        return self.root / key[:2] / f"{key}.json"

    @property
    def quarantine_root(self) -> Path:
        return self.root / self.QUARANTINE_DIR

    def _entries(self) -> Iterator[Path]:
        """Every entry file currently in the store (quarantine excluded)."""
        if not self.root.is_dir():
            return
        for shard in sorted(self.root.iterdir()):
            # Entry shards are the two-hex-char fan-out dirs; skip
            # quarantine/, a manifests/ directory an older version left,
            # and anything else living here.
            if not shard.is_dir() or len(shard.name) != 2:
                continue
            yield from sorted(shard.glob("*.json"))

    # -- read / write --------------------------------------------------

    @staticmethod
    def _load_entry(path: Union[str, Path], expected_key: str) -> Dict[str, Any]:
        """Parse and validate one entry; :class:`_Corrupt` on any damage.

        ``OSError`` propagates: a concurrent runner's quarantine / gc /
        unlink can win the race between listing a path and opening it,
        and every caller treats that as "entry vanished" (a miss or a
        skip), never as corruption.
        """
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except ValueError as exc:
            raise _Corrupt(f"unparseable JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise _Corrupt(f"entry is {type(payload).__name__}, not object")
        if "schema" not in payload:
            # Pre-hardening entries carry no version stamp; orphan them
            # as stale rather than quarantining a once-valid format.
            return payload
        if payload.get("key") != expected_key:
            raise _Corrupt(
                f"key mismatch: file says {payload.get('key')!r}"
            )
        if "result" not in payload or not isinstance(payload["result"], dict):
            raise _Corrupt("missing or non-dict 'result' field")
        return payload

    def get(self, case: Case) -> Optional[Dict[str, Any]]:
        """The cached result for ``case``, or None (counts the outcome).

        One ``open`` per lookup, no ``stat`` first: an absent entry is a
        ``FileNotFoundError`` from the open itself, so a hit pays for no
        existence check and a file that a concurrent quarantine / gc
        removes between any two steps is an ordinary miss.
        """
        key = case.key
        path = os.path.join(self.root, key[:2], key + ".json")
        try:
            payload = self._load_entry(path, key)
        except _Corrupt:
            self.quarantine(Path(path))
            self.corrupt += 1
            return None
        except OSError:
            # No entry (or a directory, or an unreadable file, in its
            # place): the case re-runs.
            self.misses += 1
            return None
        if payload.get("schema") != CACHE_SCHEMA_VERSION:
            self.stale += 1
            return None
        self.hits += 1
        return payload["result"]

    def put(self, case: Case, result: Dict[str, Any]) -> None:
        """Store ``result`` atomically under the case's key.

        The shard directory is made only when the temp file cannot be
        created for want of it: one ``mkdir`` per new shard, not per put.
        """
        key = case.key
        shard = os.path.join(self.root, key[:2])
        name = key + ".json"
        payload = json.dumps(
            {
                "schema": CACHE_SCHEMA_VERSION,
                "key": key,
                "experiment": case.experiment,
                "label": case.label,
                "params": case.params,
                "result": result,
            },
            sort_keys=True,
        )
        try:
            fd, tmp = tempfile.mkstemp(dir=shard, prefix=name, suffix=".tmp")
        except FileNotFoundError:
            os.makedirs(shard, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=shard, prefix=name, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(payload)
            os.replace(tmp, os.path.join(shard, name))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- maintenance ---------------------------------------------------

    def quarantine(self, path: Path) -> Optional[Path]:
        """Move a damaged entry aside; returns its new home (or None)."""
        try:
            self.quarantine_root.mkdir(parents=True, exist_ok=True)
        except OSError:
            return None
        dest = self.quarantine_root / path.name
        n = 0
        while dest.exists():
            n += 1
            dest = self.quarantine_root / f"{path.name}.{n}"
        try:
            os.replace(path, dest)
        except OSError:
            return None
        return dest

    def verify(self) -> Dict[str, int]:
        """Scan the whole store, quarantining every damaged entry.

        Returns counters: ``checked``, ``ok``, ``corrupt`` (moved to
        quarantine), and ``stale`` (left in place; a schema bump will
        never read them again, and ``gc`` can reap them).
        """
        checked = ok = corrupt = stale = 0
        for path in list(self._entries()):
            try:
                payload = self._load_entry(path, path.stem)
            except _Corrupt:
                checked += 1
                self.quarantine(path)
                corrupt += 1
                continue
            except OSError:
                # Vanished under a concurrent runner; nothing to check.
                continue
            checked += 1
            if payload.get("schema") != CACHE_SCHEMA_VERSION:
                stale += 1
            else:
                ok += 1
        self.corrupt += corrupt
        return {
            "checked": checked, "ok": ok, "corrupt": corrupt, "stale": stale
        }

    def gc(
        self,
        max_age_days: Optional[float] = None,
        purge_quarantine: bool = True,
    ) -> Dict[str, int]:
        """Reap quarantined files, stale-schema entries, and old entries.

        ``max_age_days`` additionally removes valid entries whose mtime
        is older than the horizon (None keeps every valid entry).
        """
        removed_entries = removed_quarantine = 0
        horizon = (
            time.time() - max_age_days * 86400.0
            if max_age_days is not None
            else None
        )
        for path in list(self._entries()):
            reap = False
            try:
                payload = self._load_entry(path, path.stem)
                if payload.get("schema") != CACHE_SCHEMA_VERSION:
                    reap = True
            except _Corrupt:
                reap = True
            except OSError:
                continue  # already gone; nothing to reap
            if not reap and horizon is not None:
                try:
                    reap = path.stat().st_mtime < horizon
                except OSError:
                    continue
            if reap:
                try:
                    path.unlink()
                    removed_entries += 1
                except OSError:
                    pass
        if purge_quarantine and self.quarantine_root.is_dir():
            for path in sorted(self.quarantine_root.iterdir()):
                try:
                    path.unlink()
                    removed_quarantine += 1
                except OSError:
                    pass
        return {
            "removed_entries": removed_entries,
            "removed_quarantine": removed_quarantine,
        }

    def stats(self) -> Dict[str, Any]:
        """On-disk shape of the store: entry count, bytes, experiments."""
        entries = 0
        total_bytes = 0
        experiments: Dict[str, int] = {}
        for path in self._entries():
            # Counted only once read: an entry a concurrent gc removes
            # midway is in none of the three tallies, not some of them.
            try:
                size = path.stat().st_size
                payload = self._load_entry(path, path.stem)
                name = str(payload.get("experiment", "<unknown>"))
            except _Corrupt:
                name = "<corrupt>"
            except OSError:
                continue  # vanished under a concurrent runner
            entries += 1
            total_bytes += size
            experiments[name] = experiments.get(name, 0) + 1
        quarantined = (
            sum(1 for _ in self.quarantine_root.iterdir())
            if self.quarantine_root.is_dir()
            else 0
        )
        return {
            "root": str(self.root),
            "entries": entries,
            "bytes": total_bytes,
            "quarantined": quarantined,
            "experiments": dict(sorted(experiments.items())),
        }

    def __repr__(self) -> str:
        return (
            f"ResultCache({self.root}, hits={self.hits}, "
            f"misses={self.misses}, corrupt={self.corrupt}, "
            f"stale={self.stale})"
        )
