"""Advisory sweep manifests: cheap progress accounting for fleet sweeps.

A sweep over a point grid publishes one ``attacked_scores/<key>.npz`` per
point (a temporal sweep one ``temporal/<key>.npz``).  Answering "how far
along is this sweep?" from the ``.npz`` files alone means re-deriving every
per-point fingerprint and stat-ing every artifact — fine for one host,
wasteful for an operator polling a shared cache that several shards are
filling.  The manifest is a single small JSON artifact per (session,
category, grid) recording the ordered point keys and a per-point status,
so ``lad-repro sweep --status`` reads one file per category.

Manifests are **advisory**: the ``.npz`` artifacts stay the source of
truth.  A manifest can be stale in either direction — an artifact deleted
behind its back (phantom "done") or published by another shard it has not
seen yet — and :meth:`SweepManifest.reconcile` heals both by re-checking
the store.  Every consumer (``--status``, resume, the finishing-shard
completeness check) treats the manifest as a hint and the store as the
verdict, so a wrong manifest can never skip real work or fabricate results.
Manifest I/O never touches the store's hit/miss counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from repro.experiments.store import ArtifactStore, fingerprint_key

__all__ = [
    "MANIFEST_CATEGORY",
    "MANIFEST_VERSION",
    "SweepManifest",
    "SweepProgress",
    "manifest_key",
]

#: Store category holding the manifest sidecars.
MANIFEST_CATEGORY = "manifest"

#: Manifest payload schema version.
MANIFEST_VERSION = 1

_DONE = "done"
_PENDING = "pending"


def manifest_key(point_keys: Sequence[str]) -> str:
    """Content key of the manifest covering *point_keys* (order-sensitive).

    The key is derived from the ordered per-point artifact keys, which
    already fingerprint everything that identifies a point (deployment
    geometry, seed, metric/attack implementations, attack parameters,
    localizer, backend).  Two sessions sweeping the same grid therefore
    agree on the manifest key without any extra spec plumbing, and any
    change to the grid or its inputs moves the manifest aside along with
    the artifacts it describes.
    """
    return fingerprint_key(
        {
            "category": MANIFEST_CATEGORY,
            "version": MANIFEST_VERSION,
            "points": list(point_keys),
        }
    )


@dataclass(frozen=True)
class SweepProgress:
    """Progress snapshot of one sweep grid, as reported by the manifest."""

    total: int
    done: int
    healed: int
    key: str

    @property
    def remaining(self) -> int:
        """Points still to compute."""
        return self.total - self.done


class SweepManifest:
    """Ordered per-point statuses of one sweep grid.

    Entries are flat dictionaries carrying the point coordinates (metric,
    attack, degree of damage, compromised fraction), the point's artifact
    key and its status (``"pending"`` or ``"done"``).  The entry order is
    the grid order, so a manifest doubles as a human-readable record of
    what a sweep covers.
    """

    def __init__(self, entries: Iterable[dict]):
        self._entries: List[dict] = [dict(entry) for entry in entries]
        self._by_key = {entry["key"]: entry for entry in self._entries}
        if len(self._by_key) != len(self._entries):
            raise ValueError("manifest entries must have unique point keys")

    # -- constructors ------------------------------------------------------

    @classmethod
    def for_points(cls, points, keys: Sequence[str], done=()) -> "SweepManifest":
        """Build a manifest for *points* with artifact *keys* (grid order).

        *done* is an iterable of keys already present in the store.
        """
        points = list(points)
        if len(points) != len(keys):
            raise ValueError("need exactly one artifact key per sweep point")
        done_keys = set(done)
        entries = []
        for point, key in zip(points, keys):
            entries.append(
                {
                    "metric": point.metric,
                    "attack": point.attack,
                    "degree_of_damage": point.degree_of_damage,
                    "compromised_fraction": point.compromised_fraction,
                    "key": key,
                    "status": _DONE if key in done_keys else _PENDING,
                }
            )
        return cls(entries)

    @classmethod
    def from_payload(cls, payload: dict) -> Optional["SweepManifest"]:
        """Parse a stored payload; ``None`` when the shape is unusable."""
        if not isinstance(payload, dict):
            return None
        if payload.get("version") != MANIFEST_VERSION:
            return None
        entries = payload.get("points")
        if not isinstance(entries, list):
            return None
        try:
            return cls(entries)
        except (KeyError, TypeError, ValueError):
            return None

    @classmethod
    def load(cls, store: ArtifactStore, key: str) -> Optional["SweepManifest"]:
        """Load the manifest stored under *key*, or ``None``."""
        payload = store.load_json(MANIFEST_CATEGORY, key)
        if payload is None:
            return None
        return cls.from_payload(payload)

    # -- accessors ---------------------------------------------------------

    @property
    def key(self) -> str:
        """Content key this manifest is stored under."""
        return manifest_key([entry["key"] for entry in self._entries])

    @property
    def entries(self) -> List[dict]:
        """Entry snapshots in grid order."""
        return [dict(entry) for entry in self._entries]

    @property
    def total(self) -> int:
        """Number of points covered."""
        return len(self._entries)

    @property
    def done_count(self) -> int:
        """Number of points marked done."""
        return sum(1 for entry in self._entries if entry["status"] == _DONE)

    def status(self, key: str) -> Optional[str]:
        """Status of the point stored under *key* (``None`` if not covered)."""
        entry = self._by_key.get(key)
        return None if entry is None else entry["status"]

    def as_payload(self) -> dict:
        """JSON-serialisable payload."""
        return {
            "version": MANIFEST_VERSION,
            "key": self.key,
            "points": self.entries,
        }

    # -- mutation ----------------------------------------------------------

    def mark_done(self, key: str) -> None:
        """Mark the point stored under *key* as done."""
        entry = self._by_key.get(key)
        if entry is not None:
            entry["status"] = _DONE

    def absorb_done(self, other: "SweepManifest") -> None:
        """Merge done statuses from *other* (done wins, pending never undoes).

        Concurrent shards each publish their own completions; merging before
        every save makes the shared manifest converge to the union of what
        everyone finished, regardless of write interleaving.
        """
        for entry in self._entries:
            if other._by_key.get(entry["key"], {}).get("status") == _DONE:
                entry["status"] = _DONE

    def reconcile(self, store: ArtifactStore, category: str) -> int:
        """Re-derive every status from the store; heal phantom "done"s.

        Sets each entry's status from ``store.contains`` — the artifacts
        are the source of truth.  Returns the number of entries that
        *claimed* done but whose artifact is gone (the dangerous direction:
        a phantom done would under-report remaining work); entries that
        were pending but turn out to exist are silently promoted (manifest
        lag, harmless).
        """
        healed = 0
        for entry in self._entries:
            present = store.contains(category, entry["key"])
            if entry["status"] == _DONE and not present:
                healed += 1
            entry["status"] = _DONE if present else _PENDING
        return healed

    # -- persistence -------------------------------------------------------

    def save(self, store: ArtifactStore) -> None:
        """Publish this manifest (atomic whole-document write)."""
        store.save_json(MANIFEST_CATEGORY, self.key, self.as_payload())

    def publish(self, store: ArtifactStore) -> None:
        """Save, but skip the write when the stored copy is already equal."""
        existing = store.load_json(MANIFEST_CATEGORY, self.key)
        if existing != self.as_payload():
            self.save(store)

    def record_done(self, store: ArtifactStore, key: str) -> None:
        """Mark *key* done and publish, merging concurrent completions.

        Read-merge-write: absorb any done statuses another shard published
        since our last look, then write the merged document atomically.
        """
        self.mark_done(key)
        disk = type(self).load(store, self.key)
        if disk is not None:
            self.absorb_done(disk)
        self.save(store)
