"""Content-addressed artifact store for trained evaluation state.

Threshold training is the expensive part of every sweep: collecting benign
samples means deploying networks and running the localization scheme over
hundreds of observations.  The trained state, however, is a pure function
of the *training-relevant* configuration (deployment geometry, sample
sizes, localizer, seed) — so repeated and resumed sweeps can skip the
training pass entirely by persisting it once.

:class:`ArtifactStore` is a small content-addressed cache over ``.npz``
files.  Keys are SHA-256 hashes of a canonical JSON rendering of the
fingerprint dictionary describing how an artifact was produced; values are
named numpy arrays.  :class:`~repro.experiments.session.LadSession` wires
it into its benign-score, victim-sample and per-point attacked-score
caches, the sweep and temporal runners keep their per-point records in it
(a record's presence is also its point's only progress mark), and the CLI
exposes it as ``--cache-dir``.

On disk the layout is one directory per category::

    <root>/benign_scores/<key>.npz     trained benign metric scores
    <root>/victims/<key>.npz           victims' honest observations
    <root>/attacked_scores/<key>.npz   attacked scores of one sweep point
    <root>/temporal/<key>.npz          per-epoch record of one temporal point

Keys change whenever any fingerprinted input changes (deployment geometry,
seed, sample sizes, component implementations, attack parameters), so
stale artifacts are never served — they are simply left unreferenced.

The store counts hits and misses (overall and per category) so tests and
operators can assert that a warm cache actually skipped the training pass.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import zipfile
from collections import Counter
from pathlib import Path
from typing import Dict, Mapping, Optional

import numpy as np

__all__ = ["ArtifactStore", "fingerprint_key"]


def _canonical_json(payload) -> str:
    """Deterministic JSON rendering used for content addressing.

    Keys are sorted and floats go through ``repr`` (via Python's ``json``),
    so two fingerprints with equal values always hash identically.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def fingerprint_key(payload: Mapping) -> str:
    """SHA-256 content key of a fingerprint dictionary."""
    return hashlib.sha256(_canonical_json(payload).encode("utf-8")).hexdigest()


class ArtifactStore:
    """A content-addressed ``.npz`` cache with hit/miss counters.

    Parameters
    ----------
    root:
        Directory holding the cached artifacts (created on first write).

    Examples
    --------
    >>> store = ArtifactStore(tmp_path)
    >>> key = fingerprint_key({"seed": 7, "group_size": 300})
    >>> store.load("benign_scores", key) is None
    True
    >>> store.save("benign_scores", key, scores=np.arange(3.0))
    >>> store.load("benign_scores", key)["scores"]
    array([0., 1., 2.])
    >>> store.hits, store.misses
    (1, 1)
    """

    def __init__(self, root):
        self._root = Path(root)
        self.hits = 0
        self.misses = 0
        self.hit_counts: Counter = Counter()
        self.miss_counts: Counter = Counter()

    @property
    def root(self) -> Path:
        """The cache directory."""
        return self._root

    def path_for(self, category: str, key: str) -> Path:
        """Filesystem path of the artifact for ``(category, key)``."""
        return self._root / category / f"{key}.npz"

    def contains(self, category: str, key: str) -> bool:
        """Whether an artifact exists (does not touch the counters)."""
        return self.path_for(category, key).is_file()

    def probe(self, category: str, key: str) -> bool:
        """Existence check that counts an absent artifact as a miss.

        The streaming sweep partitions warm/cold points with this before
        fanning out, then :meth:`load`\\ s each warm artifact only at yield
        time (that read counts the hit).  A present artifact is therefore
        not counted here — only the definitive miss is, exactly once per
        artifact the caller will have to compute and publish.
        """
        if self.contains(category, key):
            return True
        self.misses += 1
        self.miss_counts[category] += 1
        return False

    def load(self, category: str, key: str) -> Optional[Dict[str, np.ndarray]]:
        """The stored arrays for ``(category, key)``, or ``None`` on a miss.

        A hit bumps ``hits`` (and ``hit_counts[category]``); a miss —
        including an unreadable or corrupt file — bumps ``misses``.

        A file that exists but cannot be read (truncated by a crashed
        non-atomic writer, bit rot, ...) is *quarantined*: it is renamed to
        ``<key>.npz.corrupt`` so the artifact path is free again and a
        subsequent :meth:`save` of the same key can never race this
        reader's half-open handle against its own atomic rename.
        """
        path = self.path_for(category, key)
        try:
            with np.load(path) as archive:
                arrays = {name: archive[name] for name in archive.files}
        except FileNotFoundError:
            self.misses += 1
            self.miss_counts[category] += 1
            return None
        except (OSError, ValueError, EOFError, zipfile.BadZipFile):
            self.misses += 1
            self.miss_counts[category] += 1
            self._quarantine(path)
            return None
        self.hits += 1
        self.hit_counts[category] += 1
        return arrays

    def load_required(self, category: str, key: str) -> Dict[str, np.ndarray]:
        """Like :meth:`load`, but a miss raises instead of returning ``None``.

        Used by warm-start paths (a :class:`~repro.serving.DetectionService`
        booting with ``require_warm=True``) that must *never* fall back to
        recomputation: the raised ``KeyError`` names the missing artifact so
        the operator can run the training pass once, explicitly, instead of
        discovering an accidental cold start from its latency.
        """
        arrays = self.load(category, key)
        if arrays is None:
            raise KeyError(
                f"artifact {category}/{key} is not in the store at "
                f"{self._root} (cold store: run the training pass once to "
                "publish it)"
            )
        return arrays

    @staticmethod
    def _quarantine(path: Path) -> None:
        """Move a corrupt artifact aside (best effort, atomic rename)."""
        try:
            os.replace(path, path.with_name(path.name + ".corrupt"))
        except OSError:  # pragma: no cover - already gone or unwritable dir
            pass

    def save(self, category: str, key: str, **arrays: np.ndarray) -> Path:
        """Persist named *arrays* under ``(category, key)``.

        The write is atomic (tempfile + rename) so a crashed or concurrent
        writer can never leave a truncated artifact behind; concurrent
        writers of the same key simply race to publish identical content.
        """
        if not arrays:
            raise ValueError("refusing to store an empty artifact")
        path = self.path_for(category, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:12]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez(handle, **arrays)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except FileNotFoundError:
                pass
            raise
        return path

    def stats(self) -> Dict[str, int]:
        """Counter snapshot (``hits``, ``misses``)."""
        return {"hits": self.hits, "misses": self.misses}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ArtifactStore({str(self._root)!r}, hits={self.hits}, "
            f"misses={self.misses})"
        )
