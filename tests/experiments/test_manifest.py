"""Tests for :mod:`repro.experiments.manifest`.

The manifest is advisory — the ``.npz`` artifacts stay the source of
truth — so these tests pin the two directions it can go stale (phantom
"done" after an artifact is deleted behind its back, lagging "pending"
after another shard publishes) and the invariant that manifest I/O never
touches the store's hit/miss counters.
"""

import json

import numpy as np
import pytest

from repro.events import EventSpec, TimelineSpec
from repro.experiments.config import SimulationConfig
from repro.experiments.manifest import (
    MANIFEST_CATEGORY,
    SweepManifest,
    manifest_key,
)
from repro.experiments.scenario import ScenarioSpec
from repro.experiments.store import ArtifactStore
from repro.experiments.sweep import SweepRunner


@pytest.fixture()
def tiny_spec():
    return ScenarioSpec(
        name="manifest",
        metrics=("diff", "add_all"),
        attacks=("dec_bounded",),
        degrees=(80.0, 160.0),
        fractions=(0.1,),
        false_positive_rate=0.05,
        config=SimulationConfig(
            group_size=40,
            num_training_samples=30,
            training_samples_per_network=15,
            num_victims=30,
            victims_per_network=15,
            gz_omega=300,
            seed=9090,
        ),
    )


class TestManifestDocument:
    def _grid_and_keys(self):
        grid = SweepRunner.grid(
            ["diff", "add_all"], ["dec_bounded"], [80.0, 160.0], [0.1]
        )
        keys = [f"key-{i}" for i in range(len(grid))]
        return grid, keys

    def test_payload_round_trip(self):
        grid, keys = self._grid_and_keys()
        manifest = SweepManifest.for_points(grid, keys, done=[keys[1]])
        rebuilt = SweepManifest.from_payload(manifest.as_payload())
        assert rebuilt is not None
        assert rebuilt.key == manifest.key == manifest_key(keys)
        assert rebuilt.entries == manifest.entries
        assert rebuilt.total == len(grid)
        assert rebuilt.done_count == 1
        assert rebuilt.status(keys[1]) == "done"
        assert rebuilt.status(keys[0]) == "pending"
        assert rebuilt.status("unknown") is None

    def test_key_is_order_sensitive_and_content_addressed(self):
        grid, keys = self._grid_and_keys()
        forward = SweepManifest.for_points(grid, keys)
        backward = SweepManifest.for_points(grid[::-1], keys[::-1])
        assert forward.key != backward.key
        # Status changes must not move the document: progress updates
        # rewrite the same artifact instead of littering new ones.
        done = SweepManifest.for_points(grid, keys, done=keys)
        assert done.key == forward.key

    def test_absorb_done_merges_without_undoing(self):
        grid, keys = self._grid_and_keys()
        ours = SweepManifest.for_points(grid, keys, done=[keys[0]])
        theirs = SweepManifest.for_points(grid, keys, done=[keys[2]])
        ours.absorb_done(theirs)
        assert ours.status(keys[0]) == "done"
        assert ours.status(keys[2]) == "done"
        assert ours.done_count == 2

    def test_unusable_payloads_parse_to_none(self):
        grid, keys = self._grid_and_keys()
        good = SweepManifest.for_points(grid, keys).as_payload()
        assert SweepManifest.from_payload("not a dict") is None
        assert SweepManifest.from_payload({**good, "version": 99}) is None
        assert SweepManifest.from_payload({**good, "points": "nope"}) is None
        duplicated = {**good, "points": good["points"] + good["points"][:1]}
        assert SweepManifest.from_payload(duplicated) is None


#: A small timeline for the temporal runner: the attack switches on mid-run.
_TIMELINE = TimelineSpec(
    epochs=3, events=(EventSpec(kind="attack", action="on", at=(1.0,)),)
)


def _runner(session, category):
    """The runner of *session* that writes the store category *category*."""
    if category == "attacked_scores":
        return session.sweep()
    return session.temporal(_TIMELINE)


def _results(runner, points):
    """Every point's result, streamed through the runner's cached grid."""
    if runner.category == "attacked_scores":
        return dict(runner.iter_attacked_scores(points))
    return dict(runner.iter_outcomes(points))


def _assert_same(resumed, original):
    """Scores compare bit for bit; outcomes through ``TemporalOutcome.__eq__``."""
    if isinstance(original, np.ndarray):
        np.testing.assert_array_equal(resumed, original)
    else:
        assert resumed == original


class TestSweepIntegration:
    def test_sweep_publishes_manifest(self, tiny_spec, tmp_path):
        store = ArtifactStore(tmp_path)
        session = tiny_spec.session(store=store)
        points = tiny_spec.points()
        dict(session.sweep().iter_attacked_scores(points))

        keys = session.attacked_scores_keys(points)
        key = manifest_key(keys)
        assert store.json_path_for(MANIFEST_CATEGORY, key).exists()
        manifest = SweepManifest.load(store, key)
        assert manifest is not None
        assert [entry["key"] for entry in manifest.entries] == keys
        assert manifest.done_count == manifest.total == len(points)

    def test_progress_without_store_is_rejected(self, tiny_spec):
        runner = tiny_spec.session().sweep()
        with pytest.raises(ValueError, match="artifact store"):
            runner.progress(tiny_spec.points())

    def test_progress_reads_only_the_manifest(self, tiny_spec, tmp_path):
        store = ArtifactStore(tmp_path)
        points = tiny_spec.points()
        dict(tiny_spec.session(store=store).sweep().iter_attacked_scores(points))

        fresh = tiny_spec.session(store=ArtifactStore(tmp_path))
        progress = fresh.sweep().progress(points)
        assert progress.total == len(points)
        assert progress.done == len(points)
        assert progress.remaining == 0
        assert progress.healed == 0
        # Progress accounting is advisory: no hit/miss counter movement.
        assert fresh.store.hit_counts["attacked_scores"] == 0
        assert fresh.store.miss_counts["attacked_scores"] == 0

    @pytest.mark.parametrize("category", ["attacked_scores", "temporal"])
    def test_stale_manifest_heals_and_resume_recomputes_one_point(
        self, tiny_spec, tmp_path, category
    ):
        """Delete one ``.npz`` behind the manifest's back: progress reports
        the phantom done as healed, and resume recomputes exactly that
        point, bit-identical to the original."""
        store = ArtifactStore(tmp_path)
        session = tiny_spec.session(store=store)
        points = tiny_spec.points()
        original = _results(_runner(session, category), points)

        victim_key = _runner(session, category).keys(points)[1]
        store.path_for(category, victim_key).unlink()

        status_session = tiny_spec.session(store=ArtifactStore(tmp_path))
        progress = _runner(status_session, category).progress(points)
        assert progress.done == len(points) - 1
        assert progress.healed == 1
        # The healed manifest was republished: a reload sees the truth.
        reloaded = SweepManifest.load(status_session.store, progress.key)
        assert reloaded.status(victim_key) == "pending"
        assert reloaded.done_count == len(points) - 1

        resumed = tiny_spec.session(store=ArtifactStore(tmp_path))
        results = _results(_runner(resumed, category), points)
        assert resumed.store.hit_counts[category] == len(points) - 1
        assert resumed.store.miss_counts[category] == 1
        for point in points:
            _assert_same(results[point], original[point])
        assert _runner(resumed, category).progress(points).remaining == 0

    def test_corrupt_manifest_is_ignored_and_rebuilt(self, tiny_spec, tmp_path):
        store = ArtifactStore(tmp_path)
        session = tiny_spec.session(store=store)
        points = tiny_spec.points()
        dict(session.sweep().iter_attacked_scores(points))

        key = manifest_key(session.attacked_scores_keys(points))
        path = store.json_path_for(MANIFEST_CATEGORY, key)
        path.write_text("{ this is not json")

        fresh = tiny_spec.session(store=ArtifactStore(tmp_path))
        progress = fresh.sweep().progress(points)
        assert progress.done == len(points)
        assert progress.healed == 0
        # The corrupt document was quarantined and a clean one rebuilt.
        payload = json.loads(path.read_text())
        assert SweepManifest.from_payload(payload) is not None
        assert path.with_name(path.name + ".corrupt").exists()
