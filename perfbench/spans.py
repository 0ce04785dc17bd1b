"""In-memory span tracer that wraps the public entry points of each layer.

The tracer patches class attributes (and module-level functions where the
caller looks them up) for as long as it is installed, records one span
per call with a parent link, and restores every original on removal.
Nothing in the program is edited: spans are taken from the outside, at
the layer boundaries listed in :data:`LAYER_OF`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import threading
import time
from typing import Callable, Dict, List, Optional

import numpy as np

#: Span name -> layer it is charged to.
LAYER_OF = {
    "deployment.knowledge": "deployment",
    "deployment.expected": "deployment",
    "network.generate": "network",
    "network.observe": "network",
    "localization": "localization",
    "training.collect": "training",
    "training.benign": "training",
    "attacks.taint": "attacks",
    "metrics.compute": "metrics",
    "experiments.victims": "experiments",
    "store.save": "store",
    "store.load": "store",
    "serving.verify": "serving",
}

LAYERS = tuple(dict.fromkeys(LAYER_OF.values()))

#: Per-layer metrics of a traced run: name -> unit.
PER_LAYER = {
    "process.import_s": "s",
    "deployment.knowledge_builds": "count",
    "deployment.knowledge_s": "s",
    "deployment.expected_rows": "count",
    "deployment.expected_s": "s",
    "deployment.self_s": "s",
    "network.generate_s": "s",
    "network.observe_rows": "count",
    "network.observe_s": "s",
    "network.self_s": "s",
    "localization.calls": "count",
    "localization.rows": "count",
    "localization.s": "s",
    "localization.self_s": "s",
    "training.samples": "count",
    "training.self_s": "s",
    "attacks.taint_rows": "count",
    "attacks.taint_s": "s",
    "attacks.pmf_evals": "count",
    "attacks.self_s": "s",
    "metrics.rows": "count",
    "metrics.s": "s",
    "metrics.self_s": "s",
    "experiments.victims_s": "s",
    "experiments.self_s": "s",
    "store.saves": "count",
    "store.loads": "count",
    "store.hit_ratio": "ratio",
    "store.bytes_written": "bytes",
    "store.save_s": "s",
    "store.load_s": "s",
    "store.warm_figure_s": "s",
    "store.self_s": "s",
    "serving.batches": "count",
    "serving.batch_mean": "count",
    "serving.queue_wait_p50_ms": "ms",
    "serving.queue_wait_p99_ms": "ms",
    "serving.verify_s": "s",
    "serving.score_s": "s",
    "serving.busy_frac": "ratio",
    "serving.self_s": "s",
    "loadgen.late_p99_ms": "ms",
    "trace.unattributed_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "rows", "thread", "extra")

    def __init__(self, span_id, parent, name, rows, thread):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.rows = rows
        self.thread = thread
        self.extra = None
        self.start = time.perf_counter()
        self.end = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


def _rows_of(array) -> int:
    shape = np.shape(array)
    return int(shape[0]) if len(shape) > 1 else 1


def _rows_arg(index: int, name: str, *, flat: bool = False) -> Callable:
    """Row counter reading the call argument at *index* (or keyword *name*)."""

    def rows(*args, **kwargs) -> int:
        value = args[index] if len(args) > index else kwargs[name]
        return len(value) if flat else _rows_of(value)

    return rows


class Tracer:
    """Records spans around the wrapped layer entry points.

    Use as a context manager; while installed, every call into a wrapped
    entry point (from any thread) appends a :class:`Span`.  Spans nest per
    thread, so a span's parent is the innermost open span of its thread.
    """

    def __init__(self):
        self.spans: List[Span] = []
        self.counters: Dict[str, int] = {"attacks.pmf_evals": 0}
        #: ``id(claim) -> submit time``, filled by the load driver so that
        #: a verify span can record each claim's queue wait.
        self.submit_times: Dict[int, float] = {}
        self._local = threading.local()
        self._patches: List[tuple] = []
        self._next_id = 0
        self._id_lock = threading.Lock()

    # -- span recording ------------------------------------------------

    def open(self, name: str, rows: int = 0) -> Span:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._id_lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(
            span_id,
            stack[-1].id if stack else None,
            name,
            rows,
            threading.get_ident(),
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._local.stack.pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str, rows: int = 0):
        """Record one span around a block (the benchmark's own operations)."""
        span = self.open(name, rows)
        try:
            yield span
        finally:
            self.close(span)

    # -- patching --------------------------------------------------------

    def _wrap(
        self,
        owner,
        attr: str,
        name: str,
        rows: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> None:
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer.open(name, rows(*args, **kwargs) if rows else 0)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(span, result, *args, **kwargs)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def count(self, owner, attr: str, counter: str) -> None:
        """Count calls of ``owner.attr`` into ``counters[counter]`` (no span)."""
        original = owner.__dict__[attr]
        counters = self.counters
        counters.setdefault(counter, 0)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            counters[counter] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, counted)
        self._patches.append((owner, attr, original))

    def install(self) -> "Tracer":
        import repro.attacks.greedy as greedy
        import repro.experiments.session as session_module
        from repro.core.metrics import METRICS
        from repro.deployment.knowledge import DeploymentKnowledge
        from repro.experiments.store import ArtifactStore
        from repro.localization.beaconless import BeaconlessLocalizer
        from repro.network.generator import NetworkGenerator
        from repro.network.neighbors import NeighborIndex
        from repro.serving.service import DetectionService

        self._wrap(NetworkGenerator, "knowledge", "deployment.knowledge")
        self._wrap(
            DeploymentKnowledge,
            "expected_observation",
            "deployment.expected",
            rows=_rows_arg(1, "locations"),
        )
        self._wrap(NetworkGenerator, "generate", "network.generate")
        self._wrap(
            NeighborIndex,
            "observations_of_nodes",
            "network.observe",
            rows=_rows_arg(1, "nodes", flat=True),
        )
        self._wrap(
            BeaconlessLocalizer,
            "localize_observations",
            "localization",
            rows=_rows_arg(2, "observations"),
        )
        self._wrap(
            session_module,
            "collect_training_data",
            "training.collect",
            rows=lambda *args, **kwargs: int(kwargs.get("num_samples", 500)),
        )
        self._wrap(session_module, "benign_scores", "training.benign")
        self._wrap(
            greedy.GreedyMetricMinimizer,
            "taint_batch",
            "attacks.taint",
            rows=_rows_arg(1, "honest_observations"),
        )
        self.count(greedy, "binomial_log_pmf", "attacks.pmf_evals")
        metric_classes = {METRICS.get(name) for name in METRICS.available()}
        for cls in sorted(metric_classes, key=lambda c: c.__qualname__):
            if "compute" in cls.__dict__:
                self._wrap(
                    cls,
                    "compute",
                    "metrics.compute",
                    rows=_rows_arg(1, "observations"),
                )
        self._wrap(session_module.LadSession, "victims", "experiments.victims")

        def saved(span, path, *args, **kwargs):
            span.extra = os.path.getsize(path)

        def loaded(span, arrays, *args, **kwargs):
            span.extra = arrays is not None

        self._wrap(ArtifactStore, "save", "store.save", after=saved)
        self._wrap(ArtifactStore, "load", "store.load", after=loaded)

        submit_times = self.submit_times

        def verify_started(span, verdicts, self_, claims):
            span.extra = [
                (span.start - submit_times[id(claim)]) * 1000.0
                for claim in claims
                if id(claim) in submit_times
            ]

        self._wrap(
            DetectionService,
            "verify_batch",
            "serving.verify",
            rows=_rows_arg(1, "claims", flat=True),
            after=verify_started,
        )
        return self

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- reporting ---------------------------------------------------------

    def write(self, path: str) -> None:
        """Write every recorded span as one JSON object per line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.id):
                handle.write(json.dumps(span.as_dict()) + "\n")

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the time its child spans cover."""
        child_time: Dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] = child_time.get(span.parent, 0.0) + (
                    span.duration
                )
        return {
            span.id: span.duration - child_time.get(span.id, 0.0)
            for span in self.spans
        }

    def layer_metrics(self, root: str) -> Dict[str, float]:
        """Per-layer totals over every recorded span.

        *root* names the spans whose uncovered (self) time is the
        workload's unattributed time: the benchmark's own cold-render span
        offline, ``serving.verify`` for the serve workloads.
        """
        by_name: Dict[str, List[Span]] = {}
        for span in self.spans:
            by_name.setdefault(span.name, []).append(span)
        self_time = self.self_times()
        ids = {span.id: span for span in self.spans}

        def calls(name):
            return len(by_name.get(name, ()))

        def seconds(name):
            return sum(span.duration for span in by_name.get(name, ()))

        def rows(name):
            return sum(span.rows for span in by_name.get(name, ()))

        def under_verify(name):
            return sum(
                span.duration
                for span in by_name.get(name, ())
                if span.parent in ids and ids[span.parent].name == "serving.verify"
            )

        loads = by_name.get("store.load", [])
        verifies = by_name.get("serving.verify", [])
        waits = [wait for span in verifies for wait in (span.extra or ())]
        phases = seconds("phase.fixed_rate") + seconds("phase.saturation")
        roots = by_name.get(root, [])
        root_time = sum(span.duration for span in roots)
        metrics = {
            "deployment.knowledge_builds": calls("deployment.knowledge"),
            "deployment.knowledge_s": seconds("deployment.knowledge"),
            "deployment.expected_rows": rows("deployment.expected"),
            "deployment.expected_s": seconds("deployment.expected"),
            "network.generate_s": seconds("network.generate"),
            "network.observe_rows": rows("network.observe"),
            "network.observe_s": seconds("network.observe"),
            "localization.calls": calls("localization"),
            "localization.rows": rows("localization"),
            "localization.s": seconds("localization"),
            "training.samples": rows("training.collect"),
            "attacks.taint_rows": rows("attacks.taint"),
            "attacks.taint_s": seconds("attacks.taint"),
            "attacks.pmf_evals": self.counters["attacks.pmf_evals"],
            "metrics.rows": rows("metrics.compute"),
            "metrics.s": seconds("metrics.compute"),
            "experiments.victims_s": seconds("experiments.victims"),
            "store.saves": calls("store.save"),
            "store.loads": len(loads),
            "store.hit_ratio": (
                sum(1 for span in loads if span.extra) / len(loads) if loads else 0.0
            ),
            "store.bytes_written": sum(
                span.extra or 0 for span in by_name.get("store.save", ())
            ),
            "store.save_s": seconds("store.save"),
            "store.load_s": seconds("store.load"),
            "store.warm_figure_s": seconds("op.warm_render"),
            "serving.batches": len(verifies),
            "serving.batch_mean": (
                rows("serving.verify") / len(verifies) if verifies else 0.0
            ),
            "serving.queue_wait_p50_ms": (
                float(np.percentile(waits, 50)) if waits else 0.0
            ),
            "serving.queue_wait_p99_ms": (
                float(np.percentile(waits, 99)) if waits else 0.0
            ),
            "serving.verify_s": seconds("serving.verify"),
            "serving.score_s": under_verify("deployment.expected")
            + under_verify("metrics.compute"),
            "serving.busy_frac": seconds("serving.verify") / phases if phases else 0.0,
            "trace.unattributed_frac": (
                sum(self_time[span.id] for span in roots) / root_time
                if root_time
                else 0.0
            ),
        }
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = sum(
                self_time[span.id]
                for span in self.spans
                if LAYER_OF.get(span.name) == layer
            )
        return metrics
