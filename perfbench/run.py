"""End-to-end LAD benchmark: run one workload, print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig4_roc --seed 1 --seconds 38 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload with every layer entry point wrapped and prints the per-layer
metrics instead (spans are written to ``.perfbench/``).  The last line of
standard output is always the JSON result; digests of the outputs are
printed on the line before it.  See ``perfbench/README.md``.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402

# One compute thread: on a host of a few shared cores a second BLAS thread
# measures the other tenants, not the program.  Set before numpy loads.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
#: Fresh processes timed per run for ``setup_s``, half before the
#: measurement and half after it.
SETUP_PROBES = 4

#: End-to-end metrics of an untraced run: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "latency_ms": "ms",
    "tail_ms": "ms",
    "throughput_per_s": "1/s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}


def _load_workloads():
    """Import the program from this checkout's ``src`` (never elsewhere)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program to measure under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads.WORKLOADS


def _probe_setup(args, arg, count: int) -> tuple:
    """Time ``setup`` in *count* fresh processes: process start to READY."""
    samples, failures = [], []
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--setup-probe",
        arg or "-",
    ]
    for _ in range(count):
        start = time.perf_counter()
        with subprocess.Popen(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True
        ) as child:
            ready = child.stdout.readline()
            samples.append(time.perf_counter() - start)
            report = child.stdout.read()
            child.wait(timeout=120)
        if child.returncode != 0 or ready.strip() != "READY":
            failures.append(f"setup probe exited {child.returncode}")
        else:
            failures.extend(json.loads(report.strip().splitlines()[-1]))
    return samples, failures


def _setup_probe(workload, args) -> int:
    """Child side of :func:`_probe_setup`."""
    arg = None if args.setup_probe == "-" else args.setup_probe
    state, checks = workload.setup(args.seed, arg)
    workload.ready(state, lambda: print("READY", flush=True))
    print(json.dumps(checks), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workloads = _load_workloads()
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {sorted(workloads)}")
    workload = workloads[args.workload]()
    import_s = time.perf_counter() - _START
    if args.setup_probe is not None:
        return _setup_probe(workload, args)

    from spans import PER_LAYER, Tracer

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=OUT, prefix="work-")
    try:
        arg = workload.prepare(args.seed, workdir)
        tracer = Tracer() if args.trace else None
        setup_samples, setup_failures = [], []
        if tracer is None:
            setup_samples, setup_failures = _probe_setup(
                args, arg, SETUP_PROBES // 2
            )
            state, checks = workload.setup(args.seed, arg)
        else:
            with tracer:
                state, checks = workload.setup(args.seed, arg)
        outcome = workload.measure(state, args.seconds, workdir, tracer)
        if tracer is None:
            samples, failures = _probe_setup(
                args, arg, SETUP_PROBES - SETUP_PROBES // 2
            )
            setup_samples += samples
            setup_failures += failures
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for message in setup_failures + checks:
        outcome.fail(message)
    outcome.attempted += SETUP_PROBES if tracer is None else 1
    for message in outcome.messages:
        print(f"check failed: {message}", file=sys.stderr)

    if tracer is None:
        values = dict(
            outcome.metrics,
            # The fastest probe: the host's other tenants slow set-up by up
            # to ~50 % for spells of a minute or more, which moved the
            # median of the probes by up to 40 % between rounds of runs.
            setup_s=min(setup_samples),
            ok_frac=1.0 - outcome.failed / outcome.attempted,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    else:
        root = "serving.verify" if args.workload.startswith("serve") else (
            "op.cold_render"
        )
        values = dict(
            tracer.layer_metrics(root),
            **{"process.import_s": import_s},
            **outcome.metrics,
        )
        tracer.write(str(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"))
        metrics = {
            name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in PER_LAYER.items()
        }
    print("digests: " + json.dumps(outcome.digests, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
