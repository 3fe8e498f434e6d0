"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 bench/run.py --workload sched_fifo_absorb [--seed 20190501]
        [--seconds 12] [--trace 0|1] [-o result.json]

A plain run (``--trace 0``) prints the end-to-end metrics declared in
``BENCHMARK.json``; ``--trace 1`` re-runs the workload with timing
wrappers around each layer's public calls and prints the per-layer
metrics and a self-time tree instead.  Either way the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Every output is checked first: on any
wrong or failed result the run exits 1 and prints no metrics; its
``-o`` file then records ``correct`` false and one failure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict

from sched_workload import BACKFILL, FIFO
from serve_workload import SERVE
from suite_workload import SUITE
from timing import REFERENCE_PROBE_S, BenchError, HostClock, median, peak_rss_mb

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PINS = Path(__file__).resolve().with_name("pins.json")
DEFAULT_SEED = 20190501
SETUP_REPEATS = 3
WORKLOADS = {workload.name: workload for workload in (SUITE, FIFO, BACKFILL, SERVE)}
#: Settings that would point the library at another trace, trace size
#: or cache directory than the pins were taken with.
IGNORED_ENV = ("PAI_REPRO_TRACE_JOBS", "PAI_REPRO_TRACE_PATH", "PAI_REPRO_CACHE_DIR")


@dataclass
class Context:
    """What a workload needs from the harness."""

    root: Path
    seed: int
    seconds: float
    workdir: Path
    pins: Dict[str, str]
    #: Whether this run's inputs are the ones the pins were taken from:
    #: the default seed, or a workload whose inputs ignore the seed.
    pinned: bool
    clock: HostClock

    def env(self) -> Dict[str, str]:
        """Environment for child processes: ``src`` on the import path."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (str(SRC), env.get("PYTHONPATH")) if part
        )
        return env

    def fresh_dir(self, stem: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=f"{stem}-", dir=self.workdir))

    def probe_imports(self, *modules: str) -> None:
        """Import ``modules`` in a fresh interpreter, as a CLI start does."""
        probe = subprocess.run(
            [sys.executable, "-c", "import " + ", ".join(modules)],
            env=self.env(),
            cwd=self.root,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if probe.returncode != 0:
            raise BenchError(f"importing {modules} failed: {probe.stderr.strip()}")

    def check_pin(self, key: str, digest: str) -> None:
        """On pinned inputs, ``digest`` must equal the pinned one."""
        if not self.pinned:
            return
        pinned = self.pins.get(key)
        if digest != pinned:
            raise BenchError(f"{key} {digest} does not match the pinned {pinned}")


def set_up(workload, ctx: Context):
    """Set up :data:`SETUP_REPEATS` times, keeping the last inputs.

    Returns ``(inputs, median set-up seconds as measured, the same at
    the reference speed, median trace generation seconds)``; each set-up
    is scaled by the probes around it.
    """
    durations, scaled, generated = [], [], []
    inputs = None
    for _ in range(SETUP_REPEATS):
        if inputs is not None:
            close(workload, inputs)
        inputs, wall = ctx.clock.measure(workload.setup, ctx)
        durations.append(wall)
        scaled.append(wall * ctx.clock.last_scale)
        generated.append(inputs.generate_s)
    return inputs, median(durations), median(scaled), median(generated)


def close(workload, inputs) -> None:
    closer = getattr(workload, "close", None)
    if closer is not None:
        closer(inputs)


def declared_metrics(traced: bool) -> Dict[str, str]:
    """Metric name -> unit, from ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def measure(args) -> dict:
    """Run the workload; returns the result object (raises BenchError)."""
    import repro.obs

    repro.obs.configure(quiet=True)
    workload = WORKLOADS[args.workload]
    pins = json.loads(PINS.read_text(encoding="utf-8")).get(args.workload, {})
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    pinned = args.seed == DEFAULT_SEED or not workload.seeded
    ctx = Context(ROOT, args.seed, args.seconds, workdir, pins, pinned, HostClock())
    try:
        inputs, measured_setup_s, setup_s, generate_s = set_up(workload, ctx)
        try:
            outcome = (workload.measure_traced if args.trace else workload.measure)(inputs, ctx)
        finally:
            close(workload, inputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in outcome.lines:
        print(line)
    print(
        f"host probe: median {ctx.clock.probe_s * 1e3:.3f} ms over {len(ctx.clock.probes)} "
        f"probes, reference {REFERENCE_PROBE_S * 1e3:.3f} ms"
    )
    declared = declared_metrics(args.trace)
    if args.trace:
        values = {"host.calib_s": ctx.clock.probe_s, "trace.generate_s": generate_s}
        values.update(outcome.metrics)
    else:
        print(f"{args.workload} setup_s: {measured_setup_s:.6g} s as measured")
        values = {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            **outcome.metrics,
        }
        missing = sorted(set(declared) - set(values))
        if missing:
            raise BenchError(f"end-to-end metrics not measured: {missing}")
    undeclared = sorted(set(values) - set(declared))
    if undeclared:
        raise BenchError(f"metrics missing from BENCHMARK.json: {undeclared}")
    metrics = {}
    for name, unit in declared.items():
        if name in values:
            print(f"{args.workload} {name} = {values[name]:.6g} {unit}")
        # Calls and shares of a layer this workload does not exercise
        # read zero; every per-layer time is measured on every workload.
        metrics[name] = {"value": values.get(name, 0), "unit": unit}
    return {"correct": True, "attempted": outcome.attempted, "failed": 0, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0, help="measured time per run")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: per-layer metrics from a traced re-run",
    )
    parser.add_argument("-o", "--output", help="also write the result JSON here")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"no repro sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for name in IGNORED_ENV:
        os.environ.pop(name, None)
    try:
        result = measure(args)
    except BenchError as error:
        print(f"{args.workload}: FAILED: {error}", file=sys.stderr)
        # The -o record says the run failed, so compare.py counts it;
        # standard output gets no result.
        write_record(args, {"correct": False, "attempted": 1, "failed": 1, "metrics": {}})
        return 1
    write_record(args, result)
    print(json.dumps(result))
    return 0


def write_record(args, result: dict) -> None:
    """Write ``result`` with the run's settings to ``-o``, if given."""
    if args.output:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **result}
        Path(args.output).write_text(json.dumps(record) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
