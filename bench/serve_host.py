"""Host the trace-analytics service for a traced ``serve_mixed`` run.

Builds the service exactly as ``pai-repro serve`` does (a
``ShardedState``, a ``TraceService`` over a ``ResultCache``, a signal
handler that drains on SIGTERM) but through timed subclasses, and on
shutdown writes the per-layer counters as JSON to ``--layers``.  Every
other argument is a ``pai-repro serve`` argument, read by the CLI's own
parser, so the shard count and the cache follow the CLI's defaults.

Usage (PYTHONPATH must reach ``src``)::

    python bench/serve_host.py --layers OUT.json --cache-dir DIR -q
"""

from __future__ import annotations

import argparse
import json
import signal
import time
from pathlib import Path

from timing import Recorder, timed_subclass

ENDPOINTS = ("healthz", "stats", "census", "cdf", "ingest")


def endpoint_of(path: str) -> str:
    parts = [part for part in path.split("/") if part]
    return parts[0] if parts and parts[0] in ENDPOINTS else "other"


def build_service(recorder: Recorder, args: argparse.Namespace):
    """The service ``pai-repro serve`` builds from ``args``, timed."""
    from repro.runtime import ResultCache
    from repro.serve import ShardedState, ShardStats, TraceService

    state_class = timed_subclass(
        ShardedState,
        recorder,
        {
            "snapshot": ("serve.state.snapshot", None),
            "ingest": ("serve.state.ingest", None),
        },
        shared=True,
    )
    cache_class = timed_subclass(
        ResultCache,
        recorder,
        {
            "load": ("serve.cache.load", None),
            "store": ("serve.cache.store", None),
        },
        failed={"load": lambda hit: hit is None},
        shared=True,
    )
    # The state merges through the class, not an instance, so the merge
    # is timed on the class itself; this process exists only to host
    # the traced service.
    ShardStats.merged = classmethod(
        recorder.wrap("serve.stats.merge", ShardStats.merged.__func__, shared=True)
    )

    class TimedService(TraceService):
        def handle(self, method, path, params, body):
            start = time.perf_counter()
            try:
                return super().handle(method, path, params, body)
            finally:
                recorder.add(
                    f"serve.server.{endpoint_of(path)}", time.perf_counter() - start
                )

    cache = None if args.no_cache else cache_class(args.cache_dir)
    return TimedService(state=state_class(num_shards=args.shards), cache=cache)


def main(argv=None) -> int:
    from repro.analysis.cli import build_parser
    from repro.obs import configure

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--layers", required=True, help="counter JSON written on exit")
    own, serve_argv = parser.parse_known_args(argv)
    args = build_parser().parse_args(["serve", *serve_argv])

    configure(verbose=args.verbose, quiet=args.quiet, json_path=args.log_json)
    recorder = Recorder()
    service = build_service(recorder, args)
    service.start(host=args.host, port=args.port)

    def on_signal(signum, frame):
        service.request_shutdown()

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    print(f"serving on {service.url}", flush=True)
    try:
        service.wait_for_shutdown()
    finally:
        service.stop()
        Path(own.layers).write_text(json.dumps(recorder.snapshot()), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
