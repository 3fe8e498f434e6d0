"""Command-line entry point: regenerate paper tables and figures.

Usage::

    pai-repro list                     # show available experiments
    pai-repro run fig9                 # regenerate one table/figure
    pai-repro all                      # regenerate everything
    pai-repro all -v --log-json e.jsonl
                                       # ...with debug telemetry on stderr
                                       # and a JSON-lines event log
    pai-repro report -o report.md      # write the full markdown report
    pai-repro trace -o trace.jsonl -n 20000 --seed 7
                                       # generate & save a synthetic trace
    pai-repro advise --flops 1.56T --memory 31.9GB --input 38MB \
                     --traffic 357MB --weights 204MB --cnodes 16
                                       # rank deployments for one job
    pai-repro serve --trace trace.jsonl --seconds-per-day 0.1
                                       # resident analytics service:
                                       # stream the trace in, answer
                                       # /stats /census /cdf queries
    pai-repro faults -n 25 -o faults.json --events events.jsonl
                                       # scored fault-injection suite:
                                       # inject, detect, localize, grade
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .registry import experiment_ids, run_experiment

__all__ = ["main", "build_parser"]


def _int_at_least(text: str, low: int, expected: str) -> int:
    """``text`` as an integer of at least ``low``, else a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = low - 1
    if value < low:
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    """Argparse type of every count option: an integer of at least 1."""
    return _int_at_least(text, 1, "a positive integer")


def _seed(text: str) -> int:
    """Argparse type of every ``--seed``: an integer of at least 0."""
    return _int_at_least(text, 0, "a non-negative integer")


def _trace_path(text: str) -> str:
    """Argparse type of a trace input: a file or a columnar store.

    Checks ``serve --trace`` and, from :func:`_check_trace_input`,
    ``convert``'s input and ``PAI_REPRO_TRACE_PATH``.  A store is opened
    here, so a broken one is a usage error before any work starts (for
    ``serve``, before the service binds its port).
    """
    from ..trace.columnar import ColumnarTrace, is_columnar_store

    if is_columnar_store(text):
        try:
            ColumnarTrace.open(text)
        except (OSError, ValueError) as error:
            raise argparse.ArgumentTypeError(
                f"not a trace file or a columnar store: {error}"
            ) from None
    elif not os.path.isfile(text):
        raise argparse.ArgumentTypeError(
            f"not a trace file or a columnar store: {text!r}"
        )
    return text


def _add_obs_options(parser: argparse.ArgumentParser) -> None:
    """Observability flags shared by ``all``, ``report`` and ``trace``."""
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="debug-level telemetry on stderr (spans, cache traffic)",
    )
    group.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="errors only on stderr; suppresses the run summary",
    )
    parser.add_argument(
        "--log-json",
        metavar="PATH",
        default=None,
        help="append machine-readable JSON-lines telemetry events to PATH",
    )


def _add_suite_options(parser: argparse.ArgumentParser) -> None:
    """Execution-layer flags shared by ``all`` and ``report``."""
    parser.add_argument(
        "-j",
        "--jobs",
        type=_positive_int,
        default=os.cpu_count() or 1,
        help="worker processes (default: CPU count; 1 = in-process)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every experiment, ignoring the result cache",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="result-cache directory (default: $PAI_REPRO_CACHE_DIR "
        "or ~/.cache/pai-repro)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pai-repro",
        description=(
            "Reproduce the tables and figures of 'Characterizing Deep "
            "Learning Training Workloads on Alibaba-PAI' (IISWC 2019)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list available experiments")

    run_parser = subparsers.add_parser("run", help="run one experiment")
    run_parser.add_argument(
        "experiment", choices=experiment_ids(), help="experiment id"
    )

    all_parser = subparsers.add_parser(
        "all", help="run the full experiment suite"
    )
    _add_suite_options(all_parser)
    _add_obs_options(all_parser)

    report_parser = subparsers.add_parser(
        "report", help="write the full suite as a markdown report"
    )
    report_parser.add_argument(
        "-o", "--output", default="report.md", help="output path"
    )
    _add_suite_options(report_parser)
    _add_obs_options(report_parser)

    trace_parser = subparsers.add_parser(
        "trace", help="generate a calibrated synthetic trace"
    )
    trace_parser.add_argument(
        "-o", "--output", default="trace.jsonl", help="output path"
    )
    trace_parser.add_argument(
        "-n",
        "--num-jobs",
        type=_positive_int,
        default=20000,
        help="job count",
    )
    trace_parser.add_argument(
        "--seed", type=_seed, default=20190501, help="generator seed"
    )
    trace_parser.add_argument(
        "--format",
        choices=("jsonl", "columnar"),
        default="jsonl",
        dest="trace_format",
        help="on-disk format: line-oriented JSON, or the sharded "
        "columnar store (mmap-loadable; use for 200k+ jobs)",
    )
    trace_parser.add_argument(
        "--check",
        action="store_true",
        help="also run the calibration targets against the trace",
    )
    _add_obs_options(trace_parser)

    convert_parser = subparsers.add_parser(
        "convert",
        help="convert a trace between JSONL and the columnar store "
        "(direction auto-detected from the input)",
    )
    convert_parser.add_argument("input", help="existing trace path")
    convert_parser.add_argument("output", help="converted trace path")
    convert_parser.add_argument(
        "--shard-rows",
        type=_positive_int,
        default=None,
        help="rows per columnar shard (JSONL->columnar only)",
    )
    _add_obs_options(convert_parser)

    advise_parser = subparsers.add_parser(
        "advise", help="rank feasible deployments for one workload"
    )
    advise_parser.add_argument("--name", default="workload")
    advise_parser.add_argument(
        "--flops", required=True, help="per-step compute, e.g. 1.56T"
    )
    advise_parser.add_argument(
        "--memory", required=True, help="per-step memory access, e.g. 31.9GB"
    )
    advise_parser.add_argument(
        "--input", required=True, dest="input_bytes", help="e.g. 38MB"
    )
    advise_parser.add_argument(
        "--traffic", required=True, help="per-step sync volume, e.g. 357MB"
    )
    advise_parser.add_argument(
        "--weights", required=True, help="dense weights at rest, e.g. 204MB"
    )
    advise_parser.add_argument(
        "--embedding", default="0B", help="embedding weights at rest"
    )
    advise_parser.add_argument("--cnodes", type=_positive_int, default=8)
    advise_parser.add_argument("--batch", type=_positive_int, default=64)
    advise_parser.add_argument(
        "--no-nvlink", action="store_true", help="cluster lacks NVLink"
    )

    serve_parser = subparsers.add_parser(
        "serve", help="run the resident trace-analytics service"
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    serve_parser.add_argument(
        "--port", type=int, default=0, help="bind port (0 = ephemeral)"
    )
    serve_parser.add_argument(
        "--shards",
        type=_positive_int,
        default=4,
        help="population shard count",
    )
    source = serve_parser.add_mutually_exclusive_group()
    source.add_argument(
        "--trace",
        type=_trace_path,
        default=None,
        metavar="PATH",
        help="stream this trace in -- a JSONL file or a columnar store "
        "directory, auto-detected (default: start empty and accept "
        "POST /ingest)",
    )
    source.add_argument(
        "-n",
        "--num-jobs",
        type=_positive_int,
        default=None,
        help="stream a generated synthetic trace of this many jobs",
    )
    serve_parser.add_argument(
        "--seed", type=_seed, default=20190501, help="generator seed for -n"
    )
    serve_parser.add_argument(
        "--batch-size",
        type=_positive_int,
        default=500,
        help="replay batch size",
    )
    serve_parser.add_argument(
        "--seconds-per-day",
        type=float,
        default=0.0,
        help="wall-clock seconds per simulated trace day (0 = as fast "
        "as ingestion allows)",
    )
    serve_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the content-addressed query cache",
    )
    serve_parser.add_argument(
        "--cache-dir",
        default=None,
        help="query-cache directory (default: $PAI_REPRO_CACHE_DIR "
        "or ~/.cache/pai-repro)",
    )
    _add_obs_options(serve_parser)

    faults_parser = subparsers.add_parser(
        "faults", help="run the scored fault-injection scenario suite"
    )
    faults_parser.add_argument(
        "-n",
        "--scenarios",
        type=_positive_int,
        default=25,
        help="scenario count (kinds cycle round-robin; >= 5 covers all)",
    )
    faults_parser.add_argument(
        "--seed", type=_seed, default=20190501, help="suite seed"
    )
    faults_parser.add_argument(
        "-o",
        "--output",
        default=None,
        metavar="PATH",
        help="write the full JSON scenario report to PATH",
    )
    faults_parser.add_argument(
        "--events",
        default=None,
        metavar="PATH",
        help="write the canonical telemetry stream (JSONL) to PATH",
    )
    faults_parser.add_argument(
        "--min-accuracy",
        type=float,
        default=0.8,
        help="exit non-zero if localization accuracy falls below this",
    )
    _add_obs_options(faults_parser)
    return parser


def _command_trace(args: argparse.Namespace) -> int:
    from ..trace import (
        ClusterTraceGenerator,
        ColumnarTrace,
        TraceConfig,
        evaluate_targets,
        save_trace,
    )
    from ..trace.columnar import write_rows

    generator = ClusterTraceGenerator(
        TraceConfig(num_jobs=args.num_jobs, seed=args.seed)
    )
    if args.trace_format == "columnar":
        # The generator's rows become shard columns: no per-job object.
        count = write_rows(generator.rows(), args.output)
    else:
        jobs = generator.generate()
        count = save_trace(jobs, args.output)
    print(f"wrote {count} jobs to {args.output} ({args.trace_format})")
    if args.check:
        if args.trace_format == "columnar":
            jobs = list(ColumnarTrace.open(args.output).iter_records())
        failures = [
            check for check in evaluate_targets(jobs) if not check["ok"]
        ]
        if failures:
            for check in failures:
                print(
                    f"FAIL {check['name']}: measured {check['measured']:.4g} "
                    f"vs paper {check['paper']:.4g}"
                )
            return 1
        print("all calibration targets within tolerance")
    return 0


def _command_convert(args: argparse.Namespace) -> int:
    """Convert between JSONL and the columnar store, either direction."""
    from ..trace.columnar import (
        DEFAULT_SHARD_ROWS,
        columnar_to_jsonl,
        is_columnar_store,
        jsonl_to_columnar,
    )

    if is_columnar_store(args.input):
        if args.shard_rows is not None:
            print(
                "--shard-rows applies only when converting to columnar",
                file=sys.stderr,
            )
            return 2
        count = columnar_to_jsonl(args.input, args.output)
        direction = "columnar -> jsonl"
    else:
        count = jsonl_to_columnar(
            args.input,
            args.output,
            shard_rows=args.shard_rows or DEFAULT_SHARD_ROWS,
        )
        direction = "jsonl -> columnar"
    print(f"converted {count} jobs ({direction}) to {args.output}")
    return 0


def _command_advise(args: argparse.Namespace) -> int:
    from ..core import (
        Architecture,
        WorkloadFeatures,
        pai_default_hardware,
        recommend_architecture,
    )
    from ..core.units import parse_flops, parse_size

    embedding = parse_size(args.embedding)
    features = WorkloadFeatures(
        name=args.name,
        architecture=Architecture.PS_WORKER,
        num_cnodes=args.cnodes,
        batch_size=args.batch,
        flop_count=parse_flops(args.flops),
        memory_access_bytes=parse_size(args.memory),
        input_bytes=parse_size(args.input_bytes),
        weight_traffic_bytes=parse_size(args.traffic),
        dense_weight_bytes=parse_size(args.weights),
        embedding_weight_bytes=embedding,
        embedding_traffic_bytes=0.0,
    )
    ranked = recommend_architecture(
        features, pai_default_hardware(), has_nvlink=not args.no_nvlink
    )
    print(f"deployments for {args.name!r}, best first:")
    for rank, rec in enumerate(ranked, start=1):
        print(
            f"  {rank}. {str(rec.plan.architecture):18s} "
            f"x{rec.plan.num_cnodes:<4d} {rec.throughput:14.0f} samples/s  "
            f"step {rec.step_time * 1e3:9.2f} ms  bottleneck: {rec.bottleneck}"
        )
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    """Serve until SIGTERM/SIGINT or a failed replay (exit 1); drain."""
    import signal

    from ..serve import ShardedState, TraceReplayer, TraceService

    state = ShardedState(num_shards=args.shards)
    service = TraceService(state=state, cache=_suite_cache(args))
    service.start(host=args.host, port=args.port)

    def _on_signal(signum, frame):
        service.request_shutdown()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)

    if args.trace is not None:
        from ..trace import iter_trace
        from ..trace.columnar import ColumnarTrace, is_columnar_store

        if is_columnar_store(args.trace):
            # Lazy rows: the service ingests straight off the mapped
            # columns without materializing JobRecord objects.
            jobs = ColumnarTrace.open(args.trace).iter_views()
        else:
            jobs = iter_trace(args.trace)
    elif args.num_jobs is not None:
        from ..trace import generate_trace

        jobs = generate_trace(num_jobs=args.num_jobs, seed=args.seed)
    else:
        jobs = None
    if jobs is not None:
        service.start_replay(
            TraceReplayer(
                jobs,
                batch_size=args.batch_size,
                seconds_per_day=args.seconds_per_day,
            )
        )
    print(f"serving on {service.url}", flush=True)
    try:
        service.wait_for_shutdown()
    finally:
        service.stop()
    if service.replay_error is not None:
        return 1
    print(
        f"served {state.job_count} jobs "
        f"(generation {state.generation}); shut down cleanly"
    )
    return 0


def _command_faults(args: argparse.Namespace) -> int:
    """Run the scored fault-injection suite; grade telemetry-only RCA."""
    import json
    from pathlib import Path

    from ..faults import canonical_events, capture, score_suite

    with capture() as sink:
        report = score_suite(args.scenarios, args.seed)
    localized = sum(r.localized for r in report.results)
    for kind, (kind_localized, total) in sorted(report.by_kind().items()):
        print(f"  {kind:20s} {kind_localized}/{total} localized")
    print(
        f"localization accuracy {report.accuracy:.0%} "
        f"({localized}/{len(report.results)} scenarios), "
        f"onset accuracy {report.onset_accuracy:.0%}, "
        f"digest {report.digest[:16]}"
    )
    if args.output is not None:
        path = Path(args.output)
        path.write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {path}")
    if args.events is not None:
        path = Path(args.events)
        with path.open("w", encoding="utf-8") as handle:
            for event in canonical_events(sink.events):
                handle.write(json.dumps(event, sort_keys=True) + "\n")
        print(f"wrote {path}")
    if report.accuracy < args.min_accuracy:
        print(
            f"accuracy {report.accuracy:.0%} is below the required "
            f"{args.min_accuracy:.0%}",
            file=sys.stderr,
        )
        return 1
    return 0


def _suite_cache(args: argparse.Namespace):
    from ..runtime import ResultCache

    if args.no_cache:
        return None
    return ResultCache(args.cache_dir)


def _report_failures(outcomes) -> int:
    """Print a per-failure summary; returns the count."""
    failed = [o for o in outcomes if not o.ok]
    for outcome in failed:
        print(f"FAILED {outcome.experiment_id}:", file=sys.stderr)
        print(outcome.error, file=sys.stderr)
    if failed:
        ids = ", ".join(o.experiment_id for o in failed)
        print(
            f"{len(failed)} of {len(outcomes)} experiments failed: {ids}",
            file=sys.stderr,
        )
    return len(failed)


def _command_all(args: argparse.Namespace) -> int:
    from ..runtime import run_suite

    outcomes = run_suite(jobs=args.jobs, cache=_suite_cache(args))
    for outcome in outcomes:
        if outcome.ok:
            print(outcome.result.render())
            print()
    return 1 if _report_failures(outcomes) else 0


def _command_report(args: argparse.Namespace) -> int:
    from ..runtime import run_suite
    from .report import render_outcomes

    from pathlib import Path

    outcomes = run_suite(jobs=args.jobs, cache=_suite_cache(args))
    path = Path(args.output)
    path.write_text(render_outcomes(outcomes), encoding="utf-8")
    print(f"wrote {path}")
    return 1 if _report_failures(outcomes) else 0


def _run_observed(args: argparse.Namespace, command) -> int:
    """Run a command under a configured obs context, then summarize.

    The summary table and all telemetry go to stderr / the JSON-lines
    log, never stdout -- report output stays byte-identical with obs
    enabled.
    """
    from ..obs import configure

    obs = configure(
        verbose=args.verbose, quiet=args.quiet, json_path=args.log_json
    )
    try:
        return command(args)
    finally:
        obs.emit_summary()
        if not args.quiet:
            print(obs.summary_table(), file=sys.stderr)
        obs.close()


def _check_trace_input(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> None:
    """Exit 2 with a usage message if the command's trace is no trace.

    ``convert``'s input is checked here rather than by its argparse
    type, which would run before ``--shard-rows`` is checked.
    """
    if args.command == "convert":
        label, path = "argument input", args.input
    elif args.command in ("run", "all", "report"):
        from .context import TRACE_PATH_ENV_VAR, external_trace_path

        label, path = TRACE_PATH_ENV_VAR, external_trace_path()
    else:
        return
    if path is not None:
        try:
            _trace_path(path)
        except argparse.ArgumentTypeError as error:
            parser.error(f"{label}: {error}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_trace_input(parser, args)
    if args.command == "list":
        for experiment_id in experiment_ids():
            print(experiment_id)
        return 0
    if args.command == "run":
        print(run_experiment(args.experiment).render())
        return 0
    if args.command == "all":
        return _run_observed(args, _command_all)
    if args.command == "report":
        return _run_observed(args, _command_report)
    if args.command == "trace":
        return _run_observed(args, _command_trace)
    if args.command == "convert":
        return _run_observed(args, _command_convert)
    if args.command == "advise":
        return _command_advise(args)
    if args.command == "serve":
        return _run_observed(args, _command_serve)
    if args.command == "faults":
        return _run_observed(args, _command_faults)
    return 1


if __name__ == "__main__":
    sys.exit(main())
