"""``clio`` — a command-line front end for the log service.

Stores a volume sequence as device images in a directory (one
``vol-NNN.img`` per volume, plus ``nvram.img`` staging the tail), so log
files persist across invocations:

    clio init /tmp/store --block-size 1024 --degree 16 --capacity 4096
    clio create /tmp/store /mail
    clio create /tmp/store /mail/smith
    clio append /tmp/store /mail/smith "hello smith"
    echo "piped body" | clio append /tmp/store /mail/smith --stdin
    clio cat /tmp/store /mail               # sublog entries included
    clio ls /tmp/store /mail
    clio info /tmp/store
    clio fsck /tmp/store

Every append invocation syncs the tail to the NVRAM sidecar before
returning, so each command is durable; ``--stdin --lines`` batches one
entry per input line under a single sync.
"""

from __future__ import annotations

import argparse
import glob
import os
import sys

from repro.core import LogService
from repro.core.catalog import CatalogError
from repro.worm.filebacked import FileBackedNvram, FileBackedWormDevice

__all__ = ["build_parser", "main", "operator_verbs"]


def _volume_paths(directory: str) -> list[str]:
    return sorted(glob.glob(os.path.join(directory, "vol-*.img")))


def _make_factory(directory: str, block_size: int, capacity: int):
    def factory() -> FileBackedWormDevice:
        index = len(_volume_paths(directory))
        path = os.path.join(directory, f"vol-{index:03d}.img")
        return FileBackedWormDevice.create(
            path, block_size=block_size, capacity_blocks=capacity
        )

    return factory


def _mount(
    directory: str,
    read_only: bool = False,
    observability: bool = False,
    readahead_blocks: int = 0,
) -> LogService:
    paths = _volume_paths(directory)
    if not paths:
        raise SystemExit(f"error: no Clio store in {directory!r} (run `clio init`)")
    devices = [FileBackedWormDevice.open_path(path) for path in paths]
    block_size = devices[0].block_size
    capacity = devices[0].capacity_blocks
    nvram = FileBackedNvram(
        os.path.join(directory, "nvram.img"), capacity_bytes=block_size
    )
    service, _report = LogService.mount(
        devices,
        nvram,
        device_factory=_make_factory(directory, block_size, capacity),
        read_only=read_only,
        observability=observability,
        readahead_blocks=readahead_blocks,
    )
    return service


def _log_payloads(service: LogService, path: str) -> list[bytes] | None:
    """Every entry payload of the log file at ``path``, or None when the
    store has no such log file.  Only the catalog's own "no such name" is
    read as absence: a crashed service or an offline volume still raises."""
    try:
        log = service.open_log_file(path)
    except CatalogError:
        return None
    return [entry.data for entry in log.entries()]


# ---------------------------------------------------------------------- #
# Commands
# ---------------------------------------------------------------------- #


def _cmd_init(args) -> int:
    os.makedirs(args.store, exist_ok=True)
    if _volume_paths(args.store):
        print(f"error: {args.store!r} already contains a Clio store", file=sys.stderr)
        return 1
    factory = _make_factory(args.store, args.block_size, args.capacity)
    nvram = FileBackedNvram(
        os.path.join(args.store, "nvram.img"), capacity_bytes=args.block_size
    )
    LogService.create(
        block_size=args.block_size,
        degree_n=args.degree,
        volume_capacity_blocks=args.capacity,
        device_factory=factory,
        nvram=nvram,
    )
    print(
        f"initialized Clio store in {args.store}: {args.block_size}-byte "
        f"blocks, N={args.degree}, {args.capacity} blocks/volume"
    )
    return 0


def _cmd_create(args) -> int:
    service = _mount(args.store)
    try:
        log = service.create_log_file(args.path, permissions=args.mode)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"created {log.path} (log file id {log.logfile_id})")
    return 0


def _cmd_ls(args) -> int:
    service = _mount(args.store, read_only=True)
    for name, handle in service.list_dir(args.path).items():
        print(f"{handle.logfile_id:5d}  {name}")
    return 0


def _cmd_append(args) -> int:
    service = _mount(args.store, observability=args.trace)
    if args.stdin:
        raw = sys.stdin.buffer.read()
        payloads = raw.splitlines() if args.lines else [raw]
    elif args.data is not None:
        payloads = [args.data.encode()]
    else:
        print("error: provide DATA or --stdin", file=sys.stderr)
        return 1
    if args.trace:
        return _traced_append(service, args.path, payloads)
    if len(payloads) > 1:
        # One server-side group commit for the whole batch: one IPC and
        # timestamp charge, one tail re-encode, instead of per-line costs.
        results = service.append_many(args.path, payloads)
        last = results[-1]
    else:
        last = service.append(args.path, payloads[0])
    # The CLI process exits after this command, so the batch is synced to
    # the NVRAM sidecar before returning — per-invocation durability.
    service.sync()
    total = sum(len(p) for p in payloads)
    print(
        f"appended {len(payloads)} entr{'y' if len(payloads) == 1 else 'ies'} "
        f"({total} bytes), last ts={last.timestamp}"
    )
    return 0


def _traced_append(service: LogService, path: str, payloads: list[bytes]) -> int:
    """Append through the asynchronous client under one causal trace.

    Routes the batch over an :class:`~repro.vsystem.ipc.AsyncPort` with
    server-side group commit, so the persisted trace shows the full
    request: the client-side flush, the deferred server delivery, and the
    post-reply device force (Section 3.3's delayed-write window).  The
    forced batch is already durable; the trace-log persist performs the
    invocation's sync.
    """
    from repro.core.asyncclient import AsyncLogClient
    from repro.obs.tracelog import TraceLog
    from repro.vsystem.clock import SkewedClock
    from repro.vsystem.ipc import AsyncPort

    trace_log = TraceLog(service)
    log_file = service.open_log_file(path)
    port = AsyncPort(service.clock, tracer=service.tracer)
    client = AsyncLogClient(
        log_file,
        port,
        SkewedClock(service.clock, skew_us=0),
        batch_size=max(len(payloads), 1),
        server_batching=True,
        force_batches=True,
    )
    for payload in payloads:
        client.submit(payload)
    client.flush()
    port.drain()
    trace_log.persist()
    total = sum(len(p) for p in payloads)
    print(
        f"appended {len(payloads)} entr{'y' if len(payloads) == 1 else 'ies'} "
        f"({total} bytes)"
    )
    print(f"trace {client.last_trace_id}")
    return 0


def _cmd_cat(args) -> int:
    service = _mount(
        args.store, read_only=True, readahead_blocks=args.readahead
    )
    count = 0
    iterator = service.read_entries(
        args.path, reverse=args.reverse, since=args.since_us
    )
    for entry in iterator:
        if args.limit is not None and count >= args.limit:
            break
        prefix = f"[{entry.timestamp}] " if args.timestamps else ""
        sys.stdout.write(prefix)
        sys.stdout.flush()
        sys.stdout.buffer.write(entry.data)
        sys.stdout.write("\n")
        count += 1
    return 0


def _cmd_info(args) -> int:
    service = _mount(args.store, read_only=True)
    sequence = service.store.sequence
    config = service.store.config
    print(f"volumes:        {len(sequence.volumes)}")
    for index, volume in enumerate(sequence.volumes):
        written = max(0, volume.next_data_block)
        status = "active" if not volume.is_sealed else "sealed"
        print(
            f"  vol {index}: {written}/{volume.data_capacity} data blocks "
            f"written ({status})"
        )
    print(f"block size:     {config.block_size}")
    print(f"entrymap N:     {config.degree_n}")
    # Space counters are per-session; derive the persistent totals by
    # scanning the volume sequence log file (id 0 = everything).
    client_entries = 0
    client_bytes = 0
    for entry in service.reader.iter_entries(0, start_global=0):
        if entry.logfile_id >= 8:
            client_entries += 1
            client_bytes += len(entry.data)
    print(f"client entries: {client_entries}")
    print(f"client bytes:   {client_bytes}")
    print("log files:")

    def walk(path: str, depth: int) -> None:
        for name, handle in service.list_dir(path).items():
            print(f"  {'  ' * depth}{handle.path}  (id {handle.logfile_id})")
            walk(handle.path, depth + 1)

    walk("/", 0)
    return 0


def _cmd_volumes(args) -> int:
    """List the volume sequence (the offline/online state is a property of
    a running server session; the CLI mounts all images fresh each time)."""
    service = _mount(args.store, read_only=True)
    for index, volume in enumerate(service.store.sequence.volumes):
        written = max(0, volume.next_data_block)
        state = []
        state.append("sealed" if volume.is_sealed else "active")
        state.append("online" if volume.is_online else "offline")
        print(
            f"vol {index}: {written}/{volume.data_capacity} blocks, "
            f"{', '.join(state)}"
        )
    return 0


def _cmd_fsck(args) -> int:
    from repro.core.fsck import check_service

    service = _mount(args.store, read_only=True)
    report = check_service(service)
    print(
        f"checked {report.blocks_checked} blocks, {report.entries_checked} "
        f"entries, {report.entrymap_records_checked} entrymap records, "
        f"{report.catalog_records_checked} catalog records"
    )
    for finding in report.findings:
        location = (
            f"vol {finding.volume_index} block {finding.block}"
            if finding.block is not None
            else f"vol {finding.volume_index}"
        )
        print(f"{finding.severity.upper()}: {location}: {finding.message}")
    if report.clean:
        print("clean")
        return 0
    return 2


def _render_stats_table(service: LogService) -> None:
    from repro.obs.registry import HistogramValue

    for family in service.metrics.collect():
        printed_header = False
        for labels, value in family.samples:
            label_text = (
                "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"
                if labels
                else ""
            )
            if isinstance(value, HistogramValue):
                if value.count == 0:
                    continue  # an unobserved histogram is noise in a table
                mean = value.sum / value.count
                rendered = (
                    f"count={value.count} sum={value.sum:g} mean={mean:g} "
                    f"p50={value.quantile(0.50):g} "
                    f"p95={value.quantile(0.95):g} "
                    f"p99={value.quantile(0.99):g}"
                )
            elif float(value).is_integer():
                rendered = str(int(value))
            else:
                rendered = f"{value:g}"
            if not printed_header:
                print(f"{family.name}  ({family.kind})")
                printed_header = True
            print(f"  {label_text or '-':<24} {rendered}")


def _cmd_stats(args) -> int:
    """Live counters for a store: mount it (running real recovery, which
    itself populates the recovery metric family) and render the registry."""
    service = _mount(args.store, read_only=True, observability=True)
    if args.touch:
        # Exercise one locate + read per named log file so the locate and
        # cache families reflect this store's actual read behaviour.
        for path in args.touch:
            for _ in service.read_entries(path):
                break
    from repro.obs.export import json_snapshot, prometheus_text

    if args.format == "prometheus":
        sys.stdout.write(prometheus_text(service.metrics))
    elif args.format == "json":
        import json

        print(json.dumps(json_snapshot(service.metrics), indent=2, sort_keys=True))
    else:
        _render_stats_table(service)
    return 0


def _cmd_trace_live(args) -> int:
    """Span trees from a traced mount (and optional reads).

    All timestamps are simulated time, so the same store produces the same
    trace on every invocation — diffs between two ``trace live`` runs are
    real behaviour changes, never scheduling noise.
    """
    service = _mount(args.store, read_only=True, observability=True)
    if args.read:
        for path in args.read:
            with service.tracer.span("read", path=path) as sp:
                count = sum(1 for _ in service.read_entries(path))
                sp.set("entries", count)
    from repro.obs.tracing import format_span_tree

    for span in service.tracer.recent():
        print(format_span_tree(span))
    return 0


def _persisted_traces(store: str):
    """Mount ``store`` read-only and fold its ``/traces`` sublog into one
    summary per request, oldest first."""
    from repro.obs.critical_path import per_trace
    from repro.obs.tracelog import read_traces

    try:
        return per_trace(read_traces(_mount(store, read_only=True)))
    except CatalogError:
        raise SystemExit(
            "error: this store has no /traces log "
            "(run `clio append --trace` to record one)"
        )


def _persisted_trace(store: str, trace_id: str):
    """The summary of one persisted request, or None (after an ``error:``
    line) when no trace has that id."""
    for summary in _persisted_traces(store):
        if summary.key == trace_id:
            return summary
    print(f"error: no persisted trace {trace_id!r}", file=sys.stderr)
    return None


def _cmd_trace_show(args) -> int:
    """One persisted trace's span forest."""
    from repro.obs.tracing import format_span_tree

    summary = _persisted_trace(args.store, args.trace_id)
    if summary is None:
        return 1
    if args.format == "json":
        import json

        forest = [span.as_dict() for span in summary.roots]
        print(json.dumps(forest, indent=2, sort_keys=True))
        return 0
    for root in summary.roots:
        print(format_span_tree(root))
    return 0


def _cmd_why(args) -> int:
    """From "this request was slow" to the layer responsible: list the
    persisted requests, rank them, or explain one — its critical path by
    layer, charged time per layer, and Section 3's component accounting."""
    from repro.obs.critical_path import format_explanation, format_summary_line

    if args.component is not None and args.slowest is None:
        print("error: --component ranks traces; use it with --slowest", file=sys.stderr)
        return 2
    if args.trace is not None:
        chosen = _persisted_trace(args.store, args.trace)
        if chosen is None:
            return 1
        print(format_explanation(chosen))
        return 0
    summaries = _persisted_traces(args.store)
    if args.slowest is not None:
        summaries.sort(
            key=lambda s: (-s.cost_ms(args.component), s.start_us, s.key)
        )
        summaries = summaries[: max(0, args.slowest)]
    if not summaries:
        print("no persisted traces")
    elif args.slowest == 1:
        print(format_explanation(summaries[0]))
    else:
        for summary in summaries:
            print(format_summary_line(summary))
    return 0


def _cmd_events(args) -> int:
    """The structured event journal for a mount (and optional reads).

    Mounting itself emits the recovery-phase events, so even a bare
    ``clio events STORE`` shows the store's latest recovery as a timeline.
    """
    from repro.obs.events import format_event

    service = _mount(args.store, read_only=True, observability=True)
    if args.read:
        for path in args.read:
            for _ in service.read_entries(path):
                pass
    events = service.journal.events()
    if args.kind:
        events = [event for event in events if event.kind == args.kind]
    if args.limit is not None:
        events = events[-args.limit :] if args.limit > 0 else []
    if not events:
        print("no events recorded")
        return 0
    for event in events:
        print(format_event(event))
    dropped = getattr(service.journal, "dropped", 0)
    if dropped:
        print(f"({dropped} older events dropped from the ring)")
    return 0


def _cmd_health(args) -> int:
    """Evaluate SLO rules against a store; exit 1 when alerts fire, 2 on
    a bad ``--rule``.

    The default ruleset checks the paper's own bounds (recovery and locate
    model deltas) plus cache and corruption health; ``--rule`` adds custom
    threshold/ratio rules (see ``repro.obs.slo.parse_rule`` for syntax).
    """
    from repro.obs.slo import (
        Alert,
        AlertLog,
        SloEngine,
        default_ruleset,
        format_alert,
        parse_rule,
    )

    service = _mount(
        args.store, read_only=not args.persist, observability=True
    )
    if args.read:
        for path in args.read:
            for _ in service.read_entries(path):
                pass
    rules = default_ruleset()
    bad = 0
    for spec in args.rule or []:
        try:
            rule = parse_rule(spec)
            rule.check(service)  # resolves every metric the rule names
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            bad += 1
        else:
            rules.append(rule)
    if bad:
        return 2
    alert_log = AlertLog(service) if args.persist else None
    engine = SloEngine(service, rules=rules, alert_log=alert_log)
    fired = engine.evaluate()
    if args.show_log:
        for payload in _log_payloads(service, "/alerts") or []:
            print(f"(history) {format_alert(Alert.decode(payload))}")
    if not fired:
        print(f"healthy: {len(rules)} rules evaluated, 0 alerts")
        return 0
    for alert in fired:
        print(format_alert(alert))
    if args.persist:
        print(f"({len(fired)} alerts appended to /alerts)")
    return 1


def _scored_run(args, run_once, summary: str, section: str):
    """Run a deterministic harness (twice under ``--check-determinism``),
    print ``summary`` filled from the record's ``section`` and write
    ``--out``.  ``run_once`` returns the artifact record.  Returns
    ``(record, 0)``, or ``(None, exit code)`` when there is nothing to
    score."""
    from repro.obs.canonical import canonical_json

    try:
        record = run_once()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, 1
    artifact = canonical_json(record)
    if args.check_determinism:
        if canonical_json(run_once()) != artifact:
            print(
                "determinism: ARTIFACTS DIFFER between two identical runs",
                file=sys.stderr,
            )
            return None, 2
        print("determinism: artifact byte-identical across two runs")
    print(summary.format(**record[section]))
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(artifact + "\n")
        print(f"(wrote {args.out})")
    return record, 0


def _cmd_campaign_run(args) -> int:
    """Run the deterministic fault campaign; exit 2 on any silent miss,
    control mismatch, or determinism failure (see docs/FAULTS.md)."""
    from repro.obs import campaign

    record, code = _scored_run(
        args,
        lambda: campaign.run_campaign(args.menu).as_dict(),
        "fault campaign: menu={menu} faults={faults} detected={detected} "
        "coverage={coverage:.0%} passed={passed}",
        "campaign",
    )
    if record is None:
        return code
    summary = record["campaign"]
    if summary["silent_misses"]:
        print(
            "FAIL: silent misses (fault detected by no channel): "
            + ", ".join(summary["silent_misses"]),
            file=sys.stderr,
        )
        return 2
    if not summary["passed"]:
        print(
            "FAIL: no-fault control drive diverged from the plain workload",
            file=sys.stderr,
        )
        return 2
    return 0


def _cmd_workload_run(args) -> int:
    """Replay a long-horizon workload profile; exit 2 on an attribution
    shortfall, an alert-log divergence, a silent miss in the under-load
    campaign, or a determinism failure (see docs/WORKLOADS.md)."""
    from repro.obs import workload

    menu = args.campaign or None
    record, code = _scored_run(
        args,
        lambda: workload.run_workload(args.profile, menu=menu),
        "workload run: {run_id} profile={profile} seed={seed} "
        "ops={ops} sim_days={sim_days} passed={passed}",
        "run",
    )
    if record is None:
        return code
    run = record["run"]
    if args.register:
        path = workload.register_run(args.register, record)
        print(f"(registered {run['run_id']} -> {path})")
    if not run["passed"]:
        for reason in run["failures"]:
            print(f"FAIL: {reason}", file=sys.stderr)
        return 2
    return 0


def _cmd_workload_index(args) -> int:
    """Verify the run catalog: exit 2 on a missing directory or INDEX.csv,
    a missing or uncataloged artifact, or a digest mismatch."""
    from repro.obs import workload

    problems = workload.verify_index(args.runs_dir)
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        return 2
    rows = workload.read_index(args.runs_dir)
    print(f"catalog verified: {len(rows)} run(s), all digests match")
    return 0


# ---------------------------------------------------------------------- #
# Argument parsing
# ---------------------------------------------------------------------- #


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clio", description="Clio log files on write-once storage"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("init", help="initialize a new store directory")
    p.add_argument("store")
    p.add_argument("--block-size", type=int, default=1024)
    p.add_argument("--degree", type=int, default=16)
    p.add_argument("--capacity", type=int, default=4096, help="blocks per volume")
    p.set_defaults(handler=_cmd_init)

    p = commands.add_parser("create", help="create a log file / sublog")
    p.add_argument("store")
    p.add_argument("path")
    p.add_argument("--mode", type=lambda v: int(v, 8), default=0o644)
    p.set_defaults(handler=_cmd_create)

    p = commands.add_parser("ls", help="list sublogs of a log file")
    p.add_argument("store")
    p.add_argument("path", nargs="?", default="/")
    p.set_defaults(handler=_cmd_ls)

    p = commands.add_parser("append", help="append one entry")
    p.add_argument("store")
    p.add_argument("path")
    p.add_argument("data", nargs="?", default=None)
    p.add_argument("--stdin", action="store_true")
    p.add_argument(
        "--lines",
        action="store_true",
        help="with --stdin: append each input line as its own entry",
    )
    p.add_argument(
        "--trace",
        action="store_true",
        help="append via the async client under one causal trace, persist "
        "it to /traces, and print the trace id",
    )
    p.set_defaults(handler=_cmd_append)

    p = commands.add_parser("cat", help="print a log file's entries")
    p.add_argument("store")
    p.add_argument("path")
    p.add_argument("--reverse", action="store_true")
    p.add_argument("--since-us", type=int, default=None)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--timestamps", action="store_true")
    p.add_argument(
        "--readahead",
        type=int,
        default=0,
        metavar="BLOCKS",
        help="sequential read-ahead window in blocks (0 = off, the "
        "paper's one-block-per-access model)",
    )
    p.set_defaults(handler=_cmd_cat)

    p = commands.add_parser("info", help="store summary")
    p.add_argument("store")
    p.set_defaults(handler=_cmd_info)

    p = commands.add_parser("fsck", help="consistency check")
    p.add_argument("store")
    p.set_defaults(handler=_cmd_fsck)

    p = commands.add_parser("volumes", help="list the volume sequence")
    p.add_argument("store")
    p.set_defaults(handler=_cmd_volumes)

    # The operator verbs (``operator=True``): docs/OBSERVABILITY.md names
    # the question each answers and what reads each flag.
    p = commands.add_parser(
        "stats", help="live metrics for a store (device/cache/locate/recovery)"
    )
    p.add_argument("store")
    p.add_argument(
        "--format",
        choices=("table", "prometheus", "json"),
        default="table",
        help="output format (default: table)",
    )
    p.add_argument(
        "--touch",
        action="append",
        metavar="PATH",
        help="read one entry of PATH first so locate/cache counters move "
        "(repeatable)",
    )
    p.set_defaults(handler=_cmd_stats, operator=True)

    p = commands.add_parser(
        "trace", help="sim-time span trees: live mounts and the /traces log"
    )
    trace_commands = p.add_subparsers(dest="trace_command", required=True)

    tp = trace_commands.add_parser(
        "live", help="trace a fresh mount (and optional reads) in-process"
    )
    tp.add_argument("store")
    tp.add_argument(
        "--read",
        action="append",
        metavar="PATH",
        help="also trace a full read of PATH (repeatable)",
    )
    tp.set_defaults(handler=_cmd_trace_live, operator=True)

    tp = trace_commands.add_parser(
        "show", help="one persisted trace's span forest"
    )
    tp.add_argument("store")
    tp.add_argument("trace_id")
    tp.add_argument("--format", choices=("tree", "json"), default="tree")
    tp.set_defaults(handler=_cmd_trace_show, operator=True)

    p = commands.add_parser(
        "why",
        help="why was a request slow: persisted traces listed, ranked, or "
        "one explained layer by layer",
    )
    p.add_argument("store")
    selector = p.add_mutually_exclusive_group()
    selector.add_argument(
        "--trace", metavar="ID", help="explain the persisted trace ID"
    )
    selector.add_argument(
        "--slowest",
        type=int,
        nargs="?",
        const=1,
        metavar="N",
        help="rank by busy time and list the top N (explain it when N is 1, "
        "the default)",
    )
    p.add_argument(
        "--component",
        metavar="NAME",
        help="with --slowest: rank by one cost component (e.g. device, ipc) "
        "instead of busy time",
    )
    p.set_defaults(handler=_cmd_why, operator=True)

    p = commands.add_parser(
        "events", help="structured event journal for a mount"
    )
    p.add_argument("store")
    p.add_argument(
        "--read",
        action="append",
        metavar="PATH",
        help="also read PATH so its events appear (repeatable)",
    )
    p.add_argument("--kind", help="only events of this kind")
    p.add_argument("--limit", type=int, default=None, help="newest N events")
    p.set_defaults(handler=_cmd_events, operator=True)

    p = commands.add_parser(
        "health", help="evaluate SLO rules; nonzero exit on alerts"
    )
    p.add_argument("store")
    p.add_argument(
        "--rule",
        action="append",
        metavar="SPEC",
        help="extra rule, e.g. 'clio_cache_hit_ratio < 0.5 [critical]' "
        "(repeatable)",
    )
    p.add_argument(
        "--read",
        action="append",
        metavar="PATH",
        help="read PATH first so read-side rules see traffic (repeatable)",
    )
    p.add_argument(
        "--persist",
        action="store_true",
        help="append fired alerts to the /alerts sublog (writable mount)",
    )
    p.add_argument(
        "--show-log",
        action="store_true",
        help="also print previously persisted alerts from /alerts",
    )
    p.set_defaults(handler=_cmd_health, operator=True)

    # Listed for ``clio --help`` only: main() hands ``clio lint ...`` to the
    # linter's own parser, so no other verb pays for importing repro.lint.
    commands.add_parser(
        "lint",
        add_help=False,
        help="run the clio-lint invariant analyzer (see docs/LINTING.md)",
    )

    p = commands.add_parser(
        "campaign",
        help="deterministic fault-injection campaign (silent-miss gate)",
    )
    campaign_commands = p.add_subparsers(
        dest="campaign_command", required=True
    )

    cp = campaign_commands.add_parser(
        "run",
        help="inject every fault of a menu on throwaway stores and score "
        "detection coverage",
    )
    cp.add_argument(
        "--menu",
        default="small",
        help="fault menu: small (CI smoke) or full (default: small)",
    )
    cp.add_argument(
        "--out", metavar="FILE", help="write the coverage-matrix JSON to FILE"
    )
    cp.add_argument(
        "--check-determinism",
        action="store_true",
        help="run the campaign twice and require byte-identical artifacts "
        "(exit 2 if not)",
    )
    cp.set_defaults(handler=_cmd_campaign_run)

    p = commands.add_parser(
        "workload",
        help="year-in-the-life workload observatory: long-horizon replay, "
        "run catalog, fault campaigns under load",
    )
    workload_commands = p.add_subparsers(
        dest="workload_command", required=True
    )

    wp = workload_commands.add_parser(
        "run",
        help="replay a phased traffic profile against an observable "
        "service and score it through the four obs channels",
    )
    wp.add_argument(
        "--profile",
        default="smoke",
        help="workload profile: smoke (CI) or year (default: smoke)",
    )
    wp.add_argument(
        "--campaign",
        metavar="MENU",
        help="also re-prove the fault menu (small/full) injected "
        "mid-replay under this profile's load",
    )
    wp.add_argument(
        "--out", metavar="FILE", help="write the run-artifact JSON to FILE"
    )
    wp.add_argument(
        "--register",
        metavar="RUNS_DIR",
        help="register the run (artifact + INDEX.csv row) in the catalog "
        "directory",
    )
    wp.add_argument(
        "--check-determinism",
        action="store_true",
        help="run the profile twice and require byte-identical artifacts "
        "(exit 2 if not)",
    )
    wp.set_defaults(handler=_cmd_workload_run)

    wp = workload_commands.add_parser(
        "index",
        help="verify the benchmarks/runs catalog: every artifact cataloged "
        "and its SHA-256 matching; exit 2 otherwise",
    )
    wp.add_argument(
        "runs_dir",
        nargs="?",
        default="benchmarks/runs",
        help="catalog directory (default: benchmarks/runs)",
    )
    wp.set_defaults(handler=_cmd_workload_index)

    return parser


def operator_verbs() -> dict[str, list[str]]:
    """Each operator verb (``"trace show"``) with its arguments, read off
    :func:`build_parser` — what ``docs/OBSERVABILITY.md``'s verb table
    must list and ``scripts/check.sh`` counts."""
    verbs: dict[str, list[str]] = {}

    def walk(parser: argparse.ArgumentParser, name: str) -> None:
        if parser.get_default("operator"):
            verbs[name] = [
                action.option_strings[0] if action.option_strings else action.dest
                for action in parser._actions
                if action.dest != "help"
            ]
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for verb, child in action.choices.items():
                    walk(child, f"{name} {verb}".strip())

    walk(build_parser(), "")
    return verbs


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["lint"]:
        from repro.lint.cli import main as lint_main

        return lint_main(argv[1:])
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
