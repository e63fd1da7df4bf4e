"""The unified command-line front-end: ``python -m repro <command>``.

Nine commands, built on the :class:`repro.api.Session` facade and the
deterministic TPC-DS-like benchmark environment (``--scale``, ``--queries``,
``--workload`` and the seeds fully determine the workload, so two processes
passing the same flags compute the same store fingerprint):

* ``summarize``  — build the benchmark workload's summary into the store
  (one process pays the LP solves);
* ``resummarize`` — incrementally re-summarize a drifted workload against
  the warm ``--base-queries`` epoch: only the constraint-graph components
  the drift touched are solved, the rest reuse cached solutions verbatim,
  and the new epoch is lineage-linked to its parent in the store;
* ``diff``       — per-component reuse report between two stored workload
  epochs, plus the newer epoch's lineage chain;
* ``regenerate`` — regenerate the database from a summary and report (or
  stream) its relations, optionally at a different ``--scale-factor``;
* ``verify``     — run the full loop (extract → summarize → regenerate →
  verify) and print the volumetric-similarity report;
* ``serve``      — stream a relation through the serving front-end, or,
  with ``--listen HOST:PORT``, run the HTTP front-end
  (:class:`repro.server.RegenerationServer`) until SIGTERM/SIGINT
  (``--require-warm`` exits :data:`EXIT_NOT_WARM` if the request is not
  already stored — before binding the socket in ``--listen`` mode — the
  CI smoke job's cross-process zero-solve assertion);
* ``stats``      — print store counters (``--entries`` lists the stored
  summaries; ``--tenants`` adds the per-tenant admission telemetry note;
  ``--metrics``/``--prometheus``/``--json`` export the full
  :mod:`repro.obs` metrics registry as a flat snapshot, Prometheus text
  exposition, or machine-readable JSON; ``--url http://host:port``
  fetches ``/v1/stats`` / ``/metrics`` from a running server instead of
  opening a directory);
* ``trace``      — run one traced submit → result → stream request at
  sample rate 1.0 and emit the finished spans as JSONL (stdout or
  ``--output``), ready for :func:`repro.obs.build_tree`;
* ``gc``         — one store GC pass: TTL expiration plus LRU eviction
  down to ``--max-store-bytes`` / ``--max-entries`` caps.
"""

from __future__ import annotations

import argparse
import sys
import threading
from typing import Callable, List, Optional, Tuple

from repro.api.config import DEFAULT_BATCH_SIZE, RegenConfig
from repro.api.session import Session
from repro.constraints.workload import ConstraintSet
from repro.errors import ReproError, ServiceError
from repro.schema.schema import Schema
from repro.service.service import check_scale

#: ``serve --require-warm`` exit code when the store could not serve the
#: request without running the pipeline.
EXIT_NOT_WARM = 3

#: The ``RegenConfig`` knobs a command's flags may set (under the same
#: ``dest`` name); a flag a command does not define keeps the default.
CONFIG_FLAGS = ("workers", "trace_sample", "log_format", "batch_size",
                "max_connections", "request_timeout", "cursor_idle_timeout",
                "max_request_bytes")


def _benchmark_environment(args: argparse.Namespace) -> Tuple[Schema, ConstraintSet, "Workload", "Database"]:
    """Rebuild the deterministic benchmark environment named by the flags."""
    from repro.benchdata.datagen import generate_database
    from repro.benchdata.tpcds import complex_workload, simple_workload, tpcds_schema
    from repro.hydra.client import extract_constraints

    schema = tpcds_schema(scale_factor=args.scale)
    database = generate_database(schema, seed=args.datagen_seed)
    factory = complex_workload if args.workload == "complex" else simple_workload
    workload = factory(schema, num_queries=args.queries, seed=args.workload_seed)
    package = extract_constraints(database, workload)
    return schema, package.constraints, workload, database


def _config(args: argparse.Namespace) -> RegenConfig:
    knobs = {name: getattr(args, name) for name in CONFIG_FLAGS
             if getattr(args, name, None) is not None}
    return RegenConfig(**knobs)


def _session(args: argparse.Namespace, schema: Schema) -> Session:
    return Session(schema, config=_config(args),
                   store=getattr(args, "store", None))


def _print_stats(service: "RegenerationService") -> None:
    stats = service.service_stats()
    keys = ("requests", "hits", "misses", "inflight_dedup",
            "rejected_submissions", "pipeline_runs", "pipeline_failures",
            "queue_depth", "batches_streamed",
            "solver_components_solved", "solver_cache_hits",
            "solver_cache_misses", "summaries", "components", "store_bytes",
            "corrupt_entries", "evictions", "expirations", "gc_runs")
    print(" ".join(f"{key}={stats.counters.get(key, 0)}" for key in keys))
    for row in stats.tenants:
        print(f"  tenant={row.tenant} admitted={row.admitted}"
              f" rejected={row.rejected} completed={row.completed}"
              f" failed={row.failed} queued={row.queued} running={row.running}")


# ---------------------------------------------------------------------- #
# commands
# ---------------------------------------------------------------------- #
def _cmd_summarize(args: argparse.Namespace) -> int:
    schema, constraints, _, _ = _benchmark_environment(args)
    session = _session(args, schema)
    with session.serve() as service:
        ticket = service.submit(constraints, tenant=args.tenant)
        summary = ticket.result()
        print(f"fingerprint={ticket.fingerprint}")
        print(f"warm={ticket.warm} relations={len(summary.relations)}"
              f" total_rows={summary.total_rows()} summary_bytes={summary.nbytes()}")
        print(f"content_digest={summary.content_digest()}")
        _print_stats(service)
    return 0


def _cmd_resummarize(args: argparse.Namespace) -> int:
    """Incrementally re-summarize a drifted benchmark workload.

    The base epoch is the benchmark workload with ``--base-queries`` queries
    (same seeds, so it is a prefix of the drifted ``--queries`` workload);
    it must already be warm in the store unless ``--build-base`` is given.
    Only the constraint-graph components the drift touched are solved; the
    rest are reused verbatim from the component-solution cache.
    """
    from repro.benchdata.tpcds import complex_workload, simple_workload
    from repro.hydra.client import extract_constraints

    schema, drift_constraints, _, database = _benchmark_environment(args)
    factory = complex_workload if args.workload == "complex" else simple_workload
    base_workload = factory(schema, num_queries=args.base_queries,
                            seed=args.workload_seed)
    base_constraints = extract_constraints(database, base_workload).constraints
    session = _session(args, schema)
    with session.serve() as service:
        base_fingerprint = service.fingerprint(base_constraints)
        if not service.store.has_summary(base_fingerprint):
            if not args.build_base:
                print(f"base fingerprint={base_fingerprint} is not in the"
                      " store; warm it first (or pass --build-base)",
                      file=sys.stderr)
                return EXIT_NOT_WARM
            service.submit(base_constraints, tenant=args.tenant).result()
        report = service.resummarize(base_fingerprint, drift_constraints,
                                     tenant=args.tenant)
        print(f"fingerprint={report.fingerprint}")
        print(f"parent_fingerprint={report.parent_fingerprint}")
        print(f"warm={report.warm}"
              f" components_total={report.total_components}"
              f" components_reused={len(report.reused_components)}"
              f" components_solved={len(report.solved_components)}"
              f" components_retired={len(report.retired_components)}")
        print(f"content_digest={report.summary.content_digest()}")
        _print_stats(service)
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    """Per-component reuse report between two stored workload epochs."""
    from repro.benchdata.tpcds import tpcds_schema

    service = _session(args, tpcds_schema(scale_factor=args.scale)).service
    report = service.diff(args.fingerprint_a, args.fingerprint_b)
    reuse_ratio = len(report.reused) / report.total if report.total else 1.0
    print(f"epoch_a={args.fingerprint_a}")
    print(f"epoch_b={args.fingerprint_b}")
    print(f"components_total={report.total}"
          f" reused={len(report.reused)} added={len(report.added)}"
          f" retired={len(report.retired)}"
          f" reuse_ratio={reuse_ratio:.4f}")
    for label, keys in (("reused", report.reused), ("added", report.added),
                        ("retired", report.retired)):
        for key in keys:
            print(f"  {label} component={key[:16]}")
    lineage = service.lineage(args.fingerprint_b)
    if len(lineage) > 1:
        chain = " -> ".join(str(link["fingerprint"])[:12] for link in lineage)
        print(f"lineage: {chain}")
    return 0


def _cmd_regenerate(args: argparse.Namespace) -> int:
    check_scale(args.scale_factor)
    if args.fingerprint is not None:
        # Loading a stored fingerprint needs no client database or workload
        # re-derivation — only the schema shape.
        from repro.benchdata.tpcds import tpcds_schema

        session = _session(args, tpcds_schema(scale_factor=args.scale))
        handle = session.load(args.fingerprint)
    else:
        schema, constraints, _, _ = _benchmark_environment(args)
        session = _session(args, schema)
        handle = session.summarize(constraints)
    service, scale = session.service, args.scale_factor
    counts = service.database(handle.fingerprint, scale=scale).row_counts()
    print(f"fingerprint={handle.fingerprint}"
          f" warm={handle.from_store} scale_factor={scale}")
    for relation, rows in sorted(counts.items()):
        print(f"  relation={relation} rows={rows}")
    if args.relation is not None:
        rows = 0
        batches = 0
        for batch in service.stream(handle.fingerprint, args.relation,
                                    batch_size=args.batch_size, scale=scale):
            rows += batch.num_rows
            batches += 1
            if args.max_batches is not None and batches >= args.max_batches:
                break
        print(f"streamed relation={args.relation} batches={batches} rows={rows}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    check_scale(args.scale_factor)
    schema, constraints, _, _ = _benchmark_environment(args)
    session = _session(args, schema)
    handle = session.summarize(constraints)
    report = session.verify(handle, scale=args.scale_factor)
    print(f"fingerprint={handle.fingerprint} warm={handle.from_store}")
    print(f"verified constraints={len(report.results)}"
          f" max_error={report.max_error():.6f}"
          f" fraction_exact={report.fraction_exact():.4f}"
          f" fraction_within_10pct={report.fraction_within(0.1):.4f}")
    return 0


def _parse_listen(spec: str) -> Tuple[str, int]:
    """Parse ``HOST:PORT`` (an empty host keeps the config default)."""
    host, sep, port_text = spec.rpartition(":")
    try:
        if not sep:
            raise ValueError("missing ':'")
        port = int(port_text)
        if not 0 <= port <= 65535:
            raise ValueError(f"port {port} out of range")
    except ValueError as error:
        raise ServiceError(
            f"bad --listen {spec!r} (want HOST:PORT): {error}") from None
    return host, port


def _cmd_serve_listen(args: argparse.Namespace) -> int:
    """``serve --listen``: run the HTTP front-end until SIGTERM/SIGINT."""
    from repro.server import RegenerationServer

    host, port = _parse_listen(args.listen)
    if args.fingerprint is not None:
        # Serving stored fingerprints needs no client database or workload
        # re-derivation — only the schema shape.
        from repro.benchdata.tpcds import tpcds_schema

        schema, constraints = tpcds_schema(scale_factor=args.scale), None
    else:
        schema, constraints, _, _ = _benchmark_environment(args)
    session = _session(args, schema)
    with session.serve() as service:
        fingerprint = args.fingerprint or service.fingerprint(constraints)
        warm = service.store.has_summary(fingerprint)
        if args.require_warm and not warm:
            # Refuse before binding the socket: a cold --require-warm server
            # would answer 409 to everything it exists to serve.
            print(f"fingerprint={fingerprint} is not in the store; refusing"
                  " to serve --require-warm", file=sys.stderr)
            return EXIT_NOT_WARM
        server = RegenerationServer(service, host or None, port,
                                    require_warm=args.require_warm)
        _run_until_signal(
            f"listening on http://{server.host}:{server.port}"
            f" fingerprint={fingerprint} warm={warm}"
            f" require_warm={args.require_warm}",
            server.shutdown, server.serve_forever)
        _print_stats(service)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.listen is not None:
        return _cmd_serve_listen(args)
    if args.relation is None:
        print("serve: --relation is required without --listen",
              file=sys.stderr)
        return 2
    if args.fingerprint is not None:
        # Serving a stored fingerprint needs no client database or workload
        # re-derivation — only the schema shape.
        from repro.benchdata.tpcds import tpcds_schema

        schema, constraints = tpcds_schema(scale_factor=args.scale), None
    else:
        schema, constraints, _, _ = _benchmark_environment(args)
    session = _session(args, schema)
    with session.serve() as service:
        fingerprint = args.fingerprint or service.fingerprint(constraints)
        warm = service.store.has_summary(fingerprint)
        if not warm and (args.require_warm or constraints is None):
            print(f"fingerprint={fingerprint} is not in the store; refusing to"
                  " run the pipeline", file=sys.stderr)
            return EXIT_NOT_WARM
        if not warm:
            # Tag the cold build with the caller's tenant, then stream the
            # (now stored) fingerprint like any warm consumer.
            service.submit(constraints, tenant=args.tenant).result()
        request: "ConstraintSet | str" = fingerprint
        rows = 0
        batches = 0
        for batch in service.stream(request, args.relation,
                                    batch_size=args.batch_size):
            rows += batch.num_rows
            batches += 1
            if args.max_batches is not None and batches >= args.max_batches:
                break
        print(f"fingerprint={fingerprint}")
        print(f"served relation={args.relation} batches={batches} rows={rows}"
              f" warm={warm}")
        _print_stats(service)
        if args.require_warm and service.stats()["pipeline_runs"] > 0:
            print("pipeline ran despite --require-warm", file=sys.stderr)
            return EXIT_NOT_WARM
    return 0


def _fetch_remote_stats(args: argparse.Namespace) -> int:
    """``stats --url``: scrape ``/v1/stats`` (or ``/metrics``) from a
    running :class:`repro.server.RegenerationServer` instead of opening a
    directory."""
    import json
    import urllib.request

    base = args.url.rstrip("/")
    if args.prometheus or args.metrics:
        with urllib.request.urlopen(base + "/metrics", timeout=10) as response:
            sys.stdout.write(response.read().decode("utf-8"))
        return 0
    with urllib.request.urlopen(base + "/v1/stats", timeout=10) as response:
        payload = json.loads(response.read().decode("utf-8"))
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    flat = {key: value for key, value in payload.items()
            if not isinstance(value, (dict, list))}
    print(" ".join(f"{key}={value}" for key, value in sorted(flat.items())))
    for key, nested in sorted(payload.items()):
        if isinstance(nested, dict):
            line = " ".join(f"{k}={v}" for k, v in sorted(nested.items())
                            if not isinstance(v, (dict, list)))
            if line:
                print(f"  {key}: {line}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.service.store import SummaryStore

    if args.url is not None:
        return _fetch_remote_stats(args)
    if args.store is None:
        print("stats: one of --store or --url is required", file=sys.stderr)
        return 2
    store = SummaryStore(args.store)
    if args.json or args.prometheus or args.metrics:
        # Refresh the store gauges, then export the registry whole.
        store.counters()
        if args.json:
            print(store.registry.to_json(indent=2))
        elif args.prometheus:
            sys.stdout.write(store.registry.to_prometheus())
        else:
            for series, value in sorted(store.registry.snapshot().items()):
                print(f"{series} {value}")
        return 0
    if args.entries:
        entries = store.entries()
        print(f"store={args.store} format=1 summaries={len(entries)}"
              f" store_bytes={store.store_bytes()}")
        for entry in entries:
            fingerprint = entry.pop("fingerprint")
            detail = " ".join(f"{k}={v}" for k, v in sorted(entry.items()))
            print(f"  {fingerprint} {detail}")
        return 0
    print(" ".join(f"{key}={value}" for key, value in sorted(store.counters().items())))
    if args.tenants:
        # Per-tenant admission counters live in each serving process (see
        # summarize/serve output); an offline store has none to report.
        print("tenants=0 (per-tenant admission telemetry is per serving"
              " process; summarize/serve print it via --tenant)")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """One traced request — submit, await the summary, stream a relation —
    at sample rate 1.0, emitting the finished spans as JSONL.

    Progress goes to stderr so stdout stays pure JSONL (pipeable straight
    into ``repro.obs.parse_jsonl``/``build_tree``).
    """
    from repro.obs.trace import get_tracer, span as trace_span

    schema, constraints, _, _ = _benchmark_environment(args)
    args.trace_sample = 1.0
    session = _session(args, schema)
    tracer = get_tracer()
    tracer.clear()
    with session.serve() as service:
        with trace_span("cli.trace") as root:
            ticket = service.submit(constraints, tenant=args.tenant)
            summary = ticket.result()
            relation = args.relation or sorted(summary.relations)[0]
            rows = 0
            batches = 0
            for batch in service.stream(ticket.fingerprint, relation,
                                        batch_size=args.batch_size,
                                        tenant=args.tenant):
                rows += batch.num_rows
                batches += 1
                if args.max_batches is not None and batches >= args.max_batches:
                    break
            root.set_attribute("relation", relation)
            root.set_attribute("batches", batches)
            root.set_attribute("rows", rows)
    if args.output is not None:
        count = tracer.export(args.output)
        print(f"wrote {count} spans to {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(tracer.to_jsonl())
    print(f"traced fingerprint={ticket.fingerprint} warm={ticket.warm}"
          f" relation={relation} batches={batches} rows={rows}"
          f" spans={len(tracer.spans())}", file=sys.stderr)
    return 0


def _run_until_signal(banner: str, on_signal: "Callable[[], None]",
                      run: "Callable[[], None]") -> None:
    """Print ``banner``, then ``run()`` until SIGTERM/SIGINT drains it via
    ``on_signal``.

    The drain runs on a helper thread because shutdown calls block until
    the serving loop exits — triggering them inside the handler would
    deadlock the process.  The banner goes out only once the handlers are
    installed, so a supervisor may signal as soon as it has read it.
    """
    import signal

    threads: List[threading.Thread] = []

    def _handle(signum: int, frame: object) -> None:
        thread = threading.Thread(target=on_signal, name="repro-shutdown",
                                  daemon=True)
        threads.append(thread)
        thread.start()

    signal.signal(signal.SIGTERM, _handle)
    signal.signal(signal.SIGINT, _handle)
    print(banner, flush=True)
    run()
    for thread in threads:
        thread.join()


def _cmd_gc(args: argparse.Namespace) -> int:
    """One store GC pass: TTL expiration + LRU eviction down to the caps
    given on the command line (absent flags mean "no limit" for this pass)."""
    from repro.service.store import SummaryStore

    store = SummaryStore(args.store)
    report = store.compact(max_store_bytes=args.max_store_bytes,
                           max_entries=args.max_entries,
                           ttl_seconds=args.ttl_seconds)
    keys = ("expired", "evicted", "reclaimed_bytes", "summaries",
            "components", "store_bytes")
    print(" ".join(f"{key}={report.get(key, 0)}" for key in keys))
    return 0


# ---------------------------------------------------------------------- #
# parser
# ---------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Summarize, regenerate, verify and serve benchmark"
                    " workloads through the repro.api session facade.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_env(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scale", type=float, default=0.0002,
                       help="TPC-DS scale factor of the client instance")
        p.add_argument("--queries", type=int, default=10,
                       help="number of workload queries")
        p.add_argument("--workload", choices=("simple", "complex"),
                       default="simple")
        p.add_argument("--workload-seed", type=int, default=3)
        p.add_argument("--datagen-seed", type=int, default=7)
        p.add_argument("--workers", type=int, default=2,
                       help="LP solver workers for cold builds")
        p.add_argument("--tenant", default="default",
                       help="tenant tag for fair cold-build admission")
        p.add_argument("--trace-sample", type=float, default=0.0,
                       dest="trace_sample",
                       help="request-trace sampling rate in [0, 1]")
        p.add_argument("--log-format", choices=("text", "json"),
                       default="text", dest="log_format",
                       help="handler format for repro.* log events")

    summarize = sub.add_parser(
        "summarize", help="build the benchmark workload's summary into the store")
    summarize.add_argument("--store", required=True, help="store directory")
    add_env(summarize)
    summarize.set_defaults(func=_cmd_summarize)

    resummarize = sub.add_parser(
        "resummarize",
        help="incrementally re-summarize a drifted workload against the"
             " warm --base-queries epoch (component-level delta solving)")
    resummarize.add_argument("--store", required=True, help="store directory")
    add_env(resummarize)
    resummarize.add_argument("--base-queries", type=int, required=True,
                             dest="base_queries",
                             help="query count of the warm base epoch (same"
                                  " seeds, so it is a prefix of --queries)")
    resummarize.add_argument("--build-base", action="store_true",
                             dest="build_base",
                             help="cold-build the base epoch if it is not in"
                                  " the store (default: exit 3)")
    resummarize.set_defaults(func=_cmd_resummarize)

    diff = sub.add_parser(
        "diff", help="per-component reuse report between two stored epochs")
    diff.add_argument("fingerprint_a", help="base epoch fingerprint")
    diff.add_argument("fingerprint_b", help="new epoch fingerprint")
    diff.add_argument("--store", required=True, help="store directory")
    diff.add_argument("--scale", type=float, default=0.0002,
                      help="TPC-DS scale factor (schema shape only)")
    diff.add_argument("--workers", type=int, default=2)
    diff.set_defaults(func=_cmd_diff)

    regenerate = sub.add_parser(
        "regenerate", help="regenerate the database from a summary")
    regenerate.add_argument("--store", default=None, help="store directory")
    add_env(regenerate)
    regenerate.add_argument("--fingerprint", default=None,
                            help="load this stored fingerprint instead of"
                                 " building the benchmark summary")
    regenerate.add_argument("--scale-factor", type=float, default=1.0,
                            help="regenerate at this multiple of the"
                                 " summarized volume")
    regenerate.add_argument("--relation", default=None,
                            help="also stream this relation in batches")
    regenerate.add_argument("--batch-size", type=int, default=DEFAULT_BATCH_SIZE)
    regenerate.add_argument("--max-batches", type=int, default=None)
    regenerate.set_defaults(func=_cmd_regenerate)

    verify = sub.add_parser(
        "verify", help="extract, summarize, regenerate and verify end to end")
    verify.add_argument("--store", default=None, help="store directory")
    add_env(verify)
    verify.add_argument("--scale-factor", type=float, default=1.0,
                        help="verify a regeneration at this multiple of the"
                             " summarized volume")
    verify.set_defaults(func=_cmd_verify)

    serve = sub.add_parser(
        "serve", help="stream a relation through the serving front-end, or"
                      " run the HTTP front-end with --listen")
    serve.add_argument("--store", required=True, help="store directory")
    add_env(serve)
    serve.add_argument("--relation", default=None,
                       help="relation to stream (required without --listen)")
    serve.add_argument("--fingerprint", default=None,
                       help="serve this stored fingerprint instead of"
                            " recomputing it from the benchmark flags")
    serve.add_argument("--batch-size", type=int, default=DEFAULT_BATCH_SIZE)
    serve.add_argument("--max-batches", type=int, default=None)
    serve.add_argument("--require-warm", action="store_true",
                       help="exit non-zero instead of running the pipeline"
                            " (with --listen: refuse cold workloads with"
                            " 409)")
    serve.add_argument("--listen", default=None, metavar="HOST:PORT",
                       help="run the HTTP front-end on this address until"
                            " SIGTERM (port 0 binds an ephemeral port,"
                            " printed on startup)")
    serve.add_argument("--max-connections", type=int,
                       default=RegenConfig.max_connections,
                       dest="max_connections",
                       help="HTTP requests allowed in flight at once"
                            " (excess answered 503)")
    serve.add_argument("--request-timeout", type=float,
                       default=RegenConfig.request_timeout,
                       dest="request_timeout",
                       help="per-request socket/wait bound in seconds")
    serve.add_argument("--cursor-idle-timeout", type=float, default=None,
                       dest="cursor_idle_timeout",
                       help="reap stream cursors (and release their store"
                            " pins) after this many idle seconds")
    serve.add_argument("--max-request-bytes", type=int,
                       default=RegenConfig.max_request_bytes,
                       dest="max_request_bytes",
                       help="HTTP request-body cap in bytes (oversized"
                            " POSTs answered 413)")
    serve.set_defaults(func=_cmd_serve)

    stats = sub.add_parser("stats", help="print store counters")
    stats.add_argument("--store", default=None, help="store directory")
    stats.add_argument("--url", default=None, metavar="URL",
                       help="scrape /v1/stats (or /metrics) from a running"
                            " server instead of opening a directory")
    stats.add_argument("--entries", action="store_true",
                       help="also list the stored summaries")
    stats.add_argument("--tenants", action="store_true",
                       help="also report per-tenant admission telemetry")
    export = stats.add_mutually_exclusive_group()
    export.add_argument("--metrics", action="store_true",
                        help="print the metrics registry as a flat snapshot")
    export.add_argument("--prometheus", action="store_true",
                        help="print the metrics registry in the Prometheus"
                             " text exposition format")
    export.add_argument("--json", action="store_true",
                        help="print the metrics registry as JSON")
    stats.set_defaults(func=_cmd_stats)

    trace = sub.add_parser(
        "trace", help="run one traced request and emit its spans as JSONL")
    trace.add_argument("--store", default=None, help="store directory")
    add_env(trace)
    trace.add_argument("--relation", default=None,
                       help="relation to stream (default: first of the"
                            " summary)")
    trace.add_argument("--batch-size", type=int, default=DEFAULT_BATCH_SIZE)
    trace.add_argument("--max-batches", type=int, default=None)
    trace.add_argument("--output", default=None,
                       help="write the span JSONL here instead of stdout")
    trace.set_defaults(func=_cmd_trace)

    gc = sub.add_parser(
        "gc", help="compact the store: TTL expiration + LRU eviction to caps")
    gc.add_argument("--store", required=True, help="store directory")
    gc.add_argument("--max-store-bytes", type=int, default=None,
                    help="evict LRU-first until the store fits this many bytes")
    gc.add_argument("--max-entries", type=int, default=None,
                    help="evict LRU-first down to this many summary entries")
    gc.add_argument("--ttl-seconds", type=float, default=None,
                    help="drop entries last used more than this many seconds ago")
    gc.set_defaults(func=_cmd_gc)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"{args.command}: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
