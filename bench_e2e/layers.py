"""The traced pass: one tour of the whole path, a span around each layer.

``--trace 1`` does not repeat the workload's loop.  It walks the workload's
constraint set through every layer once — build, drift, warm submit, tuple
generation, wire encoding, the socket, the engine — and reports what each
layer cost on *these* inputs, so every per-layer metric exists on every
workload and the WLc and WLs tours can be read side by side.

``service.summarize`` is one opaque call from outside, so the build is a
*staged replay*: the tour calls the public functions the Hydra pipeline
calls, in the same order with the same ``RegenConfig`` defaults, and checks
that the replayed summary's ``content_digest()`` equals the service's.
Definitions of every metric are in ``README.md``.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import time
from typing import Callable, Dict, List, Tuple

from repro import (
    ConstraintSet,
    DatabaseSummary,
    Executor,
    Hydra,
    RegenConfig,
    RegenerationService,
    TupleGenerator,
    evaluate_with_executor,
    open_store,
)
from repro.lp import decompose_model, formulate_view_lp
from repro.schema import Schema
from repro.server.wire import (
    constraint_set_from_wire,
    constraint_set_to_wire,
    ndjson_batch,
)
from repro.summary import (
    build_relation_summary,
    enforce_referential_consistency,
    instantiate_view_summary,
    merge_subview_solutions,
    subview_solutions,
)

import inputs
from httpload import Client, ServerChild, fresh_json
from spans import Tracer
from workloads import (
    HTTP_CLIENTS,
    STREAM_BATCH_SIZE,
    Context,
    check_never_cold,
    largest_relation,
    settle,
    stream_round,
    warm_up,
)

#: Stages of the replay reported as ``<name>_s``.  With the fingerprint and
#: the component-cache lookups, their self times make up the staged total.
REPORTED_STAGES = ("views.preprocess", "lp.formulate", "lp.decompose",
                   "lp.solve", "summary.merge", "summary.consistency",
                   "summary.relations", "service.store_put")
STAGES = ("service.fingerprint", *REPORTED_STAGES, "service.store_get")


def median_seconds(operation: Callable[[], object], repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        operation()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def wrap_store(tracer: Tracer, store: object) -> None:
    tracer.wrap(store, "put_summary", "service.store_put")
    tracer.wrap(store, "put_component", "service.store_put")
    tracer.wrap(store, "get_summary", "service.store_get")
    tracer.wrap(store, "get_component", "service.store_get")


def staged_build(tracer: Tracer, schema: Schema, constraints: ConstraintSet,
                 store_dir: object) -> Tuple[DatabaseSummary, Dict[str, float]]:
    """Replay ``Hydra.build_summary`` call by call, a span around each."""
    config = RegenConfig()
    store = open_store(store_dir, config=config)
    wrap_store(tracer, store)
    hydra = Hydra(schema, config.hydra_config(), store=store)
    knobs = hydra.config
    names = list(schema.relation_names)
    by_relation = constraints.by_relation()
    tasks, view_lps, view_summaries = {}, {}, {}
    with tracer.span("hydra.build"):
        with tracer.span("service.fingerprint"):
            fingerprint = hydra.request_fingerprint(constraints)
        for relation in names:
            with tracer.span("views.preprocess"):
                task = hydra.preprocessor.build_task(
                    relation, by_relation.get(relation, []))
            tasks[relation] = task
            if not task.subviews:
                with tracer.span("summary.merge"):
                    view_summaries[relation] = instantiate_view_summary(
                        task.view, None, task.total_rows)
                continue
            with tracer.span("lp.formulate"):
                view_lps[relation] = formulate_view_lp(
                    task, strategy=knobs.strategy,
                    max_grid_variables=knobs.max_grid_variables,
                    max_region_variables=knobs.max_region_variables)
        order = [relation for relation in names if relation in view_lps]
        with tracer.span("lp.decompose"):
            decompositions = {relation: decompose_model(view_lps[relation].model)
                              for relation in order}
        # solve_many decomposes once more itself; that pass stays in lp.solve.
        with tracer.span("lp.solve"):
            solutions = hydra.solver.solve_many(
                [view_lps[relation].model for relation in order])
        for relation, solution in zip(order, solutions):
            task, view_lp = tasks[relation], view_lps[relation]
            with tracer.span("summary.merge"):
                merged = merge_subview_solutions(
                    task.relation, subview_solutions(view_lp, solution),
                    task.merge_order(),
                    aligned_attributes=view_lp.aligned_attributes)
                view_summaries[relation] = instantiate_view_summary(
                    task.view, merged, task.total_rows)
        with tracer.span("summary.consistency"):
            consistency = enforce_referential_consistency(
                view_summaries, hydra.preprocessor.views, schema)
        summary = DatabaseSummary()
        with tracer.span("summary.relations"):
            for relation in names:
                summary.relations[relation] = build_relation_summary(
                    relation, view_summaries, hydra.preprocessor.views, schema)
        summary.extra_tuples = dict(consistency.extra_tuples)
        summary.lp_variable_counts = {
            relation: view_lps[relation].num_variables
            if relation in view_lps else 0 for relation in names}
        summary.component_keys = {
            relation: sorted(c.key for c in decompositions[relation].components)
            if relation in view_lps else [] for relation in names}
        store.put_summary(fingerprint, summary, meta={
            "schema": schema.name, "constraints": len(constraints),
            "relations": len(names)})
    components = [component for decomposition in decompositions.values()
                  for component in decomposition.components]
    counts = {
        "lp.formulate_variables": sum(lp.num_variables for lp in view_lps.values()),
        "lp.components": len(components),
        "lp.max_component_variables": max(
            (component.num_variables for component in components), default=0),
        "lp.components_solved": hydra.solver.stats.components_solved,
        "lp.cache_hits": hydra.solver.stats.cache_hits,
        "service.store_bytes_written": store.store_bytes(),
    }
    return summary, counts


def span_seconds(tracer: Tracer, name: str) -> float:
    """Total duration of the spans called ``name``."""
    return sum(span["end"] - span["start"] for span in tracer.spans
               if span["name"] == name)


def tour(ctx: Context, tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics of the run's constraint set (``ctx.which``)."""
    prepared = inputs.prepare(ctx.sizing, ctx.which, ctx.prepare_dir)
    warm_up(ctx, prepared)
    store_dir = ctx.fresh_dir("tour-")
    with RegenerationService(prepared.schema, store=store_dir) as service:
        metrics, built = cold_build_layers(ctx, tracer, prepared, service)
        fingerprint = service.fingerprint(prepared.constraints)
        metrics.update(drift_layers(ctx, tracer, prepared, service, fingerprint))
        metrics.update(warm_request_layers(ctx, prepared, service, store_dir))
        metrics.update(tuple_layers(ctx, tracer, prepared, built, store_dir,
                                    fingerprint, metrics))
        metrics.update(engine_layers(tracer, prepared, service, fingerprint))
    return metrics


def cold_build_layers(ctx: Context, tracer: Tracer, prepared: inputs.Inputs,
                      service: RegenerationService,
                      ) -> Tuple[Dict[str, float], DatabaseSummary]:
    """The service's build wall time, then the staged replay of the same."""
    settle()
    started = time.perf_counter()
    built = service.summarize(prepared.constraints)
    build_s = time.perf_counter() - started
    settle()
    replayed, metrics = staged_build(tracer, prepared.schema,
                                     prepared.constraints,
                                     ctx.fresh_dir("replay-"))
    ctx.tally.check(replayed.content_digest() == built.content_digest(),
                    "staged replay digest differs from the service's")
    staged = tracer.self_seconds()
    staged_total = sum(staged.get(name, 0.0) for name in STAGES)
    staged_wall = span_seconds(tracer, "hydra.build")
    ctx.tally.check(staged_total <= staged_wall,
                    "staged layers sum to more than the traced build")
    for name in REPORTED_STAGES:
        metrics[f"{name}_s"] = staged.get(name, 0.0)
    metrics["hydra.staged_build_s"] = staged_wall
    metrics["hydra.service_build_s"] = build_s
    metrics["hydra.unattributed_s"] = build_s - staged_total
    return metrics, built


def drift_layers(ctx: Context, tracer: Tracer, prepared: inputs.Inputs,
                 service: RegenerationService, base: str) -> Dict[str, float]:
    """One seeded drift, resummarized from the base epoch under spans."""
    wrap_store(tracer, service.store)
    tracer.wrap(service, "component_manifest", "service.manifest")
    drifted = inputs.drift(prepared.constraints, random.Random(ctx.seed))
    mark = len(tracer.spans)
    settle()
    with tracer.span("service.resummarize") as whole:
        report = service.resummarize(base, drifted)
    self_s = tracer.self_seconds(since=mark)
    with RegenerationService(prepared.schema,
                             store=ctx.fresh_dir("cold-")) as cold:
        ctx.tally.check(
            cold.summarize(drifted).content_digest()
            == report.summary.content_digest(),
            "drifted epoch differs from a cold build of the same constraints")
    lineage = service.store.list_lineage(report.fingerprint)
    ctx.tally.check([entry["fingerprint"] for entry in lineage]
                    == [report.fingerprint, base],
                    "drifted epoch's lineage does not end at the base")
    return {
        "service.resummarize_s": whole["end"] - whole["start"],
        "service.manifest_s": self_s.get("service.manifest", 0.0),
        "service.store_get_s": self_s.get("service.store_get", 0.0),
        "service.build_after_manifest_s": self_s["service.resummarize"],
        "lp.components_reused": len(report.reused_components),
    }


def warm_request_layers(ctx: Context, prepared: inputs.Inputs,
                        service: RegenerationService,
                        store_dir: object) -> Dict[str, float]:
    """What a warm ``POST /v1/summarize`` does, piece by piece, in process."""
    constraints = prepared.constraints
    payload = json.loads(json.dumps(constraint_set_to_wire(constraints)))
    repeats = 5 if ctx.smoke else 20
    return {
        "server.wire.decode_s": median_seconds(
            lambda: constraint_set_from_wire(payload), repeats),
        "service.fingerprint_s": median_seconds(
            lambda: service.fingerprint(constraints), repeats),
        "service.submit_warm_s": median_seconds(
            lambda: service.summarize(constraints), repeats),
        "obs.registry_overhead_pct": registry_overhead_pct(
            prepared.schema, constraints, store_dir,
            blocks=2 if ctx.smoke else 10),
    }


def registry_overhead_pct(schema: Schema, constraints: ConstraintSet,
                          store_dir: object, blocks: int) -> float:
    """What the metrics registry costs a warm submit: on vs off, in percent."""
    services = {enabled: RegenerationService(
        schema, store=store_dir, config=RegenConfig(obs_enabled=enabled))
        for enabled in (True, False)}
    samples: Dict[bool, List[float]] = {True: [], False: []}
    for _ in range(blocks):  # alternate, so drift hits both sides alike
        for enabled, service in services.items():
            samples[enabled].append(median_seconds(
                lambda: service.summarize(constraints), 25))
    for service in services.values():
        service.close()
    on, off = (statistics.median(samples[enabled]) for enabled in (True, False))
    return 100.0 * (on - off) / off


def tuple_layers(ctx: Context, tracer: Tracer, prepared: inputs.Inputs,
                 built: DatabaseSummary, store_dir: object, fingerprint: str,
                 warm: Dict[str, float]) -> Dict[str, float]:
    """Tuples out: generate, encode, then the same over the socket."""
    relation = largest_relation(built)
    generator = TupleGenerator(built.relation(relation))
    rows = generator.total_rows
    generate_s, encode_s = [], []
    for _ in range(3):
        with tracer.span("tuplegen.stream", relation=relation) as span:
            batches = list(generator.stream_range(batch_size=STREAM_BATCH_SIZE))
        generate_s.append(span["end"] - span["start"])
        with tracer.span("server.wire.encode", relation=relation) as span:
            encoded = [ndjson_batch(batch) for batch in batches]
        encode_s.append(span["end"] - span["start"])
        del batches
    digest = hashlib.sha256(b"".join(encoded))
    metrics = {
        "tuplegen.stream_s": statistics.median(generate_s),
        "server.wire.encode_s": statistics.median(encode_s),
        "server.wire.bytes_per_tuple": sum(map(len, encoded)) / rows,
    }
    del encoded
    body = json.dumps(
        {"workload": constraint_set_to_wire(prepared.constraints)}).encode("utf-8")
    repeats = 2 if ctx.smoke else 5
    requests = 5 if ctx.smoke else 40
    with ServerChild(store_dir, ctx.smoke,
                     ctx.work_dir / "server.stderr") as child:
        clients = [Client(child.host, child.port) for _ in range(HTTP_CLIENTS)]

        def stream(streamers: List[Client]) -> Tuple[float, List[Dict[str, object]]]:
            with tracer.span("server.http.stream", clients=len(streamers)):
                return stream_round(ctx, streamers, fingerprint, relation,
                                    digest.digest(), rows,
                                    list(range(1, len(streamers) + 1)))

        def post(send: Callable[[], Tuple[int, Dict[str, object]]]) -> float:
            started = time.perf_counter()
            status, payload = send()
            ctx.tally.check(status == 200 and payload.get("warm") is True
                            and payload.get("fingerprint") == fingerprint,
                            f"summarize answered {status} {payload}")
            return 1e3 * (time.perf_counter() - started)

        stream(clients[:1])  # warm-up
        alone = [stream(clients[:1]) for _ in range(repeats)]
        together = [stream(clients) for _ in range(repeats)]
        keepalive = [post(lambda: clients[0].json("POST", "/v1/summarize", body))
                     for _ in range(requests)]
        fresh = [post(lambda: fresh_json(child.host, child.port, "POST",
                                         "/v1/summarize", body))
                 for _ in range(requests)]
        check_never_cold(ctx, clients[0])
        for client in clients:
            client.close()
    one_s = statistics.median(wall for wall, _ in alone)
    two_s = statistics.median(wall for wall, _ in together)
    keepalive_ms = statistics.median(keepalive)
    metrics.update({
        "server.http.stream_rest_s": one_s - metrics["tuplegen.stream_s"]
        - metrics["server.wire.encode_s"],
        "server.http.first_byte_ms": 1e3 * statistics.median(
            replies[0]["first_byte_s"] for _, replies in alone),
        "server.http.two_client_efficiency": one_s / two_s,
        "server.http.keepalive_p50_ms": keepalive_ms,
        "server.http.fresh_connection_p50_ms": statistics.median(fresh),
        "server.http.request_rest_ms": keepalive_ms - 1e3 * (
            warm["server.wire.decode_s"] + warm["service.submit_warm_s"]),
    })
    return metrics


def engine_layers(tracer: Tracer, prepared: inputs.Inputs,
                  service: RegenerationService,
                  fingerprint: str) -> Dict[str, float]:
    """One verify over the dynamically regenerated database, under spans."""
    executor = Executor(service.database(fingerprint))
    tracer.wrap(executor, "count", "engine.execute")
    mark = len(tracer.spans)
    with tracer.span("metrics.evaluate"):
        similarity = evaluate_with_executor(prepared.constraints, executor)
    self_s = tracer.self_seconds(since=mark)
    return {
        "engine.execute_s": self_s.get("engine.execute", 0.0),
        "metrics.evaluate_s": self_s["metrics.evaluate"],
        "engine.batches": executor.stats.batches,
        "engine.peak_batch_rows": executor.stats.peak_batch_rows,
        "metrics.cc_max_rel_error": similarity.max_error(),
    }
