"""The six workloads, measured with tracing off.

Every workload is a closed loop.  The in-process ones have one caller; the
HTTP ones have two client threads with one persistent connection each,
against a server in a child process.  Iteration counts are fixed before the
first timed operation (from ``--seconds`` and a per-workload constant), so
both sides of a comparison do the same work.  ``README.md`` says why each
workload exists and which layer it loads.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import resource
import shutil
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro import (
    ConstraintSet,
    DatabaseSummary,
    RegenerationService,
    TupleGenerator,
    evaluate_on_summary,
)
from repro.server.wire import constraint_set_to_wire, ndjson_batch

import inputs
from httpload import Client, ServerChild

#: Tuples per streamed chunk, as in the serving docs' sharded-client example.
STREAM_BATCH_SIZE = 4096
HTTP_CLIENTS = 2


@dataclass
class Tally:
    """Operations and correctness checks attempted, and those that failed."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def timed(self, what: str, operation: Callable[[], object],
              ) -> Tuple[Optional[object], float]:
        """Run one operation; an exception is a failed operation, not a crash."""
        started = time.perf_counter()
        try:
            result = operation()
        except Exception as error:  # counted and reported, never swallowed
            self.check(False, f"{what} raised {error!r}")
            return None, time.perf_counter() - started
        seconds = time.perf_counter() - started
        self.check(True, what)
        return result, seconds


@dataclass
class Context:
    """One run's settings, shared by the untraced and the traced pass."""

    sizing: inputs.Sizing
    smoke: bool
    seconds: float
    seed: int
    #: The constraint set the workload works on: ``"wlc"`` or ``"wls"``.
    which: str
    work_dir: Path
    prepare_dir: Optional[Path]
    inject: Optional[str]
    tally: Tally = field(default_factory=Tally)

    def count(self, per_second: float, floor: int) -> int:
        """Iterations of a timed loop: fixed up front, never time-based."""
        if self.smoke:
            return floor
        return max(floor, round(per_second * self.seconds))

    def fresh_dir(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.work_dir))


@dataclass
class Measured:
    """What one untraced workload run observed."""

    #: Latency of each timed operation.
    samples_s: List[float]
    #: Units of work completed (operations; tuples for ``warm_stream``) and
    #: the time they took, for the throughput metric.
    work: float
    busy_s: float
    #: Set-up steps after ``prepare`` (store warm-up, server start, warm-up
    #: iteration): everything else before the first timed operation.
    setup_rest_s: float
    peak_rss_kb: int
    prepared: inputs.Inputs
    #: The summary of ``prepared.constraints`` whose fidelity and size the
    #: run reports.
    summary: Optional[DatabaseSummary]


def own_peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def settle() -> None:
    """Same starting state for every timed in-process operation.

    Collects garbage and flushes the filesystem.  Without the flush, a run
    of cold WLs builds slows by ~40% over its first 5 s on ext4 as the
    journal commits of earlier builds' ~90 small files each overlap the next
    build's writes; with it (under 1 ms) each operation meets a clean disk.
    """
    gc.collect()
    os.sync()


# ---------------------------------------------------------------------- #
# cold builds
# ---------------------------------------------------------------------- #
def warm_up(ctx: Context, prepared: inputs.Inputs) -> float:
    """An untimed build of the smallest per-relation LP; returns its seconds.

    Every import, the solver's first call and the store's write path run
    once, at a hundredth of the cost of a warm-up build of all of WLc.
    """
    by_relation = prepared.constraints.by_relation()
    smallest = min(sorted(by_relation), key=lambda name: len(by_relation[name]))
    started = time.perf_counter()
    with RegenerationService(prepared.schema,
                             store=ctx.fresh_dir("warmup-")) as service:
        service.summarize(prepared.constraints.for_relation(smallest))
    return time.perf_counter() - started


def cold_build(ctx: Context, builds: int) -> Measured:
    """``builds`` x ``service.summarize`` of one workload, fresh store each."""
    prepared = inputs.prepare(ctx.sizing, ctx.which, ctx.prepare_dir)
    setup_rest_s = warm_up(ctx, prepared)
    samples: List[float] = []
    reference = None
    for _ in range(builds):
        store_dir = ctx.fresh_dir("cold-")
        with RegenerationService(prepared.schema, store=store_dir) as service:
            settle()
            summary, seconds = ctx.tally.timed(
                "summarize", lambda: service.summarize(prepared.constraints))
        shutil.rmtree(store_dir, ignore_errors=True)
        samples.append(seconds)
        reference = reference or summary
        ctx.tally.check(
            summary is not None
            and summary.content_digest() == reference.content_digest(),
            "cold builds of the same constraints differ")
    return Measured(samples_s=samples, work=len(samples), busy_s=sum(samples),
                    setup_rest_s=setup_rest_s, peak_rss_kb=own_peak_rss_kb(),
                    prepared=prepared, summary=reference)


def cold_wlc(ctx: Context) -> Measured:
    return cold_build(ctx, ctx.count(per_second=0.4, floor=3))


def cold_wls(ctx: Context) -> Measured:
    return cold_build(ctx, ctx.count(per_second=8.0, floor=20))


# ---------------------------------------------------------------------- #
# incremental re-summarization
# ---------------------------------------------------------------------- #
def drift_wlc(ctx: Context) -> Measured:
    """Base epoch of WLc, then a chain of seeded one-constraint drifts."""
    prepared = inputs.prepare(ctx.sizing, ctx.which, ctx.prepare_dir)
    rng = random.Random(ctx.seed)
    drifts = ctx.count(per_second=0.2, floor=3)
    samples: List[float] = []
    store_dir = ctx.fresh_dir("drift-")
    with RegenerationService(prepared.schema, store=store_dir) as service:
        # The base build warms every code path a drift uses.
        base_summary, setup_rest_s = ctx.tally.timed(
            "base summarize", lambda: service.summarize(prepared.constraints))
        base = service.fingerprint(prepared.constraints)
        current, parent, summary = prepared.constraints, base, base_summary
        for _ in range(drifts):
            current = inputs.drift(current, rng)
            settle()
            report, seconds = ctx.tally.timed(
                "resummarize",
                lambda: service.resummarize(parent, current))
            samples.append(seconds)
            if report is None:
                break
            ctx.tally.check(
                not report.warm and report.parent_fingerprint == parent
                and report.fingerprint == service.fingerprint(current),
                "resummarize report names the wrong epochs")
            ctx.tally.check(
                0 < len(report.solved_components) <= 2
                and len(report.reused_components) > 0,
                f"one-constraint drift solved {len(report.solved_components)}"
                f" and reused {len(report.reused_components)} components")
            summary, parent = report.summary, report.fingerprint
        lineage = [entry["fingerprint"]
                   for entry in service.store.list_lineage(parent)]
        ctx.tally.check(len(lineage) == len(samples) + 1 and lineage[-1] == base,
                        "lineage of the last epoch does not walk back to the base")
    before, after = (
        evaluate_on_summary(constraints, epoch, prepared.schema).fraction_within(0.01)
        for constraints, epoch in ((prepared.constraints, base_summary),
                                   (current, summary)))
    ctx.tally.check(abs(after - before) <= 0.05,
                    f"fidelity went from {before:.3f} to {after:.3f} over"
                    f" {len(samples)} one-constraint drifts")
    # The reported summary is the base epoch's: which component a drift hits
    # is the seed's choice, and fidelity and size must not depend on it.
    return Measured(samples_s=samples, work=len(samples), busy_s=sum(samples),
                    setup_rest_s=setup_rest_s, peak_rss_kb=own_peak_rss_kb(),
                    prepared=prepared, summary=base_summary)


# ---------------------------------------------------------------------- #
# warm serving over HTTP
# ---------------------------------------------------------------------- #
@dataclass
class WarmServer:
    """A warm store served by a child process, plus what to expect of it."""

    prepared: inputs.Inputs
    summary: DatabaseSummary
    fingerprint: str
    child: ServerChild
    setup_s: float

    def clients(self) -> List[Client]:
        return [Client(self.child.host, self.child.port)
                for _ in range(HTTP_CLIENTS)]

    def peak_rss_kb(self) -> int:
        return int(self.child.exit_report["peak_rss_kb"])


def check_never_cold(ctx: Context, client: Client) -> None:
    """A warm server must have answered everything from the store."""
    status, stats = client.json("GET", "/v1/stats")
    counters = stats.get("counters", {})
    ctx.tally.check(
        status == 200 and counters.get("solver_components_solved") == 0
        and counters.get("pipeline_runs") == 0,
        f"warm server ran the pipeline: {counters}")


def start_warm_server(ctx: Context) -> WarmServer:
    """Build the summary into a disk store here, then serve it from a child."""
    prepared = inputs.prepare(ctx.sizing, ctx.which, ctx.prepare_dir)
    started = time.perf_counter()
    store_dir = ctx.fresh_dir("warm-")
    with RegenerationService(prepared.schema, store=store_dir) as service:
        summary = service.summarize(prepared.constraints)
        fingerprint = service.fingerprint(prepared.constraints)
    child = ServerChild(store_dir, ctx.smoke, ctx.work_dir / "server.stderr")
    return WarmServer(prepared, summary, fingerprint, child,
                      setup_s=time.perf_counter() - started)


def largest_relation(summary: DatabaseSummary) -> str:
    return max(sorted(summary.relations),
               key=lambda name: summary.relations[name].total_rows())


def stream_round(ctx: Context, clients: List[Client], fingerprint: str,
                 relation: str, expected: bytes, rows: int,
                 assignment: List[int], corrupt: bool = False,
                 ) -> Tuple[float, List[Dict[str, object]]]:
    """Each client streams one of ``len(clients)`` shards, all at once.

    ``assignment[i]`` is the shard client ``i`` takes.  Checks status, row
    counts and the byte identity of the concatenated shards; returns the
    round's wall time and the clients' replies.
    """
    def fetch(index: int) -> Dict[str, object]:
        return clients[index].stream(
            f"/v1/stream/{fingerprint}/{relation}?shard={assignment[index]}"
            f"/{len(clients)}&batch_size={STREAM_BATCH_SIZE}")

    started = time.perf_counter()
    with ThreadPoolExecutor(len(clients)) as pool:
        replies = list(pool.map(fetch, range(len(clients))))
    wall = time.perf_counter() - started
    body = b"".join(reply["body"] for _, reply in sorted(
        zip(assignment, replies), key=lambda pair: pair[0]))
    if corrupt:
        body = body[:-2] + b"0" + body[-1:]
    for reply in replies:
        ctx.tally.check(reply["status"] == 200 and reply["total_rows"] == rows,
                        f"stream answered {reply['status']} with"
                        f" X-Repro-Total-Rows {reply['total_rows']}")
    received = body.count(b"\n")
    ctx.tally.check(received == rows,
                    f"shards carried {received} rows, relation has {rows}")
    ctx.tally.check(
        hashlib.sha256(body).digest() == expected,
        "concatenated shards differ from ndjson_batch(materialize())")
    return wall, replies


def warm_stream(ctx: Context) -> Measured:
    """Two clients stream disjoint shards of the largest relation."""
    rng = random.Random(ctx.seed)
    rounds = ctx.count(per_second=2.4, floor=3)
    server = start_warm_server(ctx)
    with server.child:
        relation = largest_relation(server.summary)
        table = TupleGenerator(server.summary.relation(relation)).materialize()
        expected = hashlib.sha256(ndjson_batch(table)).digest()
        clients = server.clients()
        started = time.perf_counter()
        shards = list(range(1, HTTP_CLIENTS + 1))
        stream_round(ctx, clients, server.fingerprint, relation, expected,
                     table.num_rows, shards)  # warm-up
        setup_rest_s = server.setup_s + time.perf_counter() - started
        samples: List[float] = []
        busy_s = 0.0
        for index in range(rounds):
            rng.shuffle(shards)
            wall, replies = stream_round(
                ctx, clients, server.fingerprint, relation, expected,
                table.num_rows, shards,
                corrupt=ctx.inject == "corrupt_shard" and index == 0)
            busy_s += wall
            samples.extend(reply["seconds"] for reply in replies)
        check_never_cold(ctx, clients[0])
        for client in clients:
            client.close()
    return Measured(samples_s=samples, work=rounds * table.num_rows,
                    busy_s=busy_s,
                    setup_rest_s=setup_rest_s, peak_rss_kb=server.peak_rss_kb(),
                    prepared=server.prepared, summary=server.summary)


def summarize_bodies(constraints: ConstraintSet, rng: random.Random,
                     count: int) -> List[bytes]:
    """``count`` POST bodies: the same workload in seeded constraint orders."""
    return [json.dumps({"workload": constraint_set_to_wire(
                inputs.permuted(constraints, rng))}).encode("utf-8")
            for _ in range(count)]


def summarize_loop(client: Client, bodies: List[bytes], requests: int,
                   fingerprint: str) -> List[Tuple[float, str]]:
    """One client's closed loop: ``(latency, failure or "")`` per request."""
    results = []
    for index in range(requests):
        started = time.perf_counter()
        try:
            status, payload = client.json("POST", "/v1/summarize",
                                          bodies[index % len(bodies)])
            bad = "" if (status == 200 and payload.get("warm") is True
                         and payload.get("fingerprint") == fingerprint) \
                else f"summarize answered {status} {payload}"
        except Exception as error:  # counted as a failed request
            bad = f"summarize raised {error!r}"
        results.append((time.perf_counter() - started, bad))
    return results


def warm_summarize(ctx: Context) -> Measured:
    """Two keep-alive clients POST the warm WLs workload."""
    rng = random.Random(ctx.seed)
    requests = ctx.count(per_second=19.0, floor=20)
    server = start_warm_server(ctx)
    with server.child:
        started = time.perf_counter()
        bodies = summarize_bodies(server.prepared.constraints, rng, 8)
        clients = server.clients()
        for client in clients:  # warm-up
            summarize_loop(client, bodies, 5, server.fingerprint)
        setup_rest_s = server.setup_s + time.perf_counter() - started
        begun = time.perf_counter()
        with ThreadPoolExecutor(len(clients)) as pool:
            per_client = list(pool.map(
                lambda client: summarize_loop(client, bodies, requests,
                                              server.fingerprint), clients))
        busy_s = time.perf_counter() - begun
        samples = []
        for seconds, bad in (pair for results in per_client for pair in results):
            ctx.tally.check(not bad, bad)
            samples.append(seconds)
        check_never_cold(ctx, clients[0])
        for client in clients:
            client.close()
    return Measured(samples_s=samples, work=len(samples), busy_s=busy_s,
                    setup_rest_s=setup_rest_s, peak_rss_kb=server.peak_rss_kb(),
                    prepared=server.prepared, summary=server.summary)


# ---------------------------------------------------------------------- #
# regenerate during query execution
# ---------------------------------------------------------------------- #
def regen_verify(ctx: Context) -> Measured:
    """``service.verify`` over the dynamically regenerated database."""
    prepared = inputs.prepare(ctx.sizing, ctx.which, ctx.prepare_dir)
    iterations = ctx.count(per_second=5.5, floor=5)
    store_dir = ctx.fresh_dir("verify-")
    started = time.perf_counter()
    with RegenerationService(prepared.schema, store=store_dir) as service:
        summary = service.summarize(prepared.constraints)
        fingerprint = service.fingerprint(prepared.constraints)
        expected = evaluate_on_summary(prepared.constraints, summary,
                                       prepared.schema)
        samples: List[float] = []
        for index in range(iterations + 1):  # the first one is the warm-up
            gc.collect()
            report, seconds = ctx.tally.timed(
                "verify", lambda: service.verify(
                    fingerprint, constraints=prepared.constraints))
            ctx.tally.check(
                report is not None
                and [r.actual for r in report.results]
                == [r.actual for r in expected.results],
                "regenerated tuples count differently from the summary")
            if index == 0:
                setup_rest_s = time.perf_counter() - started
            else:
                samples.append(seconds)
        ctx.tally.check(service.stats()["pipeline_runs"] == 1,
                        "verify ran the pipeline")
    return Measured(samples_s=samples, work=len(samples), busy_s=sum(samples),
                    setup_rest_s=setup_rest_s, peak_rss_kb=own_peak_rss_kb(),
                    prepared=prepared, summary=summary)


WORKLOADS: Dict[str, Callable[[Context], Measured]] = {
    "cold_wlc": cold_wlc,
    "cold_wls": cold_wls,
    "drift_wlc": drift_wlc,
    "warm_stream": warm_stream,
    "warm_summarize": warm_summarize,
    "regen_verify": regen_verify,
}

