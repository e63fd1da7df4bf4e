"""Quickstart: regenerate the paper's toy database (Figure 1) end to end.

The script builds the R/S/T client database and drives the whole pipeline
through the ``repro.api`` session facade: ``extract`` the cardinality
constraints from the example query's annotated plan, ``summarize`` them
into a scale-free database summary, ``regenerate`` a (lazy) database from
it — including at 10x the original volume — and ``verify`` that every
operator cardinality is reproduced.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    Attribute,
    Database,
    ForeignKey,
    Interval,
    Query,
    RegenConfig,
    Relation,
    Schema,
    Session,
    Table,
    Workload,
    col,
)


def build_client_database() -> Database:
    """Create the Figure 1 schema and a data instance matching its AQP."""
    schema = Schema([
        Relation("S", primary_key="S_pk", row_count=700,
                 attributes=[Attribute("A", Interval(0, 100)), Attribute("B", Interval(0, 50))]),
        Relation("T", primary_key="T_pk", row_count=1500,
                 attributes=[Attribute("C", Interval(0, 10))]),
        Relation("R", primary_key="R_pk", row_count=80_000,
                 foreign_keys=[ForeignKey("S_fk", "S"), ForeignKey("T_fk", "T")]),
    ], name="toy")

    rng = np.random.default_rng(7)
    s = Table({
        "S_pk": np.arange(1, 701),
        "A": np.concatenate([rng.integers(20, 60, 400), rng.integers(60, 100, 300)]),
        "B": rng.integers(0, 50, 700),
    }, name="S")
    t = Table({
        "T_pk": np.arange(1, 1501),
        "C": np.concatenate([np.full(900, 2), rng.integers(3, 10, 600)]),
    }, name="T")
    r = Table({
        "R_pk": np.arange(1, 80_001),
        "S_fk": np.concatenate([rng.integers(1, 401, 50_000), rng.integers(401, 701, 30_000)]),
        "T_fk": np.concatenate([rng.integers(1, 901, 30_000), rng.integers(901, 1501, 20_000),
                                rng.integers(1, 1501, 30_000)]),
    }, name="R")

    database = Database(schema, name="client")
    for name, table in (("S", s), ("T", t), ("R", r)):
        database.attach(name, table)
    return database


def main() -> None:
    client_db = build_client_database()
    schema = client_db.schema

    # The example query of Figure 1(b).
    workload = Workload(name="toy", queries=[
        Query(query_id="fig1", root="R", relations=("R", "S", "T"),
              filters={"S": col("A").between(20, 60), "T": col("C").between(2, 3)}),
    ])

    session = Session(schema, config=RegenConfig(workers=2))

    # Client side: execute the workload, collect AQPs, derive CCs.
    constraints = session.extract(client_db, workload)
    print("Cardinality constraints shipped to the vendor:")
    for cc in constraints:
        print("  ", cc)

    # Vendor side: build the scale-free database summary.
    handle = session.summarize(constraints)
    summary = handle.summary
    print(f"\nDatabase summary: {summary.total_rows()} tuples described in "
          f"{sum(len(r) for r in summary.relations.values())} summary rows "
          f"({summary.nbytes()} bytes, fingerprint {handle.fingerprint[:12]}…)")

    # Regenerate lazily and verify through the pipelined executor.
    report = session.verify(handle)
    print("\nVolumetric similarity on the regenerated database:")
    for res in report.results:
        print(f"  expected {res.expected:>8d}   regenerated {res.actual:>8d}   "
              f"error {res.absolute_relative_error:.3%}")
    print(f"\nmax relative error: {report.max_error():.3%}")

    # The summary is scale-free: the same handle regenerates any volume.
    big = session.regenerate(handle, scale=10.0)
    print(f"\nAt scale 10x: {big.total_rows()} tuples from the"
          f" same {summary.nbytes()}-byte summary (nothing materialised)")
    scaled = session.verify(handle, scale=10.0)
    print(f"max relative error at 10x: {scaled.max_error():.3%}")


if __name__ == "__main__":
    main()
