"""Tests for the benchmark environments (TPC-DS-like, JOB-like) and the
random data / workload generators."""

from __future__ import annotations

import numpy as np

from repro.benchdata.datagen import generate_database
from repro.benchdata.job import job_schema, job_workload
from repro.benchdata.tpcds import (
    FACT_RELATIONS,
    LARGEST_RELATIONS,
    complex_workload,
    simple_workload,
    tpcds_schema,
)
from repro.hydra.client import extract_constraints
from repro.workload.generator import WorkloadGenerator, WorkloadProfile


class TestSchemas:
    def test_tpcds_schema_validates_and_scales(self):
        schema = tpcds_schema(scale_factor=1.0)
        assert len(schema) == 16
        assert schema.relation("store_sales").row_count == 288_000_000
        small = tpcds_schema(scale_factor=0.001)
        assert small.relation("store_sales").row_count == 288_000
        # dimension scale defaults to the fact scale when below 1
        assert small.relation("item").row_count < 204_000
        for relation in FACT_RELATIONS:
            assert schema.relation(relation).foreign_keys
        for relation in LARGEST_RELATIONS:
            assert relation in schema.relation_names

    def test_tpcds_is_a_dag_with_snowflake(self):
        schema = tpcds_schema(0.001)
        assert not schema.is_tree_structured()  # shared dimensions => DAG
        assert schema.join_path("store_sales", "customer_address") == [
            "store_sales", "customer", "customer_address",
        ]

    def test_job_schema_validates(self):
        schema = job_schema(scale_factor=0.001)
        assert len(schema) == 14
        assert "title" in {fk.target for fk in schema.relation("cast_info").foreign_keys}
        assert schema.join_path("movie_companies", "company_type") is not None


class TestDataGenerator:
    def test_referential_integrity_of_generated_data(self):
        schema = tpcds_schema(scale_factor=0.0001)
        database = generate_database(schema, seed=2)
        for relation in schema.relations:
            table = database.table(relation.name)
            assert table.num_rows == relation.row_count
            for fk in relation.foreign_keys:
                parent = database.table(fk.target)
                fks = table.column(fk.column)
                assert fks.min() >= 1
                assert fks.max() <= parent.num_rows

    def test_attribute_values_within_domain(self):
        schema = tpcds_schema(scale_factor=0.0001)
        database = generate_database(schema, seed=2, skew=1.5)
        for relation in schema.relations:
            table = database.table(relation.name)
            for attribute in relation.attributes:
                values = table.column(attribute.name)
                assert values.min() >= attribute.domain.lo
                assert values.max() < attribute.domain.hi

    def test_determinism(self):
        schema = tpcds_schema(scale_factor=0.0001)
        a = generate_database(schema, seed=5)
        b = generate_database(schema, seed=5)
        assert np.array_equal(a.table("item").column("i_category"),
                              b.table("item").column("i_category"))


class TestWorkloads:
    def test_complex_workload_shape(self):
        schema = tpcds_schema(scale_factor=0.0002)
        workload = complex_workload(schema, num_queries=131)
        assert len(workload) == 131
        workload.validate(schema)
        assert all(q.root in FACT_RELATIONS for q in workload)
        assert all(any(not q.filter_for(r).is_true for r in q.relations)
                   for q in workload)

    def test_simple_workload_uses_few_constants(self):
        schema = tpcds_schema(scale_factor=0.0002)
        workload = simple_workload(schema, num_queries=50)
        constants = set()
        for query in workload:
            for predicate in query.filters.values():
                for conjunct in predicate.conjuncts:
                    for values in conjunct.constraints.values():
                        constants.update(values.boundaries())
        # far fewer distinct constants than the complex workload would use
        assert len(constants) < 120

    def test_workload_determinism(self):
        schema = tpcds_schema(scale_factor=0.0002)
        a = complex_workload(schema, num_queries=20, seed=9)
        b = complex_workload(schema, num_queries=20, seed=9)
        assert [q.relations for q in a] == [q.relations for q in b]
        assert [q.filters for q in a] == [q.filters for q in b]

    def test_job_workload_constraint_volume(self):
        schema = job_schema(scale_factor=0.0005)
        workload = job_workload(schema, num_queries=60)
        database = generate_database(schema, seed=4)
        package = extract_constraints(database, workload)
        # roughly two CCs per query as in the paper's JOB setup
        assert len(package.constraints) > 60

    def test_generator_respects_attribute_budget(self):
        schema = tpcds_schema(scale_factor=0.0002)
        profile = WorkloadProfile(num_queries=30, root_relations=FACT_RELATIONS,
                                  max_total_filter_attributes=3,
                                  max_attributes_per_filter=2)
        workload = WorkloadGenerator(schema, profile, seed=1).generate()
        for query in workload:
            total = sum(len(p.attributes) for p in query.filters.values())
            assert total <= 3
