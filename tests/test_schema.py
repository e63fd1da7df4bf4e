"""Unit tests for the relational schema model."""

from __future__ import annotations

import pytest

from repro.errors import SchemaError
from repro.predicates.interval import Interval
from repro.schema.relation import Attribute, ForeignKey, Relation
from repro.schema.schema import Schema


def _rel(name, pk, attrs=(), fks=(), rows=10):
    return Relation(
        name=name, primary_key=pk,
        attributes=[Attribute(a, Interval(0, 100)) for a in attrs],
        foreign_keys=[ForeignKey(column=c, target=t) for c, t in fks],
        row_count=rows,
    )


class TestRelation:
    def test_basic_accessors(self):
        rel = _rel("orders", "o_id", attrs=["o_total"], fks=[("o_cust", "customer")])
        assert rel.attribute_names == ("o_total",)
        assert rel.foreign_key_columns == ("o_cust",)
        assert rel.all_columns == ("o_id", "o_cust", "o_total")
        assert rel.attribute("o_total").domain == Interval(0, 100)
        assert rel.has_attribute("o_total")
        assert not rel.has_attribute("o_id")

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(SchemaError):
            Relation(name="r", primary_key="pk",
                     attributes=[Attribute("a", Interval(0, 1)), Attribute("a", Interval(0, 1))])

    def test_pk_in_attributes_rejected(self):
        with pytest.raises(SchemaError):
            Relation(name="r", primary_key="a",
                     attributes=[Attribute("a", Interval(0, 1))])

    def test_missing_attribute_raises(self):
        rel = _rel("r", "pk", attrs=["a"])
        with pytest.raises(SchemaError):
            rel.attribute("zzz")

    def test_scaled(self):
        rel = _rel("r", "pk", rows=100)
        assert rel.scaled(0.5).row_count == 50
        assert rel.scaled(0.0001).row_count == 1  # never drops to zero

    def test_negative_row_count_rejected(self):
        with pytest.raises(SchemaError):
            _rel("r", "pk", rows=-1)


class TestSchema:
    def test_validation_and_lookup(self):
        schema = Schema([
            _rel("dim", "d_pk", attrs=["d_a"]),
            _rel("fact", "f_pk", attrs=["f_x"], fks=[("f_dim", "dim")]),
        ])
        assert len(schema) == 2
        assert "fact" in schema
        assert schema.relation("dim").name == "dim"
        assert schema.attribute_owner("d_a").name == "dim"
        assert schema.attribute("f_x").name == "f_x"

    def test_unknown_relation_raises(self):
        schema = Schema([_rel("a", "a_pk")])
        with pytest.raises(SchemaError):
            schema.relation("zzz")
        with pytest.raises(SchemaError):
            schema.attribute_owner("zzz")

    def test_duplicate_relation_rejected(self):
        with pytest.raises(SchemaError):
            Schema([_rel("a", "a_pk"), _rel("a", "a_pk2")])

    def test_global_attribute_uniqueness(self):
        with pytest.raises(SchemaError):
            Schema([_rel("a", "a_pk", attrs=["x"]), _rel("b", "b_pk", attrs=["x"])])

    def test_dangling_fk_rejected(self):
        with pytest.raises(SchemaError):
            Schema([_rel("a", "a_pk", fks=[("fk", "missing")])])

    def test_self_reference_rejected(self):
        with pytest.raises(SchemaError):
            Schema([_rel("a", "a_pk", fks=[("fk", "a")])])

    def test_double_reference_same_target_rejected(self):
        with pytest.raises(SchemaError):
            Schema([
                _rel("dim", "d_pk"),
                Relation(name="fact", primary_key="f_pk", foreign_keys=[
                    ForeignKey("fk1", "dim"), ForeignKey("fk2", "dim"),
                ]),
            ])

    def test_cycle_rejected(self):
        with pytest.raises(SchemaError):
            Schema([
                _rel("a", "a_pk", fks=[("a_to_b", "b")]),
                _rel("b", "b_pk", fks=[("b_to_a", "a")]),
            ])

    def test_topological_order_references_first(self):
        schema = Schema([
            _rel("fact", "f_pk", fks=[("f_dim", "dim")]),
            _rel("dim", "d_pk", fks=[("d_sub", "subdim")]),
            _rel("subdim", "s_pk"),
        ])
        order = schema.topological_order()
        assert order.index("subdim") < order.index("dim") < order.index("fact")

    def test_referenced_closure_transitive(self):
        schema = Schema([
            _rel("fact", "f_pk", fks=[("f_dim", "dim")]),
            _rel("dim", "d_pk", fks=[("d_sub", "subdim")]),
            _rel("subdim", "s_pk"),
            _rel("other", "o_pk"),
        ])
        closure = schema.referenced_closure("fact")
        assert set(closure) == {"dim", "subdim"}
        assert schema.referenced_closure("other") == []

    def test_dependents_of(self):
        schema = Schema([
            _rel("dim", "d_pk"),
            _rel("fact1", "f1_pk", fks=[("f1_dim", "dim")]),
            _rel("fact2", "f2_pk", fks=[("f2_dim", "dim")]),
        ])
        assert schema.dependents_of("dim") == ["fact1", "fact2"]

    def test_join_path(self):
        schema = Schema([
            _rel("fact", "f_pk", fks=[("f_dim", "dim")]),
            _rel("dim", "d_pk", fks=[("d_sub", "subdim")]),
            _rel("subdim", "s_pk"),
        ])
        assert schema.join_path("fact", "subdim") == ["fact", "dim", "subdim"]
        assert schema.join_path("subdim", "fact") is None
        assert schema.join_path("fact", "fact") == ["fact"]

    def test_tree_vs_dag_detection(self):
        tree = Schema([
            _rel("fact", "f_pk", fks=[("f_dim", "dim")]),
            _rel("dim", "d_pk"),
        ])
        assert tree.is_tree_structured()
        dag = Schema([
            _rel("a", "a_pk", fks=[("a_b", "b"), ("a_c", "c")]),
            _rel("b", "b_pk", fks=[("b_d", "d")]),
            _rel("c", "c_pk", fks=[("c_d", "d")]),
            _rel("d", "d_pk"),
        ])
        assert not dag.is_tree_structured()

    def test_scaled_and_total_rows(self):
        schema = Schema([_rel("a", "a_pk", rows=100), _rel("b", "b_pk", rows=50)])
        assert schema.total_rows() == 150
        assert schema.scaled(2.0).total_rows() == 300
