"""The ws-tree as the engine represents it (Definition 4.1, Figure 3, Figure 7).

The ws-tree the system builds and evaluates is a recorded
:class:`~repro.circuit.circuit.Circuit`.  These tests build small circuits by
hand — the tree R of Figure 3 among them — and check the Figure 7 equations
(:meth:`Circuit.evaluate`), the ws-set each tree denotes, and that the
Definition 4.1 checks of :func:`circuit_wsset.circuit_wsset` reject trees
that break the definition.
"""

from __future__ import annotations

import pytest

from repro.circuit.circuit import CONST, IE, PROD, SUM, Circuit
from repro.core.bruteforce import brute_force_probability
from repro.core.interned import InternedEngine
from repro.core.probability import ExactConfig
from repro.core.wsset import WSSet

from circuit_wsset import circuit_wsset, record


class TreeBuilder:
    """Emit circuit nodes over a world table's space, children first."""

    def __init__(self, world_table):
        self.space = InternedEngine(world_table, ExactConfig()).space
        self.nodes: list[tuple] = []

    def _emit(self, node: tuple) -> int:
        self.nodes.append(node)
        return len(self.nodes) - 1

    def _value_id(self, variable, value) -> int:
        return self.space.pack(variable, value) & self.space.mask

    def const(self, value: float) -> int:
        return self._emit((CONST, value))

    def ie(self, *terms) -> int:
        """``terms``: ``(positive, {variable: value})`` pairs."""
        packed = tuple(
            (positive, tuple(sorted(self.space.pack(*item) for item in term.items())))
            for positive, term in terms
        )
        return self._emit((IE, packed))

    def prod(self, *children: int) -> int:
        return self._emit((PROD, children))

    def sum(self, variable, certain=(), branches=(), absent=(), absent_child=None):
        """⊕ on ``variable``: ``branches`` are ``(value, child)`` pairs."""
        return self._emit(
            (
                SUM,
                self.space.variable_ids[variable],
                tuple(self._value_id(variable, value) for value in certain),
                tuple((self._value_id(variable, v), child) for v, child in branches),
                tuple(self._value_id(variable, value) for value in absent),
                absent_child,
            )
        )

    def circuit(self) -> Circuit:
        """The circuit rooted at the last node emitted."""
        shift = self.space.shift
        variable_ids = set()
        for node in self.nodes:
            if node[0] == SUM:
                variable_ids.add(node[1])
            elif node[0] == IE:
                variable_ids.update(p >> shift for _, slots in node[1] for p in slots)
        return Circuit(
            self.space, self.nodes, len(self.nodes) - 1, (), frozenset(variable_ids)
        )


def figure3_tree(world_table) -> Circuit:
    """The ws-tree R of Figure 3, built by hand."""
    tree = TreeBuilder(world_table)
    y = tree.sum("y", certain=(1,))
    z = tree.sum("z", certain=(1,))
    left = tree.sum("x", certain=(1,), branches=((2, tree.prod(y, z)),), absent=(3,))
    v = tree.sum("v", certain=(1,))
    right = tree.sum("u", certain=(2,), branches=((1, v),))
    tree.prod(left, right)
    return tree.circuit()


def leaf(world_table, value: float) -> Circuit:
    tree = TreeBuilder(world_table)
    tree.const(value)
    return tree.circuit()


class TestLeaves:
    def test_leaf_probability_is_one(self, figure3_world_table):
        assert leaf(figure3_world_table, 1.0).evaluate() == 1.0

    def test_bottom_probability_is_zero(self, figure3_world_table):
        assert leaf(figure3_world_table, 0.0).evaluate() == 0.0

    def test_leaf_wsset_is_universal(self, figure3_world_table):
        assert circuit_wsset(leaf(figure3_world_table, 1.0)) == WSSet.universal()

    def test_bottom_wsset_is_empty(self, figure3_world_table):
        assert circuit_wsset(leaf(figure3_world_table, 0.0)).is_empty

    def test_counts_and_variables(self, figure3_world_table):
        circuit = leaf(figure3_world_table, 1.0)
        assert len(circuit) == 1
        assert circuit.variables == frozenset()


class TestFigure3Tree:
    def test_probability_matches_example_47(self, figure3_world_table):
        assert figure3_tree(figure3_world_table).evaluate() == pytest.approx(0.7578)

    def test_probability_matches_the_recorded_circuit(
        self, figure3_wsset, figure3_world_table
    ):
        recorded = record(figure3_wsset, figure3_world_table, ExactConfig())
        assert figure3_tree(figure3_world_table).evaluate() == pytest.approx(
            recorded.evaluate()
        )

    def test_to_wsset_matches_figure3(self, figure3_wsset, figure3_world_table):
        assert circuit_wsset(figure3_tree(figure3_world_table)) == figure3_wsset

    def test_variables(self, figure3_world_table):
        circuit = figure3_tree(figure3_world_table)
        assert circuit.variables == frozenset({"x", "y", "z", "u", "v"})

    def test_node_count(self, figure3_world_table):
        """Five ⊕ nodes and two ⊗ nodes; the ∅ leaves are ``certain`` values."""
        assert len(figure3_tree(figure3_world_table)) == 7

    def test_repr_counts_nodes_and_variables(self, figure3_world_table):
        rendering = repr(figure3_tree(figure3_world_table))
        assert "7 nodes" in rendering
        assert "5 variables" in rendering


class TestStructuralConstraints:
    """:func:`circuit_wsset` refuses trees that break Definition 4.1."""

    def test_rejects_shared_variables_under_otimes(self, figure3_world_table):
        tree = TreeBuilder(figure3_world_table)
        tree.prod(tree.sum("x", certain=(1,)), tree.sum("x", certain=(2,)))
        with pytest.raises(AssertionError, match="share variables"):
            circuit_wsset(tree.circuit())

    def test_rejects_repeated_values_under_oplus(self, figure3_world_table):
        tree = TreeBuilder(figure3_world_table)
        tree.sum("u", certain=(1,), branches=((1, tree.sum("v", certain=(1,))),))
        with pytest.raises(AssertionError, match="values repeat"):
            circuit_wsset(tree.circuit())

    def test_rejects_absent_value_that_repeats_a_branch(self, figure3_world_table):
        tree = TreeBuilder(figure3_world_table)
        v = tree.sum("v", certain=(1,))
        tree.sum("x", certain=(1,), absent=(1, 2), absent_child=v)
        with pytest.raises(AssertionError, match="values repeat"):
            circuit_wsset(tree.circuit())

    def test_rejects_repeated_variable_on_path(self, figure3_world_table):
        tree = TreeBuilder(figure3_world_table)
        tree.sum("x", branches=((2, tree.sum("x", certain=(1,))),))
        with pytest.raises(AssertionError, match="mentions x"):
            circuit_wsset(tree.circuit())

    def test_rejects_repeated_variable_below_otimes(self, figure3_world_table):
        tree = TreeBuilder(figure3_world_table)
        inner = tree.prod(tree.sum("y", certain=(1,)), tree.sum("x", certain=(1,)))
        tree.sum("x", branches=((2, inner),))
        with pytest.raises(AssertionError, match="mentions x"):
            circuit_wsset(tree.circuit())

    def test_rejects_constants_other_than_the_leaves(self, figure3_world_table):
        with pytest.raises(AssertionError):
            circuit_wsset(leaf(figure3_world_table, 0.5))


class TestProbabilityEquations:
    """The equations of Figure 7 on tiny hand-built trees."""

    def test_oplus_weights_branches(self, figure3_world_table):
        tree = TreeBuilder(figure3_world_table)
        tree.sum("u", certain=(1,), branches=((2, tree.const(0.0)),))
        assert tree.circuit().evaluate() == pytest.approx(0.7)

    def test_oplus_missing_branch_contributes_zero(self, figure3_world_table):
        tree = TreeBuilder(figure3_world_table)
        tree.sum("x", certain=(1,), absent=(2, 3))
        assert tree.circuit().evaluate() == pytest.approx(0.1)

    def test_oplus_absent_values_share_the_t_branch(self, figure3_world_table):
        tree = TreeBuilder(figure3_world_table)
        u = tree.sum("u", certain=(1,))
        tree.sum("x", certain=(1,), absent=(2, 3), absent_child=u)
        circuit = tree.circuit()
        assert circuit.evaluate() == pytest.approx(0.1 + (0.4 + 0.5) * 0.7)
        assert circuit_wsset(circuit) == WSSet(
            [{"x": 1}, {"x": 2, "u": 1}, {"x": 3, "u": 1}]
        )

    def test_otimes_inclusion_exclusion(self, figure3_world_table):
        tree = TreeBuilder(figure3_world_table)
        tree.prod(tree.sum("u", certain=(1,)), tree.sum("v", certain=(1,)))
        expected = 1 - (1 - 0.7) * (1 - 0.5)
        assert tree.circuit().evaluate() == pytest.approx(expected)

    def test_closed_form_is_inclusion_exclusion(self, figure3_world_table):
        tree = TreeBuilder(figure3_world_table)
        tree.ie((True, {"u": 1}), (True, {"v": 1}), (False, {"u": 1, "v": 1}))
        circuit = tree.circuit()
        assert circuit.evaluate() == pytest.approx(0.7 + 0.5 - 0.7 * 0.5)
        assert circuit_wsset(circuit) == WSSet([{"u": 1}, {"v": 1}])

    def test_nested_tree_semantics_match_its_wsset(self, figure3_world_table):
        circuit = figure3_tree(figure3_world_table)
        assert circuit.evaluate() == pytest.approx(
            brute_force_probability(circuit_wsset(circuit), figure3_world_table)
        )
