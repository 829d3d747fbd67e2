"""Instance generators: determinism, validation, and the reduction contracts."""

import random
from itertools import combinations

import pytest

from hornsafe import (
    Clause,
    Graph,
    deduce_exterior_charset,
    deduce_exterior_formula,
    deduce_interior_charset,
    has_independent_set,
    has_vertex_cover,
    independent_set_instance,
    interior_consistency_instance,
    intersection_closure,
    max_independent_set_size,
    min_vertex_cover_size,
    named_graph,
    random_horn,
    vertex_cover_instance,
)
from hornsafe.core import parse_horn_cnf, serialize_horn_cnf
from hornsafe.oracle import exterior_models, interior_models, oracle_deduce


def all_graphs(nv):
    pairs = list(combinations(range(1, nv + 1), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(nv, tuple(p for i, p in enumerate(pairs) if mask >> i & 1))


class TestGraph:
    def test_canonical_edges(self):
        g = Graph(4, ((2, 1), (3, 4), (1, 2)))
        assert g.edges == ((1, 2), (3, 4))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, ((1, 1),))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, ((1, 4),))

    def test_named_graphs(self):
        assert named_graph("k3").edges == ((1, 2), (1, 3), (2, 3))
        assert named_graph("p3").edges == ((1, 2), (2, 3))
        assert named_graph("c4").edges == ((1, 2), (1, 4), (2, 3), (3, 4))
        assert named_graph("e5").edges == ()
        with pytest.raises(ValueError):
            named_graph("z3")
        with pytest.raises(ValueError):
            named_graph("k")

    def test_brute_force_helpers(self):
        assert max_independent_set_size(named_graph("k3")) == 1
        assert max_independent_set_size(named_graph("p3")) == 2
        assert min_vertex_cover_size(named_graph("c4")) == 2


class TestRandomHorn:
    def test_deterministic(self):
        a = random_horn(6, 10, 3, seed=99)
        b = random_horn(6, 10, 3, seed=99)
        assert a == b
        assert a != random_horn(6, 10, 3, seed=100)

    def test_neg_only(self):
        t = random_horn(8, 20, 4, neg_only=True, seed=5)
        assert t.is_negative

    def test_parses_and_validates(self):
        t = random_horn(4, 3, 3, seed=1)
        assert parse_horn_cnf(serialize_horn_cnf(t)) == t

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            random_horn(0, 3, 3)


class TestIndependentSetInstance:
    def test_triangle(self):
        theory, clause, alpha = independent_set_instance(named_graph("k3"), 2)
        assert alpha == 1
        assert deduce_exterior_formula(theory, clause, alpha).entailed  # max IS 1 < 2

    def test_path(self):
        theory, clause, alpha = independent_set_instance(named_graph("p3"), 2)
        assert not deduce_exterior_formula(theory, clause, alpha).entailed

    def test_edgeless(self):
        theory, clause, alpha = independent_set_instance(named_graph("e4"), 4)
        assert not deduce_exterior_formula(theory, clause, alpha).entailed

    def test_k_range(self):
        with pytest.raises(ValueError):
            independent_set_instance(named_graph("k3"), 0)


class TestInteriorConsistencyInstance:
    def test_triangle_consistent(self):
        charset, alpha = interior_consistency_instance(named_graph("k3"), 2)
        assert not deduce_interior_charset(charset, Clause(), alpha).entailed

    def test_path_inconsistent(self):
        charset, alpha = interior_consistency_instance(named_graph("p3"), 2)
        assert deduce_interior_charset(charset, Clause(), alpha).entailed

    def test_triangle_k3(self):
        # Consistent iff no independent set of size 3 exists -- it does not.
        charset, alpha = interior_consistency_instance(named_graph("k3"), 3)
        got = deduce_interior_charset(charset, Clause(), alpha)
        assert got.entailed == has_independent_set(named_graph("k3"), 3)

    def test_degenerate_graphs_rejected(self):
        with pytest.raises(ValueError):
            interior_consistency_instance(named_graph("e4"), 2)
        with pytest.raises(ValueError):
            interior_consistency_instance(Graph(2, ((1, 2),)), 1)


class TestVertexCoverInstance:
    def test_triangle(self):
        charset, clause, alpha = vertex_cover_instance(named_graph("k3"), 1)
        assert charset.n == 3 + 3 * 3
        assert deduce_exterior_charset(charset, clause, alpha).entailed  # min VC 2 > 1

    def test_path(self):
        charset, clause, alpha = vertex_cover_instance(named_graph("p3"), 1)
        assert not deduce_exterior_charset(charset, clause, alpha).entailed

    def test_single_edge(self):
        charset, clause, alpha = vertex_cover_instance(Graph(2, ((1, 2),)), 1)
        assert not deduce_exterior_charset(charset, clause, alpha).entailed

    def test_variable_layout(self):
        g = Graph(3, ((1, 2), (2, 3)))
        charset, clause, alpha = vertex_cover_instance(g, 1)
        # Member for vertex 1: all other vertices on, pad blocks of edges
        # avoiding vertex 1 on.  Edge order is (1,2) then (2,3).
        member = next(m for m in charset if 1 not in m.on_set())
        assert member.on_set() == {2, 3} | {7, 8, 9}  # second edge's block

    def test_cap(self):
        # k5 fits (5 + 5*10 = 55 variables); k6 needs 6 + 6*15 = 96.
        charset, _, _ = vertex_cover_instance(named_graph("k5"), 2)
        assert charset.n == 55
        with pytest.raises(ValueError, match="capped"):
            vertex_cover_instance(named_graph("k6"), 2)

    def test_k_range(self):
        with pytest.raises(ValueError):
            vertex_cover_instance(named_graph("k3"), 3)


class TestReductionContracts:
    """Exhaustive graphs at nv <= 4 against graph search and the oracle
    (nv = 5 runs in the acceptance suite)."""

    def test_independent_set(self):
        for nv in range(1, 5):
            for g in all_graphs(nv):
                for k in range(1, nv + 1):
                    theory, clause, alpha = independent_set_instance(g, k)
                    got = deduce_exterior_formula(theory, clause, alpha).entailed
                    assert got == (not has_independent_set(g, k))
                    from hornsafe.oracle import all_models

                    mod = all_models(theory)
                    assert got == oracle_deduce(exterior_models(mod, alpha), clause)

    def test_interior_consistency(self):
        for nv in (3, 4):
            for g in all_graphs(nv):
                if not g.edges:
                    continue
                for k in range(1, nv + 1):
                    charset, alpha = interior_consistency_instance(g, k)
                    got = deduce_interior_charset(charset, Clause(), alpha).entailed
                    assert got == has_independent_set(g, k)
                    mod = intersection_closure(charset)
                    assert got == oracle_deduce(interior_models(mod, alpha), Clause())

    def test_vertex_cover(self):
        for nv in range(2, 5):
            for g in all_graphs(nv):
                for k in range(1, nv):
                    charset, clause, alpha = vertex_cover_instance(g, k)
                    got = deduce_exterior_charset(charset, clause, alpha).entailed
                    assert got == (not has_vertex_cover(g, k))
                    if charset.n <= 12:
                        mod = intersection_closure(charset)
                        assert got == oracle_deduce(
                            exterior_models(mod, alpha), clause
                        )

    def test_sampled_nv6_graphs(self):
        # Exhaustive nv <= 5 runs in the acceptance suite; here a seeded
        # sample of 6-vertex graphs through all three reductions.
        rng = random.Random(616161)
        pairs = list(combinations(range(1, 7), 2))
        for _ in range(60):
            g = Graph(6, tuple(p for p in pairs if rng.random() < 0.4))
            k = rng.randint(1, 6)
            theory, clause, alpha = independent_set_instance(g, k)
            assert deduce_exterior_formula(theory, clause, alpha).entailed == (
                not has_independent_set(g, k)
            )
            if g.edges:
                charset, alpha = interior_consistency_instance(g, k)
                assert deduce_interior_charset(
                    charset, Clause(), alpha
                ).entailed == has_independent_set(g, k)
            if k < 6 and 6 + 6 * len(g.edges) <= 64:
                charset, clause, alpha = vertex_cover_instance(g, k)
                assert deduce_exterior_charset(charset, clause, alpha).entailed == (
                    not has_vertex_cover(g, k)
                )


class TestArgumentChecks:
    def test_graph_needs_a_vertex(self):
        with pytest.raises(ValueError, match="at least one vertex"):
            Graph(0)

    @pytest.mark.parametrize("spec", ["x3", "k", "kx", "k0"])
    def test_bad_graph_specs(self, spec):
        with pytest.raises(ValueError, match="bad graph spec"):
            named_graph(spec)

    def test_cycles_need_three_vertices(self):
        with pytest.raises(ValueError, match="at least 3 vertices"):
            named_graph("c2")

    @pytest.mark.parametrize("k", [0, 5, -1])
    def test_interior_consistency_k_outside_1_to_nv(self, k):
        with pytest.raises(ValueError, match=r"k must be in 1\.\.4"):
            interior_consistency_instance(named_graph("p4"), k)
