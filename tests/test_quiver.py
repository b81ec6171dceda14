import itertools

import pytest

from quivertilt.algebra import build_quiver
from quivertilt.errors import ConversionError, VertexError
from quivertilt.quiver import (
    Quiver,
    TypeLabel,
    Vertex,
    classify_acyclic_type,
    has_directed_cycle,
    mutate_matrix,
    opposite,
    parse_vertex,
    r,
    s,
    t,
    to_exchange_matrix,
    tree_branch_data,
)

from reference import find_isomorphism


def path_quiver(n):
    verts = tuple(r(i) for i in range(1, n + 1))
    arrows = tuple((r(i), r(i + 1)) for i in range(1, n))
    return Quiver(verts, arrows)


def tree_quiver(p, q, rr, flip=()):
    """T_{p,q,r}: center c plus three arms with p-1, q-1, r-1 edges."""
    center = r(0)
    verts = [center]
    arrows = []
    for arm, (length, role) in enumerate(zip((p - 1, q - 1, rr - 1), "rst")):
        prev = center
        for i in range(1, length + 1):
            v = {"r": r, "s": s, "t": t}[role](arm * 50 + i)
            verts.append(v)
            arrows.append((v, prev) if (arm, i) in flip else (prev, v))
            prev = v
    return Quiver(tuple(verts), tuple(arrows))


# -- exchange matrices ---------------------------------------------------------


def test_single_arrow_matrix():
    q = Quiver((r(1), r(2)), ((r(1), r(2)),))
    assert to_exchange_matrix(q).entries == ((0, 1), (-1, 0))


def test_one_vertex_matrix():
    q = Quiver((r(0),), ())
    assert to_exchange_matrix(q).entries == ((0,),)


def test_q22_matrix_nonzero_pairs():
    b = to_exchange_matrix(build_quiver(2, 2))
    nonzero = sum(1 for i in range(5) for j in range(5) if b.entries[i][j] > 0)
    assert nonzero == 5  # five arrows at (2,2)
    b32 = to_exchange_matrix(build_quiver(3, 2))
    nonzero32 = sum(1 for i in range(7) for j in range(7) if b32.entries[i][j] > 0)
    assert nonzero32 == 7


def test_two_cycle_rejected():
    with pytest.raises(ConversionError):
        Quiver((r(1), r(2)), ((r(1), r(2)), (r(2), r(1))))


def test_exchange_matrix_of_opposite_is_negative():
    for (a1, a2) in [(1, 2), (2, 2), (2, 3)]:
        q = build_quiver(a1, a2)
        negated = tuple(tuple(-x for x in row) for row in to_exchange_matrix(q).entries)
        assert to_exchange_matrix(opposite(q)).entries == negated


# -- mutation ------------------------------------------------------------------


def test_mutation_involution():
    b = to_exchange_matrix(build_quiver(2, 3))
    for v in b.vertices:
        assert mutate_matrix(mutate_matrix(b, v), v).entries == b.entries


def test_mutation_a3_at_middle():
    b = to_exchange_matrix(path_quiver(3))
    out = mutate_matrix(b, r(2))
    assert out.entries == ((0, -1, 1), (1, 0, -1), (-1, 1, 0))


def test_mutation_q22_at_r1_matches_figure():
    # at a2 = 2 the composition r0 -> r2 cancels against the closing arrow
    # r2 -> r0, so one mutation already breaks the cycle into the tree shape
    b = to_exchange_matrix(build_quiver(2, 2))
    out = mutate_matrix(b, r(1)).to_quiver()
    arrows = sorted((a.label, c.label) for (a, c) in out.arrows)
    assert arrows == [("r0", "t1"), ("r1", "r0"), ("r2", "r1"), ("s1", "r2")]


def test_mutation_q23_at_r1_creates_long_arrow():
    b = to_exchange_matrix(build_quiver(2, 3))
    out = mutate_matrix(b, r(1)).to_quiver()
    arrows = {(a.label, c.label) for (a, c) in out.arrows}
    assert ("r0", "r2") in arrows
    assert ("r1", "r0") in arrows and ("r2", "r1") in arrows
    assert ("r0", "r1") not in arrows


# -- opposite ------------------------------------------------------------------


def test_opposite_involution():
    q = build_quiver(3, 2)
    assert opposite(opposite(q)) == q


def test_opposite_reverses_potential():
    q = build_quiver(2, 2)
    op = opposite(q)
    assert op.potential is not None
    assert set(op.potential) == {(b, a) for (a, b) in q.potential}


# -- isomorphism ---------------------------------------------------------------


def test_family_quiver_selfdual():
    for (a1, a2) in [(1, 2), (2, 2), (2, 3), (3, 3)]:
        q = build_quiver(a1, a2)
        iso = find_isomorphism(q, opposite(q))
        assert iso is not None


def test_paths_with_flipped_arrow_not_isomorphic():
    q1 = path_quiver(3)
    q2 = Quiver(q1.vertices, ((r(1), r(2)), (r(3), r(2))))
    assert find_isomorphism(q1, q2) is None


def test_different_sizes_not_isomorphic():
    assert find_isomorphism(build_quiver(2, 3), build_quiver(3, 2)) is None


def test_isomorphism_reflexive_symmetric():
    q1 = build_quiver(2, 2)
    q2 = opposite(q1)
    assert find_isomorphism(q1, q1) is not None
    fwd = find_isomorphism(q1, q2)
    back = find_isomorphism(q2, q1)
    assert (fwd is None) == (back is None)


# -- classification ------------------------------------------------------------


def test_classify_paths():
    for n in (1, 2, 5):
        assert classify_acyclic_type(path_quiver(n)) == TypeLabel("A", (n,))


def test_classify_e6():
    assert classify_acyclic_type(tree_quiver(3, 3, 2)) == TypeLabel("E", (6,))


def test_classify_d_series():
    for rr in (2, 3, 5):
        assert classify_acyclic_type(tree_quiver(2, 2, rr)) == TypeLabel("D", (rr + 2,))


def test_classify_affine_and_wild():
    assert classify_acyclic_type(tree_quiver(3, 3, 3)) == TypeLabel("AffineE", (6,))
    assert classify_acyclic_type(tree_quiver(4, 4, 2)) == TypeLabel("AffineE", (7,))
    assert classify_acyclic_type(tree_quiver(6, 3, 2)) == TypeLabel("AffineE", (8,))
    assert classify_acyclic_type(tree_quiver(5, 5, 3)) == TypeLabel("TreeWild", (3, 5, 5))


def test_classify_invariant_under_arm_permutation():
    for perm in itertools.permutations((3, 3, 2)):
        assert classify_acyclic_type(tree_quiver(*perm)) == TypeLabel("E", (6,))


def test_classify_orientation_independent():
    assert classify_acyclic_type(tree_quiver(3, 3, 2, flip=((0, 1), (2, 1)))) == TypeLabel(
        "E", (6,)
    )


def test_classify_cyclic_input():
    assert classify_acyclic_type(build_quiver(2, 2)) == TypeLabel("Cyclic")


def test_classify_other_for_two_branch_vertices():
    # two degree-3 vertices: a path with two hairs
    verts = tuple(r(i) for i in range(6)) + (s(1), t(1))
    arrows = tuple((r(i), r(i + 1)) for i in range(5)) + ((r(1), s(1)), (r(4), t(1)))
    assert classify_acyclic_type(Quiver(verts, arrows)) == TypeLabel("Other")


def test_has_directed_cycle():
    from quivertilt.cluster import build_mu

    assert has_directed_cycle(build_quiver(2, 3))
    mu_r = to_exchange_matrix(build_quiver(3, 3))
    for k in build_mu(3, 3).mu_r:
        mu_r = mutate_matrix(mu_r, k)
    assert not has_directed_cycle(mu_r.to_quiver())
    # the only cycle r1 -> r2 -> r3 -> r1 avoids the first vertex r0
    verts = tuple(r(i) for i in range(4))
    arrows = ((r(0), r(1)), (r(1), r(2)), (r(2), r(3)), (r(3), r(1)))
    assert has_directed_cycle(Quiver(verts, arrows))


def test_tree_branch_data():
    assert tree_branch_data(tree_quiver(3, 3, 2)) == (2, 3, 3)
    assert tree_branch_data(path_quiver(4)) is None


# -- sources and sinks -----------------------------------------------------------


def test_source_sink_basic():
    q = build_quiver(2, 2)
    assert q.arrows_from(t(1)) == []
    assert q.arrows_into(r(0)) and q.arrows_from(r(0))
    assert q.arrows_into(s(1)) == []


def test_s1_source_in_mu_r_quiver():
    from quivertilt.cluster import build_mu

    for (a1, a2) in [(2, 2), (3, 3)]:
        b = to_exchange_matrix(build_quiver(a1, a2))
        for k in build_mu(a1, a2).mu_r:
            b = mutate_matrix(b, k)
        assert b.to_quiver().arrows_into(s(1)) == []


# -- serialization ---------------------------------------------------------------


def test_vertex_role_checked():
    with pytest.raises(VertexError):
        Vertex("x", 1)


def test_vertex_tuple_order_is_canonical_order():
    # r9 < r10 holds for the tuples but not for the labels
    for (a1, a2) in [(1, 2), (3, 4), (10, 12)]:
        q = build_quiver(a1, a2)
        assert sorted(reversed(q.vertices)) == list(q.vertices)


def test_vertex_equality_and_hash():
    assert r(3) == Vertex("r", 3)
    assert hash(r(3)) == hash(Vertex("r", 3))
    assert {r(3): 1}[Vertex("r", 3)] == 1


def test_parse_vertex():
    assert parse_vertex("r10") == r(10)
    with pytest.raises(VertexError):
        parse_vertex("x3")


def test_exchange_matrix_round_trip():
    for (a1, a2) in [(1, 2), (2, 3), (3, 2)]:
        q = build_quiver(a1, a2)
        back = to_exchange_matrix(q).to_quiver()
        assert sorted(back.arrows) == sorted(q.arrows)
