import itertools

import pytest

from quivertilt.errors import UnsupportedParameters, VertexError
from quivertilt.family import family_instance, radical_layers
from quivertilt.quiver import branch_s, branch_t, r, s, t
from quivertilt import reps

from reference import path_action

SWEEP = [(1, 2), (2, 2), (1, 3), (2, 3), (3, 2), (3, 3), (2, 4)]


@pytest.fixture(scope="module")
def f22():
    return family_instance(2, 2)


def test_parameter_guard():
    with pytest.raises(UnsupportedParameters):
        family_instance(0, 2)
    with pytest.raises(UnsupportedParameters):
        family_instance(1, 1)


def test_summand_count():
    for (a1, a2) in SWEEP:
        inst = family_instance(a1, a2)
        assert len([inst.module_M(x) for x in inst.vertices]) == a2 + 2 * a1 - 1


def test_edge_conventions(f22):
    assert branch_s(f22.a1, f22.a2, 2) == r(2)
    assert branch_t(f22.a1, 0) == r(0)
    with pytest.raises(VertexError):
        branch_s(f22.a1, f22.a2, 5)


def test_golden_supports(f22):
    # golden fixture numbering: 1=s1, 2=r2, 3=r0, 4=t1, 5=r1
    lab = {s(1): 1, r(2): 2, r(0): 3, t(1): 4, r(1): 5}
    expected = {1: {3, 5}, 2: {3, 4, 5}, 3: {1, 2, 5}, 4: {5, 2}, 5: {1, 2, 3, 4}}
    for x, num in lab.items():
        got = {lab[v] for v in f22.module_M(x).support()}
        assert got == expected[num], f"M({num})"


def test_golden_layers(f22):
    lab = {s(1): "1", r(2): "2", r(0): "3", t(1): "4", r(1): "5"}
    layers = radical_layers(f22.module_M(r(1)))
    assert [[lab[v] for v in layer] for layer in layers] == [["1"], ["2"], ["3"], ["4"]]
    layers2 = radical_layers(f22.module_M(r(2)))
    assert [[lab[v] for v in layer] for layer in layers2] == [["3"], ["5", "4"]]


def support_is_connected(m):
    """The support of m is connected through the arrows m does not kill."""
    supp = m.support()
    if not supp:
        return False
    adj = {v: set() for v in supp}
    for (a, b), mat in m.maps.items():
        if a in supp and b in supp and not mat.is_zero():
            adj[a].add(b)
            adj[b].add(a)
    seen = set()
    stack = [min(supp)]
    while stack:
        v = stack.pop()
        if v not in seen:
            seen.add(v)
            stack.extend(adj[v])
    return seen == supp


def test_summands_thin_connected_distinct():
    for (a1, a2) in SWEEP:
        inst = family_instance(a1, a2)
        supports = set()
        for x in inst.vertices:
            m = inst.module_M(x)
            assert m.is_thin_binary()
            assert support_is_connected(m)
            supports.add(m.support())
        assert len(supports) == len(inst.vertices)


def test_exact_sequence_cross_checks_run():
    # module_M raises if the kernel/cokernel route disagrees with the table
    inst = family_instance(3, 3)
    for x in inst.vertices:
        inst.module_M(x)


def test_sincere():
    for (a1, a2) in SWEEP:
        inst = family_instance(a1, a2)
        covered = set().union(*(inst.support_M(x) for x in inst.vertices))
        assert covered == set(inst.vertices)


def test_remark_min_path_composition():
    # along any shortest quiver path w inside the support of M(r_i), the
    # composed map is 1 iff r_i is not an interior stop of w
    inst = family_instance(2, 3)
    for i in range(inst.a2 + 1):
        m = inst.module_M(r(i))
        verts = sorted(m.support())
        for x in verts:
            for y in verts:
                w = _shortest_path(inst.quiver, x, y)
                if w is None:
                    continue
                composed = path_action(m, _as_path(inst, x, y, w))
                touches = r(i) in w
                expected = 0 if touches else 1
                assert composed.rows[0][0] == expected, (i, x.label, y.label)


def _shortest_path(quiver, x, y):
    from collections import deque

    queue = deque([(x, [x])])
    seen = {x}
    while queue:
        v, trail = queue.popleft()
        if v == y:
            return trail
        for (_, dst) in quiver.arrows_from(v):
            if dst not in seen:
                seen.add(dst)
                queue.append((dst, trail + [dst]))
    return None


def _as_path(inst, x, y, trail):
    from quivertilt.algebra import Path

    arrows = tuple((trail[i], trail[i + 1]) for i in range(len(trail) - 1))
    return Path(x, y, arrows)


def test_expected_tau_matches_engine():
    for (a1, a2) in SWEEP:
        inst = family_instance(a1, a2)
        for x in inst.vertices:
            got = reps.tau(inst.module_M(x))
            expected = inst.expected_tau(x)
            assert reps.is_isomorphic_reps(got, expected), (a1, a2, x.label)


def test_tau_zero_exactly_on_projective_summands():
    for (a1, a2) in SWEEP:
        inst = family_instance(a1, a2)
        zero_at = {x for x in inst.vertices if reps.tau(inst.module_M(x)).is_zero()}
        assert zero_at == set(inst.projective_summand_vertices()), (a1, a2)


def test_expected_hom_matches_engine():
    for (a1, a2) in SWEEP:
        inst = family_instance(a1, a2)
        for x, y in itertools.product(inst.vertices, repeat=2):
            got = reps.hom_dim(inst.module_M(x), inst.module_M(y))
            assert got == inst.expected_hom_dim(x, y), (a1, a2, x.label, y.label)


def test_submodule_totals_and_classified():
    for (a1, a2) in SWEEP:
        inst = family_instance(a1, a2)
        for i in range(a2 + 1):
            lattice = reps.submodules_thin(inst.module_M(r(i)))
            assert lattice.count == a1 * a2 + 1
            classified = reps.classify_submodule_counts(lattice, r(a2), r(0))
            assert classified == inst.expected_classified_counts(i)


def test_classified_example_221():
    inst = family_instance(2, 2)
    lattice = reps.submodules_thin(inst.module_M(r(1)))
    assert reps.classify_submodule_counts(lattice, r(2), r(0)) == (2, 1, 2)


def test_golden_submodules_of_M2(f22):
    lab = {s(1): 1, r(2): 2, r(0): 3, t(1): 4, r(1): 5}
    lattice = reps.submodules_thin(f22.module_M(r(2)))
    got = {frozenset(lab[v] for v in sub) for sub in lattice.subsets}
    assert got == {
        frozenset(),
        frozenset({4}),
        frozenset({5}),
        frozenset({4, 5}),
        frozenset({3, 4, 5}),
    }


def test_identifications():
    for (a1, a2) in SWEEP:
        inst = family_instance(a1, a2)
        for (_, x, kind, y) in inst.identification_table():
            m = inst.module_M(x)
            other = (
                reps.projective(inst.algebra, y)
                if kind == "P"
                else reps.injective(inst.algebra, y)
            )
            assert reps.is_isomorphic_reps(m, other), (a1, a2, x.label, kind, y.label)
