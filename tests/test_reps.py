import gc
import random
import weakref
from fractions import Fraction

import pytest

from quivertilt.algebra import (
    BoundAlgebra,
    Path,
    PathMatrix,
    build_algebra,
    combo_of,
    lazy_path,
)
from quivertilt.errors import RelationViolation, ShapeError, UnsupportedInput
from quivertilt.family import family_instance
from quivertilt.linalg import Matrix
from quivertilt.quiver import Quiver, branch_s, branch_t, r, s, t
from quivertilt.tilting import verify_tilting
from quivertilt import properties, report, reps

import reference


@pytest.fixture(scope="module")
def a22():
    return build_algebra(2, 2)


@pytest.fixture(scope="module")
def a2_quiver():
    """The hereditary two-vertex path algebra (no relations)."""
    return BoundAlgebra(Quiver((r(1), r(2)), ((r(1), r(2)),)), [], name="A2")


def thin_hom_basis(m, n):
    """Hom(M, N) of thin modules as morphisms: one per component of
    reps.thin_hom_components, its scalars as 1x1 blocks."""
    return [
        reps.Morphism(m, n, {v: Matrix([[c]]) for v, c in comp.items()}, check=False)
        for comp in reps.thin_hom_components(m, n)
    ]


def supp_labels(m):
    return sorted(v.label for v in m.support())


# -- projectives and injectives --------------------------------------------------


def test_projective_supports(a22):
    assert supp_labels(reps.projective(a22, r(0))) == ["r0", "r1", "t1"]
    assert supp_labels(reps.projective(a22, r(1))) == ["r1", "r2"]
    assert supp_labels(reps.projective(a22, s(1))) == ["r0", "r2", "s1", "t1"]
    assert supp_labels(reps.projective(a22, t(1))) == ["t1"]


def test_projective_top_is_simple(a22):
    for x in a22.quiver.vertices:
        top = reps.top_dims(reps.projective(a22, x))
        assert top == {v: (1 if v == x else 0) for v in a22.quiver.vertices}


def test_injective_socle_is_simple(a22):
    for x in a22.quiver.vertices:
        soc = reps.socle_dims(reps.injective(a22, x))
        assert soc == {v: (1 if v == x else 0) for v in a22.quiver.vertices}


def test_injective_supports(a22):
    assert supp_labels(reps.injective(a22, r(2))) == ["r1", "r2", "s1"]
    assert supp_labels(reps.injective(a22, s(1))) == ["s1"]
    assert supp_labels(reps.injective(a22, t(1))) == ["r0", "r2", "s1", "t1"]


def test_injective_column_for_s_branch():
    a = build_algebra(4, 2)
    assert supp_labels(reps.injective(a, s(2))) == ["s1", "s2"]


def test_dim_algebra_equals_sum_of_projectives_and_injectives(a22):
    total_p = sum(reps.projective(a22, x).total_dim for x in a22.quiver.vertices)
    total_i = sum(reps.injective(a22, x).total_dim for x in a22.quiver.vertices)
    assert total_p == a22.dimension == total_i


def test_projective_injective_selfduality():
    a = build_algebra(2, 3)
    op = a.opposite_algebra()
    p_dims = sorted(tuple(sorted(reps.projective(a, x).dims.values())) for x in a.quiver.vertices)
    i_dims = sorted(tuple(sorted(reps.injective(op, x).dims.values())) for x in op.quiver.vertices)
    assert p_dims == i_dims


# -- realize_path_matrix ----------------------------------------------------------


def test_realize_identity(a22):
    pm = PathMatrix((r(0),), (r(0),), ((combo_of(lazy_path(r(0))),),))
    f = reps.realize_path_matrix(a22, pm)
    assert f.source.dims == f.target.dims
    assert all(f.blocks[v] == Matrix.identity(f.source.dims[v]) for v in a22.quiver.vertices)


def test_realize_definition_map_gives_M_s1(a22):
    path = Path(r(0), t(1), ((r(0), t(1)),))
    pm = PathMatrix((r(0),), (t(1),), ((combo_of(path),),))
    g = reps.realize_path_matrix(a22, pm)
    cok, _ = reps.cokernel(g)
    assert supp_labels(cok) == ["r0", "r1"]  # M(s1) support at (2,2)


def test_realize_linearity(a22):
    p = Path(r(0), t(1), ((r(0), t(1)),))
    pm_sum = PathMatrix((r(0),), (t(1),), ((((2, p),),),))
    pm_one = PathMatrix((r(0),), (t(1),), ((combo_of(p),),))
    f2 = reps.realize_path_matrix(a22, pm_sum)
    f1 = reps.realize_path_matrix(a22, pm_one)
    for v in a22.quiver.vertices:
        doubled = [[2 * x for x in row] for row in f1.blocks[v].rows]
        assert f2.blocks[v] == Matrix(doubled, ncols=f1.blocks[v].ncols)


# -- presentations and tau ---------------------------------------------------------


def test_presentation_of_projective_has_no_p1(a22):
    pres = reps.minimal_projective_presentation(reps.projective(a22, s(1)))
    assert pres.p1_vertices == ()
    assert pres.p0_vertices == (s(1),)
    assert pres.p1.is_zero()
    assert pres.syzygy.is_zero()
    assert pres.path_matrix.entries == ((),)


def test_presentation_of_M_r0(a22):
    m = reps.thin_from_support(a22, [r(1), r(2), s(1)])  # M(r0) at (2,2)
    pres = reps.minimal_projective_presentation(m)
    assert sorted(v.label for v in pres.p0_vertices) == ["r1", "s1"]
    assert [v.label for v in pres.p1_vertices] == ["r2"]


def test_presentation_of_M_t_branch():
    a = build_algebra(3, 3)
    # M(t1) = thin on r1..r3, s2
    m = reps.thin_from_support(a, [r(1), r(2), r(3), s(2)])
    pres = reps.minimal_projective_presentation(m)
    assert sorted(v.label for v in pres.p0_vertices) == ["r1", "s2"]
    assert [v.label for v in pres.p1_vertices] == ["r3"]


def test_tau_of_projectives_is_zero(a22):
    for x in a22.quiver.vertices:
        assert reps.tau(reps.projective(a22, x)).is_zero()


def test_tau_strips_projective_summands(a22):
    m = reps.thin_from_support(a22, [r(1), r(2), s(1)])
    mixed, _ = reps.direct_sum([m, reps.projective(a22, r(0))])
    assert reps.is_isomorphic_reps(reps.tau(mixed), reps.tau(m))


def test_tau_inverse_inverts_tau(a22):
    m = reps.thin_from_support(a22, [r(1), r(2), s(1)])  # non-projective
    tm = reps.tau(m)
    back = reference.tau_inverse(tm)
    assert reps.is_isomorphic_reps(back, m)


def test_tau_inverse_kills_injectives(a22):
    assert reference.tau_inverse(reps.injective(a22, r(1))).is_zero()


def test_double_transpose_recovers_presentation(a22):
    m = reps.thin_from_support(a22, [r(1), r(2), s(1)])
    pres = reps.minimal_projective_presentation(m)
    pm2 = pres.path_matrix.transpose().transpose()
    assert pm2 == pres.path_matrix


# -- the per-module presentation memo -------------------------------------------------


def test_presentation_and_tau_are_computed_once(a22):
    m = reps.thin_from_support(a22, [r(1), r(2), s(1)])
    assert reps.minimal_projective_presentation(m) is reps.minimal_projective_presentation(m)
    assert reps.tau(m) is reps.tau(m)


def test_presentation_memo_is_cycle_free():
    # without cyclic GC, dropping the instance must free its summands even
    # though every summand carries its presentation and tau
    gc.disable()
    try:
        inst = family_instance(2, 2)
        report = verify_tilting(inst)
        m = inst.module_M(r(0))
        assert m._presentation is not None and m._tau is not None
        ref = weakref.ref(m)
        del inst, report, m
        assert ref() is None
    finally:
        gc.enable()


def ext1(m, n):
    """ext1_dim with the Hom(M, N) dimension a caller without a Hom table
    computes itself."""
    return reps.ext1_dim(m, n, reps.hom_dim(m, n))


def ext1_reference(m, n):
    """dim Ext^1(M, N) as the cokernel of Hom(P0, N) -> Hom(Ω, N), measured
    by rank: the reference for the dimension count in reps.ext1_dim."""
    if m.is_zero() or n.is_zero():
        return 0
    p0, cover, _, _ = reps.projective_cover(m)
    syzygy, inclusion = reps.kernel(cover)
    if syzygy.is_zero():
        return 0
    from_k = reference.hom_basis(syzygy, n)
    restricted = [reference.flatten(inclusion.then(h)) for h in reference.hom_basis(p0, n)]
    restricted = [v for v in restricted if any(x != 0 for x in v)]
    if not restricted:
        return len(from_k)
    return len(from_k) - Matrix(restricted).rank()


@pytest.mark.parametrize("a1,a2", [(3, 3), (2, 4)])
def test_ext_table_on_shared_summands_matches_fresh_copies(a1, a2):
    inst = family_instance(a1, a2)
    verts = inst.vertices

    def fresh(x):
        return reps.thin_from_support(inst.algebra, inst.support_M(x))

    shared = [[ext1(inst.module_M(x), inst.module_M(y)) for y in verts] for x in verts]
    assert shared == [[ext1(fresh(x), fresh(y)) for y in verts] for x in verts]
    reference = [
        [ext1_reference(inst.module_M(x), inst.module_M(y)) for y in verts] for x in verts
    ]
    assert shared == reference


def test_ext1_count_matches_reference_against_tau():
    inst = family_instance(2, 3)
    modules = [inst.module_M(x) for x in inst.vertices]
    pairs = [(m, reps.tau(n)) for m in modules for n in modules]
    pairs += [(reps.tau(m), n) for m in modules for n in modules]
    values = [ext1(m, n) for m, n in pairs]
    assert values == [ext1_reference(m, n) for m, n in pairs]
    assert any(values)


# -- differential tests against the reference constructions ---------------------


def assert_same_morphism(f, g):
    assert f.source == g.source and f.target == g.target
    assert f.blocks == g.blocks


@pytest.mark.parametrize("a1,a2", [(2, 2), (2, 4), (3, 3), (1, 3)])
def test_constructions_match_reference(a1, a2):
    inst = family_instance(a1, a2)
    op = inst.algebra.opposite_algebra()
    for x in inst.vertices:
        m = inst.module_M(x)
        pres = reps.minimal_projective_presentation(m)
        for module in (m, pres.syzygy):
            p0, cover, verts, offsets = reps.projective_cover(module)
            ref_p0, ref_cover, ref_verts, ref_offsets = reference.projective_cover(module)
            assert p0 == ref_p0 and verts == ref_verts and offsets == ref_offsets
            assert_same_morphism(cover, ref_cover)
        for algebra, pm in ((inst.algebra, pres.path_matrix), (op, pres.path_matrix.transpose())):
            d = reps.realize_path_matrix(algebra, pm)
            assert_same_morphism(d, reference.realize_path_matrix(algebra, pm))
            cok, proj = reps.cokernel(d)
            ref_cok, ref_proj = reference.cokernel(d)
            assert cok == ref_cok
            assert proj.blocks == ref_proj.blocks
        assert reps.tau(m) == reference.tau(m)


@pytest.mark.parametrize("a1,a2", [(2, 2), (2, 4), (3, 3)])
def test_exact_sequence_modules_match_reference(a1, a2):
    inst = family_instance(a1, a2)
    op = inst.algebra.opposite_algebra()
    for i in range(1, a1):
        tail = inst._branch_path(r(0), [branch_t(a1, j) for j in range(1, i + 1)])
        pm = PathMatrix((r(0),), (tail.target,), ((combo_of(tail),),))
        ref_cok, _ = reference.cokernel(reference.realize_path_matrix(inst.algebra, pm))
        assert inst._module_s_from_sequence(i) == ref_cok

        chain = [s(j) for j in range(i + 1, a1)] + [r(a2)]
        head = inst._branch_path(branch_s(a1, a2, i), chain).reversed()
        pm_op = PathMatrix((head.source,), (head.target,), ((combo_of(head),),))
        f = reference.transpose_morphism(reference.realize_path_matrix(op, pm_op))
        assert_same_morphism(reps.dual_morphism(reps.realize_path_matrix(op, pm_op)), f)
        ref_ker, _ = reps.kernel(f)
        assert inst._module_t_from_sequence(i) == ref_ker


# -- hom, ext, stable hom -----------------------------------------------------------


def test_hom_identity_present(a22):
    m = reps.thin_from_support(a22, [r(0), r(1)])
    assert reps.hom_dim(m, m) >= 1


def test_composition_needs_the_same_middle_module(a22):
    m = reps.thin_from_support(a22, [r(0), r(1)])
    maps = dict(m.maps)
    maps[(r(0), r(1))] = Matrix.zeros(1, 1)
    split = reps.Representation(a22, dict(m.dims), maps)  # same dims, different map
    to_split = reps.Morphism(reps.simple(a22, r(1)), split, {r(1): Matrix([[1]])})
    from_m = thin_hom_basis(m, m)[0]
    with pytest.raises(ShapeError):
        to_split.then(from_m)


def test_hom_requires_same_algebra(a22, a2_quiver):
    with pytest.raises(ShapeError):
        reps.hom_dim(reps.simple(a22, r(0)), reps.simple(a2_quiver, r(1)))


def test_ext1_hereditary_example(a2_quiver):
    s1 = reps.simple(a2_quiver, r(1))
    s2 = reps.simple(a2_quiver, r(2))
    assert ext1(s1, s2) == 1
    assert ext1(s2, s1) == 0


def test_ext1_vanishes_on_projectives(a22):
    for x in a22.quiver.vertices:
        p = reps.projective(a22, x)
        for y in a22.quiver.vertices:
            assert ext1(p, reps.simple(a22, y)) == 0


def test_stable_hom_injectives_example(a2_quiver):
    s1 = reps.simple(a2_quiver, r(1))  # = I(1) over the path algebra
    assert reps.stable_hom_dim(s1, s1) == 0


def test_ar_formula_on_a2(a2_quiver):
    s1 = reps.simple(a2_quiver, r(1))
    s2 = reps.simple(a2_quiver, r(2))
    assert ext1(s1, s2) == reps.stable_hom_dim(s2, reps.tau(s1))


# -- pd certificates ------------------------------------------------------------------


def test_pd_le1_projective(a22):
    assert reps.projective_dimension_le1(reps.projective(a22, r(0)))


def test_pd_s_r0_exceeds_one(a22):
    # oracle: the first syzygy of S(r0) is S(r1) + S(t1), and S(r1) is not
    # projective (P(r1) is two-dimensional), so pd > 1
    s_r0 = reps.simple(a22, r(0))
    _, cover, _, _ = reps.projective_cover(s_r0)
    syz, _ = reps.kernel(cover)
    assert {v.label: d for v, d in syz.dims.items() if d} == {"r1": 1, "t1": 1}
    assert reps.projective(a22, r(1)).total_dim == 2
    assert not reps.projective_dimension_le1(s_r0)


# -- submodule lattices ----------------------------------------------------------------


def test_simple_has_two_submodules(a22):
    assert reps.submodules_thin(reps.simple(a22, r(0))).count == 2


def test_submodules_guard(a22):
    fat, _ = reps.direct_sum([reps.simple(a22, r(0)), reps.simple(a22, r(0))])
    with pytest.raises(UnsupportedInput):
        reps.submodules_thin(fat)


def test_lattice_closure(a22):
    m = reps.thin_from_support(a22, [r(0), r(1), t(1)])
    lat = reps.submodules_thin(m)
    assert lat.is_lattice()
    assert frozenset() in lat.subsets and m.support() in lat.subsets


@pytest.mark.parametrize("a1,a2", [(2, 2), (2, 4), (3, 3), (3, 4), (4, 5)])
def test_submodules_match_reference(a1, a2):
    """Every M(x), every τM(x) and 40 random thin modules; the 2^|supp|
    reference runs only where |supp| <= 14."""
    inst = family_instance(a1, a2)
    summands = [inst.module_M(x) for x in inst.vertices]
    rng = random.Random(1000 * a1 + a2)
    randoms = [properties.random_thin_module(rng, inst) for _ in range(40)]
    for m in summands + [reps.tau(m) for m in summands] + randoms:
        if len(m.support()) <= 14:
            assert reps.submodules_thin(m).subsets == reference.submodules_thin(m).subsets


def test_submodule_counts_at_10_12():
    result = report.run_checks(10, 12, checks=["submodule-counts"])
    (check,) = result.checks
    assert check.passed
    assert all(entry["total"] == 121 for entry in check.witness["modules"].values())
    assert len(check.witness["modules"]) == 13


# -- thin_from_support -------------------------------------------------------------------


def test_full_support_violates_relations(a22):
    with pytest.raises(RelationViolation):
        reps.thin_from_support(a22, list(a22.quiver.vertices))


def test_singleton_support_is_simple(a22):
    m = reps.thin_from_support(a22, [s(1)])
    assert m == reps.simple(a22, s(1))


# -- isomorphism --------------------------------------------------------------------------


def test_simples_not_isomorphic(a22):
    assert not reps.is_isomorphic_reps(reps.simple(a22, r(0)), reps.simple(a22, r(1)))


def test_isomorphism_detects_gauge_change(a22):
    m = reps.thin_from_support(a22, [r(0), r(1)])
    maps = dict(m.maps)
    maps[(r(0), r(1))] = Matrix([[-7]])
    n = reps.Representation(a22, dict(m.dims), maps)
    assert reps.is_isomorphic_reps(m, n)


def test_identification_examples(a22):
    m_r1 = reps.thin_from_support(a22, [s(1), r(2), r(0), t(1)])  # M(r_{a2-1})
    assert reps.is_isomorphic_reps(m_r1, reps.projective(a22, s(1)))
    assert reps.is_isomorphic_reps(m_r1, reps.injective(a22, t(1)))


def test_isomorphism_needs_thin_modules(a22):
    fat, _ = reps.direct_sum([reps.simple(a22, r(0)), reps.simple(a22, r(0))])
    with pytest.raises(UnsupportedInput):
        reps.find_isomorphism_reps(fat, fat)


def gauge_rescaled(m, rng):
    """M with each arrow map multiplied by c_dst / c_src for random nonzero c_v."""
    c = {v: Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2, 7])) for v in m.dims}
    maps = {
        (a, b): Matrix([[c[b] / c[a] * x for x in row] for row in mat.rows], ncols=mat.ncols)
        for (a, b), mat in m.maps.items()
    }
    return reps.Representation(m.algebra, dict(m.dims), maps)


def one_arrow_zeroed(m, rng):
    """M with one of its nonzero arrow maps set to zero, or None if it has none."""
    live = sorted((a for a, mat in m.maps.items() if not mat.is_zero()), key=str)
    if not live:
        return None
    maps = dict(m.maps)
    maps[rng.choice(live)] = Matrix.zeros(1, 1)
    return reps.Representation(m.algebra, dict(m.dims), maps)


def family_pairs(inst):
    """The pairs the library compares: τM(x) against its closed form, the
    exact-sequence routes to M(s_i) and M(t_i), and the P/I identifications."""
    for x in inst.vertices:
        yield reps.tau(inst.module_M(x)), inst.expected_tau(x)
    for i in range(1, inst.a1):
        yield inst.module_M(branch_s(inst.a1, inst.a2, i)), inst._module_s_from_sequence(i)
        yield inst.module_M(branch_t(inst.a1, i)), inst._module_t_from_sequence(i)
    for (_, x, kind, y) in inst.identification_table():
        build = reps.projective if kind == "P" else reps.injective
        yield inst.module_M(x), build(inst.algebra, y)


def isomorphism_matches_reference(m, n):
    """The verdict of find_isomorphism_reps(m, n), checked against the
    reference search, with every witness checked to commute and be invertible.

    On a non-isomorphic pair of equal dimension vectors the reference walks
    (D + 1)^k grid points, D = dim M and k = dim Hom(M, N); past 5000 it is
    not run, and the verdict the caller expects decides alone."""
    found = reps.find_isomorphism_reps(m, n)
    witnesses = [found]
    if found is not None or (m.total_dim + 1) ** reps.hom_dim(m, n) <= 5000:
        witnesses.append(reference.find_isomorphism_reps(m, n))
        assert (found is None) == (witnesses[1] is None)
    for witness in witnesses:
        if witness is not None:
            witness.check_commutes()
            assert witness.is_isomorphism()
    return found is not None


@pytest.mark.parametrize("a1,a2", [(2, 2), (2, 4), (3, 3)])
def test_isomorphism_matches_reference(a1, a2):
    inst = family_instance(a1, a2)
    rng = random.Random(1000 * a1 + a2)
    for _ in range(40):
        m = properties.random_thin_module(rng, inst)
        assert isomorphism_matches_reference(m, gauge_rescaled(m, rng))
        zeroed = one_arrow_zeroed(m, rng)
        if zeroed is not None:
            assert not isomorphism_matches_reference(m, zeroed)
        isomorphism_matches_reference(m, properties.random_thin_module(rng, inst))
    for m, n in family_pairs(inst):
        assert isomorphism_matches_reference(m, n)


@pytest.mark.parametrize("a1,a2", [(2, 4), (3, 3)])
def test_pd_le1_matches_reference(a1, a2):
    inst = family_instance(a1, a2)
    summands = [inst.module_M(x) for x in inst.vertices]
    mixed, _ = reps.direct_sum(summands[:2])  # neither it nor its syzygy is thin
    for m in summands + [reps.tau(m) for m in summands] + [mixed]:
        pres = reps.minimal_projective_presentation(m)
        syzygy_projective = reference.find_isomorphism_reps(pres.syzygy, pres.p1) is not None
        assert reps.projective_dimension_le1(m) == syzygy_projective


# -- thin fast paths against the dense oracles --------------------------------------------

THIN_FAMILY = [(2, 2), (3, 3), (3, 4), (4, 5)]


@pytest.fixture(scope="module")
def thin_family():
    return {params: family_instance(*params) for params in THIN_FAMILY}


def random_scalar(rng):
    return Fraction(rng.choice([-3, -1, 2, 5]), rng.choice([1, 2, 7]))


def rescaled_arrows(m, rng):
    """M with every nonzero arrow scalar multiplied by a random nonzero Fraction."""
    maps = {
        a: mat if mat.is_zero() else Matrix([[mat.rows[0][0] * random_scalar(rng)]])
        for a, mat in m.maps.items()
    }
    return reps.Representation(m.algebra, dict(m.dims), maps)


def assert_hom_matches_reference(m, n):
    """The thin Hom basis against the elimination oracle: same dimension, same
    span, and every thin morphism commutes."""
    fast = thin_hom_basis(m, n)
    dense = reference.hom_basis(m, n)
    assert len(fast) == len(dense)
    for f in fast:
        f.check_commutes()
    if fast:
        assert Matrix([reference.flatten(f) for f in fast]).rank() == len(fast)
        assert Matrix([reference.flatten(f) for f in fast + dense]).rank() == len(fast)
    return fast


def assert_then_matches_reference(fs, gs):
    for f in fs:
        for g in gs:
            assert f.then(g).blocks == reference.then(f, g).blocks


@pytest.mark.parametrize("a1,a2", THIN_FAMILY)
def test_thin_hom_and_composition_match_reference(thin_family, a1, a2):
    """40 triples of random thin modules with rescaled arrows."""
    inst = thin_family[(a1, a2)]
    rng = random.Random(1000 * a1 + a2)
    for _ in range(40):
        m, n, p = (rescaled_arrows(properties.random_thin_module(rng, inst), rng) for _ in range(3))
        hom_mn = assert_hom_matches_reference(m, n)
        hom_np = assert_hom_matches_reference(n, p)
        assert_hom_matches_reference(m, m)
        assert_then_matches_reference(hom_mn, hom_np)
        assert_then_matches_reference(hom_mn, thin_hom_basis(n, n))


@pytest.mark.parametrize("a1,a2", THIN_FAMILY)
def test_thin_hom_matches_reference_on_family_modules(thin_family, a1, a2):
    inst = thin_family[(a1, a2)]
    summands = [inst.module_M(x) for x in inst.vertices]
    syzygies = [reps.minimal_projective_presentation(m).syzygy for m in summands]
    modules = summands + [reps.tau(m) for m in summands] + syzygies
    assert all(m.is_thin() for m in modules)
    for m in modules:
        for n in modules:
            assert_hom_matches_reference(m, n)
    verts = inst.vertices
    homs = {
        (x, y): thin_hom_basis(inst.module_M(x), inst.module_M(y)) for x in verts for y in verts
    }
    for x in verts:
        for y in verts:
            for z in verts:
                assert_then_matches_reference(homs[(x, y)], homs[(y, z)])


def test_thin_hom_drops_a_component_with_inconsistent_cycle():
    """On the square 1 -> 2 -> 4, 1 -> 3 -> 4 without relations, N differs from
    M by the scalar 2 on 3 -> 4: the ratios around the square disagree."""
    square = BoundAlgebra(
        Quiver((r(1), r(2), r(3), r(4)), ((r(1), r(2)), (r(2), r(4)), (r(1), r(3)), (r(3), r(4)))),
        [],
        name="square",
    )
    m = reps.thin_from_support(square, [r(1), r(2), r(3), r(4)])
    maps = dict(m.maps)
    maps[(r(3), r(4))] = Matrix([[2]])
    n = reps.Representation(square, dict(m.dims), maps)
    assert thin_hom_basis(m, n) == [] == reference.hom_basis(m, n)
    maps[(r(1), r(3))] = Matrix([[Fraction(1, 2)]])  # the square commutes again
    gauged = reps.Representation(square, dict(m.dims), maps)
    (f,) = assert_hom_matches_reference(m, gauged)
    assert f.blocks[r(3)] == Matrix([[Fraction(1, 2)]]) and f.blocks[r(4)] == Matrix([[1]])


@pytest.mark.parametrize("a1,a2", [*properties._INSTANCE_PARAMS, (3, 3), (2, 4)])
def test_hom_dim_matches_reference(a1, a2):
    """hom_dim counts without a basis; the dense elimination oracle builds one.
    Random thin pairs, their direct sum in either argument, the syzygy and τ
    of M (often not thin, so the rank count runs) and the zero module."""
    inst = family_instance(a1, a2)
    rng = random.Random(1000 * a1 + a2)
    zero = reps.zero_rep(inst.algebra)
    counted_by_rank = 0
    for _ in range(20):
        m = properties.random_thin_module(rng, inst)
        n = properties.random_thin_module(rng, inst)
        mn, _ = reps.direct_sum([m, n])
        syzygy = reps.minimal_projective_presentation(m).syzygy
        pairs = [(m, n), (n, m), (mn, n), (m, mn), (mn, mn), (syzygy, n), (n, syzygy)]
        pairs += [(reps.tau(m), n), (n, reps.tau(m)), (zero, m), (m, zero), (zero, zero)]
        for x, y in pairs:
            assert reps.hom_dim(x, y) == len(reference.hom_basis(x, y)), (x, y)
            counted_by_rank += not (x.is_thin() and y.is_thin())
    assert counted_by_rank


@pytest.mark.parametrize("a1,a2", [*properties._INSTANCE_PARAMS, (3, 3), (2, 4)])
def test_stable_hom_dim_matches_reference(a1, a2):
    """stable_hom_dim counts from the injective copresentation; the oracle
    takes the rank of the composites through the injective envelope.  The
    pairs of the AR formula and of Hom additivity, syzygies and the zero
    module; a direct sum or a syzygy is often not thin."""
    inst = family_instance(a1, a2)
    rng = random.Random(1000 * a1 + a2)
    zero = reps.zero_rep(inst.algebra)
    not_thin = 0
    for _ in range(20):
        m = properties.random_thin_module(rng, inst)
        n = properties.random_thin_module(rng, inst)
        mn, _ = reps.direct_sum([m, n])
        tau_m = reps.tau(m)
        syzygy = reps.minimal_projective_presentation(m).syzygy
        pairs = [(n, tau_m), (m, n), (tau_m, n), (m, mn), (mn, n)]
        pairs += [(syzygy, n), (n, syzygy), (zero, m), (m, zero)]
        for x, y in pairs:
            assert reps.stable_hom_dim(x, y) == reference.stable_hom_dim(x, y), (x, y)
            not_thin += not (x.is_thin() and y.is_thin())
    assert not_thin


# -- τ through ν(d) on the kept injectives, and integer Hom counts --------------------------

DEFAULT_GRID = [(a1, a2) for a1 in range(1, 5) for a2 in range(2, 6)]
RANDOM_INSTANCES = [*properties._INSTANCE_PARAMS, (3, 3), (3, 4)]


def rescaled_by(m, rng, scalars=(1, Fraction(2, 3), Fraction(-1, 2))):
    """M with every nonzero arrow scalar multiplied by one of `scalars`."""
    maps = {
        a: mat if mat.is_zero() else Matrix([[mat.rows[0][0] * rng.choice(scalars)]])
        for a, mat in m.maps.items()
    }
    return reps.Representation(m.algebra, dict(m.dims), maps)


@pytest.mark.parametrize("a1,a2", [*DEFAULT_GRID, (6, 8), (10, 12)])
def test_tau_matches_round_trip_through_opposite_on_family(a1, a2):
    """Bit for bit: every M(x) and D M(x), so both A and A^op."""
    inst = family_instance(a1, a2)
    for x in inst.vertices:
        m = inst.module_M(x)
        for module in (m, reps.dual(m)):
            assert reps.tau(module) == reference.tau_through_opposite(module), (x, module)


@pytest.mark.parametrize("a1,a2", RANDOM_INSTANCES)
def test_tau_matches_round_trip_through_opposite_on_random_modules(a1, a2):
    """Seeded random thin modules, some with arrow scalars 2/3 and -1/2, their
    duals and two-summand sums."""
    inst = family_instance(a1, a2)
    rng = random.Random(27 * a1 + a2)
    for _ in range(15):
        m = properties.random_thin_module(rng, inst)
        n = rescaled_by(properties.random_thin_module(rng, inst), rng)
        mn, _ = reps.direct_sum([m, n])
        for module in (m, n, reps.dual(m), reps.dual(n), mn, reps.dual(mn)):
            assert reps.tau(module) == reference.tau_through_opposite(module), module


@pytest.mark.parametrize("a1,a2", RANDOM_INSTANCES)
def test_hom_dim_integer_rank_matches_fraction_rank(a1, a2):
    """Pairs that are not thin, with arrow scalars 2/3 and -1/2, so the
    equation rows have denominators to clear."""
    inst = family_instance(a1, a2)
    rng = random.Random(31 * a1 + a2)
    with_denominators = 0
    for _ in range(20):
        m, n = (rescaled_by(properties.random_thin_module(rng, inst), rng) for _ in range(2))
        mn, _ = reps.direct_sum([m, n])
        nn, _ = reps.direct_sum([n, rescaled_by(n, rng)])
        syzygy = reps.minimal_projective_presentation(mn).syzygy
        pairs = [(mn, n), (n, mn), (mn, mn), (mn, nn), (nn, m), (syzygy, mn), (reps.tau(mn), nn)]
        for x, y in pairs:
            if x.is_thin() and y.is_thin():
                continue
            assert reps.hom_dim(x, y) == reference.hom_dim_fractions(x, y), (x, y)
            maps = [*x.maps.values(), *y.maps.values()]
            with_denominators += any(e.denominator != 1 for f in maps for row in f.rows for e in row)
    assert with_denominators


def test_stable_hom_builds_the_injective_envelope_once(monkeypatch):
    inst = family_instance(3, 3)
    m = inst.module_M(r(1))
    targets = [inst.module_M(x) for x in inst.vertices] + [reps.tau(m)]
    assert sum(reps.hom_dim(m, n) > 0 for n in targets) > 1
    covered = []
    cover = reps.projective_cover
    monkeypatch.setattr(reps, "projective_cover", lambda mod: covered.append(mod) or cover(mod))
    got = [reps.stable_hom_dim(m, n) for n in targets]
    assert len(covered) == 1 and covered[0].algebra is inst.algebra.opposite_algebra()
    monkeypatch.undo()
    assert got == [reference.stable_hom_dim(m, n) for n in targets]


# -- dump ----------------------------------------------------------------------------------


def test_representation_json(a22):
    m = reps.thin_from_support(a22, [r(0), r(1)])
    data = m.to_json()
    assert data["dims"] == {"r0": 1, "r1": 1}
    assert data["support"] == ["r0", "r1"]
    assert data["maps"]["r0->r1"] == [["1"]]


def test_stable_hom_of_tau_vanishes_for_family(a22):
    m_r0 = reps.thin_from_support(a22, [r(1), r(2), s(1)])
    assert reps.stable_hom_dim(m_r0, reps.tau(m_r0)) == 0


def test_projective_t_branch_column():
    a = build_algebra(3, 2)
    assert supp_labels(reps.projective(a, t(1))) == ["t1", "t2"]
    assert supp_labels(reps.projective(a, t(2))) == ["t2"]
