import pytest

from quivertilt.family import family_instance
from quivertilt.quiver import opposite, r
from quivertilt.tilting import end_quiver, verify_tilting
from quivertilt import reps

from reference import find_isomorphism

SWEEP = [(1, 2), (2, 2), (1, 4), (2, 3), (3, 2), (3, 3)]


@pytest.fixture(scope="module", params=SWEEP, ids=[f"{a}-{b}" for a, b in SWEEP])
def report(request):
    a1, a2 = request.param
    return verify_tilting(family_instance(a1, a2))


def test_all_verdicts(report):
    assert report.overall, report.all_verdicts


def test_tables_are_zero(report):
    assert all(x == 0 for row in report.ext_table for x in row)
    assert all(x == 0 for row in report.hom_tau_table for x in row)


def test_summand_count(report):
    assert report.summand_count == report.vertex_count == report.a2 + 2 * report.a1 - 1


def test_end_quiver_is_exactly_q_op(report):
    inst = family_instance(report.a1, report.a2)
    assert sorted(report.end_quiver.arrows) == sorted(opposite(inst.quiver).arrows)


def test_end_quiver_no_loops(report):
    assert all(a != b for (a, b) in report.end_quiver.arrows)


def test_no_arrow_along_cycle_direction(report):
    # Hom(M(r_i), M(r_{i+1})) = 0, so no End arrow in the cycle direction
    a2 = report.a2
    arrows = set(report.end_quiver.arrows)
    for i in range(a2 + 1):
        assert (r(i), r((i + 1) % (a2 + 1))) not in arrows


def test_ext_equals_stable_hom_of_tau():
    inst = family_instance(2, 2)
    taus = {x: reps.tau(inst.module_M(x)) for x in inst.vertices}
    for x in inst.vertices:
        for y in inst.vertices:
            m, n = inst.module_M(x), inst.module_M(y)
            ext = reps.ext1_dim(m, n, reps.hom_dim(m, n))
            stable = reps.stable_hom_dim(n, taus[x])
            assert ext == stable == 0


def test_end_quiver_standalone():
    inst = family_instance(2, 3)
    basis_cache = {
        (x, y): reps.hom_basis(inst.module_M(x), inst.module_M(y))
        for x in inst.vertices
        for y in inst.vertices
    }
    endq, relations_ok = end_quiver(inst, basis_cache)
    assert relations_ok
    assert sorted(endq.arrows) == sorted(opposite(inst.quiver).arrows)


def test_end_iso_to_qop_is_bijection():
    for (a1, a2) in [(1, 3), (2, 2), (3, 2)]:
        iso = verify_tilting(family_instance(a1, a2)).end_iso_to_Qop
        assert iso is not None
        assert sorted(iso) == sorted(iso.values())


@pytest.mark.parametrize("a1,a2", [(a1, a2) for a1 in range(1, 5) for a2 in range(2, 6)])
def test_opposite_isomorphism_is_a_quiver_isomorphism(a1, a2):
    inst = family_instance(a1, a2)
    q = inst.quiver
    phi = inst.opposite_isomorphism()
    assert sorted(phi) == sorted(q.vertices) == sorted(phi.values())
    assert sorted((phi[a], phi[b]) for a, b in opposite(q).arrows) == sorted(q.arrows)
    assert find_isomorphism(opposite(q), q) is not None


def test_end_iso_to_q_is_the_closed_form_map(report):
    assert report.end_iso_to_Q == family_instance(report.a1, report.a2).opposite_isomorphism()


def test_verify_tilting_solves_each_summand_pair_once(monkeypatch):
    inst = family_instance(3, 3)
    summands = {id(inst.module_M(x)) for x in inst.vertices}
    solved = []
    real = reps.hom_basis

    def recording(m, n):
        if id(m) in summands and id(n) in summands:
            solved.append((id(m), id(n)))
        return real(m, n)

    monkeypatch.setattr(reps, "hom_basis", recording)
    assert verify_tilting(inst).overall
    assert len(solved) == len(set(solved)) == len(summands) ** 2
