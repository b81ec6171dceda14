import pytest

from quivertilt.errors import UnsupportedInput
from quivertilt.family import FamilyInstance, family_instance
from quivertilt.quiver import opposite, r
from quivertilt.report import run_checks
from quivertilt.tilting import _zero_path_property, end_quiver, verify_tilting
from quivertilt import reps

import reference
from reference import find_isomorphism

SWEEP = [(1, 2), (2, 2), (1, 4), (2, 3), (3, 2), (3, 3)]
DEFAULT_GRID = [(a1, a2) for a1 in range(1, 5) for a2 in range(2, 6)]


def hom_supports(inst):
    """The supports of the thin Hom bases between summands, keyed (x, y)."""
    return {
        (x, y): [
            frozenset(c) for c in reps.thin_hom_components(inst.module_M(x), inst.module_M(y))
        ]
        for x in inst.vertices
        for y in inst.vertices
    }


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
    endq, relations_ok = end_quiver(inst, hom_supports(inst))
    assert relations_ok
    assert sorted(endq.arrows) == sorted(opposite(inst.quiver).arrows)


@pytest.mark.parametrize("a1,a2", DEFAULT_GRID + [(6, 8)])
def test_end_quiver_matches_products_and_rank(a1, a2):
    """Supports against the products-and-rank oracle over dense Hom bases:
    the same arrow multiset, relations verdict and zero-path verdict."""
    inst = family_instance(a1, a2)
    supports = hom_supports(inst)
    bases = {
        (x, y): reference.hom_basis(inst.module_M(x), inst.module_M(y))
        for x in inst.vertices
        for y in inst.vertices
    }
    endq, relations_ok = end_quiver(inst, supports)
    ref_q, ref_relations_ok = reference.end_quiver(inst, bases)
    assert sorted(endq.arrows) == sorted(ref_q.arrows)
    assert relations_ok == ref_relations_ok
    assert _zero_path_property(inst, supports) == reference.zero_path_property(inst, bases)


def test_end_quiver_rejects_a_two_dimensional_hom():
    inst = family_instance(2, 3)
    supports = hom_supports(inst)
    x, y = inst.quiver.arrows[0]
    supports[(y, x)] = [frozenset({x}), frozenset({y})]
    with pytest.raises(AssertionError, match="dimension 2"):
        end_quiver(inst, supports)


def test_end_quiver_rejects_a_zero_endomorphism_space():
    inst = family_instance(2, 3)
    supports = hom_supports(inst)
    supports[(r(0), r(0))] = []
    with pytest.raises(AssertionError, match="dimension 0"):
        end_quiver(inst, supports)


def test_end_quiver_relations_fail_without_a_cycle_arrow():
    inst = family_instance(2, 2)
    supports = hom_supports(inst)
    supports[(r(1), r(0))] = []
    assert not end_quiver(inst, supports)[1]


def thick_summands(monkeypatch):
    """Make every M(x) the module M(x_0) + M(x_1), which is not thin."""
    real = FamilyInstance.module_M

    def thick(self, x):
        x0, x1 = self.vertices[:2]
        return reps.direct_sum([real(self, x0), real(self, x1)])[0]

    monkeypatch.setattr(FamilyInstance, "module_M", thick)


def test_verify_tilting_rejects_a_summand_that_is_not_thin(monkeypatch):
    inst = family_instance(2, 2)
    thick_summands(monkeypatch)
    assert not inst.module_M(r(0)).is_thin()
    with pytest.raises(UnsupportedInput, match="not thin"):
        verify_tilting(inst)


def test_a_summand_that_is_not_thin_fails_the_tilting_checks_alone(monkeypatch):
    thick_summands(monkeypatch)
    readers = ["tilting", "hom-table", "end-iso"]
    res = run_checks(2, 2, checks=readers + ["acyclic-type"])
    verdicts = {c.check_id: c for c in res.checks}
    for check_id in readers:
        assert not verdicts[check_id].passed
        assert verdicts[check_id].witness["error"].startswith("UnsupportedInput: ")
    assert verdicts["acyclic-type"].passed


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
    real = reps.thin_hom_components

    def recording(m, n):
        if id(m) in summands and id(n) in summands:
            solved.append((id(m), id(n)))
        return real(m, n)

    monkeypatch.setattr(reps, "thin_hom_components", recording)
    assert verify_tilting(inst).overall
    assert len(solved) == len(set(solved)) == len(summands) ** 2
