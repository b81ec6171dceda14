import pytest

from quivertilt.algebra import BoundAlgebra, build_quiver
from quivertilt.errors import SelfDualityViolation, UnsupportedInput, UnsupportedParameters
from quivertilt.family import family_instance
from quivertilt.fpoly import LaurentPoly
from quivertilt.linalg import Matrix
from quivertilt.quiver import Quiver, TypeLabel, r, s, t, to_exchange_matrix
from quivertilt import cluster, quiver, reps
from quivertilt.report import ALL_CHECKS, run_checks

import reference
from reference import det, find_isomorphism, mutate_c_g, mutate_f

SWEEP = [(1, 2), (2, 2), (1, 3), (2, 3), (3, 2), (3, 3), (2, 4), (1, 5)]
DEFAULT_GRID = [(a1, a2) for a1 in range(1, 5) for a2 in range(2, 6)]


def rows(columns):
    """A seed's C or G matrix, held by columns, by rows as the reference
    recurrences in tests/reference.py read and return it."""
    return tuple(zip(*columns))


@pytest.fixture(scope="module")
def a2_hereditary():
    return BoundAlgebra(Quiver((r(1), r(2)), ((r(1), r(2)),)), [], name="A2")


# -- mutation words ---------------------------------------------------------------


def test_mu_word_22():
    word = cluster.build_mu(2, 2)
    assert [v.label for v in word.mu] == ["r1", "s1", "r2", "s1", "t1", "r0", "t1", "r1"]


def test_mu_word_13():
    word = cluster.build_mu(1, 3)
    assert [v.label for v in word.mu_r] == ["r1", "r2"]
    assert [v.label for v in word.mu_s] == ["r3"]
    assert [v.label for v in word.mu_t] == ["r0"]


def test_mu_word_length_formula():
    for (a1, a2) in SWEEP:
        word = cluster.build_mu(a1, a2)
        assert len(word) == 2 * (a2 - 1) + a1 * (a1 + 1)


def test_mu_word_33_blocks():
    word = cluster.build_mu(3, 3)
    assert [v.label for v in word.mu_s] == ["s1", "s2", "s1", "r3", "s2", "s1"]
    assert [v.label for v in word.mu_t] == ["t2", "t1", "t2", "r0", "t1", "t2"]


def test_mu_word_guard():
    with pytest.raises(UnsupportedParameters):
        cluster.build_mu(1, 1)


# -- seed mechanics ----------------------------------------------------------------


def test_initial_seed_fields():
    q = build_quiver(2, 2)
    seed = cluster.initial_seed(q)
    assert seed.b == to_exchange_matrix(q)
    assert seed.c == seed.g == tuple(
        tuple(1 if i == j else 0 for j in range(5)) for i in range(5)
    )
    assert all(p.is_one() for p in seed.f)
    assert seed.history == ()


def test_seed_mutation_involution():
    q = build_quiver(2, 3)
    seed = cluster.initial_seed(q)
    for v in q.vertices:
        assert cluster.mutate_seed(cluster.mutate_seed(seed, v), v).same_data(seed)


def test_seed_b_sign_is_frozen():
    assert cluster.SEED_B_SIGN == -1


def test_a2_first_mutation_variable(a2_hereditary):
    # the calibrated convention produces (x2*y1 + 1)/x1 at the first mutation
    q = a2_hereditary.quiver
    seed = cluster.mutate_seed(cluster.initial_seed(q), r(1))
    assert seed.g[0] == (-1, 0)
    assert seed.f[0].terms == {(0, 0): 1, (1, 0): 1}
    var = cluster.seed_variable(seed, 0, cluster.pattern_matrix(q))
    assert var == LaurentPoly(4, {(-1, 0, 0, 0): 1, (-1, 1, 1, 0): 1})


def test_a2_cc_matches_mutation(a2_hereditary):
    q = a2_hereditary.quiver
    seed = cluster.mutate_seed(cluster.initial_seed(q), r(1))
    s1 = reps.simple(a2_hereditary, r(1))
    assert reference.cc_character(s1, q) == cluster.seed_variable(
        seed, 0, cluster.pattern_matrix(q)
    )
    seed2 = cluster.mutate_seed(seed, r(2))
    p1 = reps.thin_from_support(a2_hereditary, [r(1), r(2)])
    assert reference.cc_character(p1, q) == cluster.seed_variable(
        seed2, 1, cluster.pattern_matrix(q)
    )


def test_g_matrix_determinant_is_unimodular():
    q = build_quiver(2, 3)
    seed = cluster.initial_seed(q, track_f=False)
    word = cluster.build_mu(2, 3).mu
    for k in word:
        seed = cluster.mutate_seed(seed, k)
        assert abs(det(Matrix(seed.g))) == 1
        assert abs(det(Matrix(seed.c))) == 1


def test_integer_only_tracking():
    q = build_quiver(2, 2)
    seed = cluster.apply_word(cluster.initial_seed(q, track_f=False), cluster.build_mu(2, 2).mu)
    assert seed.f is None
    with pytest.raises(UnsupportedInput):
        cluster.seed_variable(seed, 0, cluster.pattern_matrix(q))


# -- module characters ---------------------------------------------------------------


def test_g_vector_of_projectives():
    inst = family_instance(2, 2)
    order = list(inst.vertices)
    for x in inst.vertices:
        g = cluster.g_vector(reps.projective(inst.algebra, x))
        assert g == tuple(1 if v == x else 0 for v in order)


def test_g_vector_of_M_s1():
    inst = family_instance(2, 2)
    g = cluster.g_vector(inst.module_M(s(1)))
    order = list(inst.vertices)
    expected = [0] * len(order)
    expected[order.index(r(0))] = 1
    expected[order.index(t(1))] = -1
    assert g == tuple(expected)


def test_f_polynomial_counts():
    for (a1, a2) in [(1, 2), (2, 2), (2, 3), (3, 2)]:
        inst = family_instance(a1, a2)
        for i in range(a2 + 1):
            fp = cluster.f_polynomial(inst.module_M(r(i)))
            assert sum(fp.terms.values()) == a1 * a2 + 1
            assert fp.terms.get((0,) * fp.nvars) == 1


def test_f_polynomial_guard():
    inst = family_instance(2, 2)
    fat, _ = reps.direct_sum([reps.simple(inst.algebra, r(0))] * 2)
    with pytest.raises(UnsupportedInput):
        cluster.f_polynomial(fat)


def test_cc_character_of_zero_module_is_one():
    inst = family_instance(2, 2)
    cc = reference.cc_character(reps.zero_rep(inst.algebra), inst.quiver)
    assert cc == LaurentPoly(10, {(0,) * 10: 1})


def test_cc_character_subtraction_free_at_y_one():
    inst = family_instance(2, 2)
    for x in inst.vertices:
        cc = reference.cc_character(inst.module_M(x), inst.quiver)
        assert all(c > 0 for c in cc.terms.values())


@pytest.mark.parametrize("a1,a2", DEFAULT_GRID + [(6, 8), (10, 12)])
def test_injective_exponents_match_the_dual_presentation(a1, a2):
    """The sigma route equals -g(D M(x)) presented over A^op."""
    inst = family_instance(a1, a2)
    assert cluster.injective_exponents(inst) == {
        x: reference.cc_exponent(inst.module_M(x)) for x in inst.vertices
    }


def test_sigma_certificate_names_the_failed_step(monkeypatch):
    inst = family_instance(2, 3)
    real = inst.opposite_isomorphism
    monkeypatch.setattr(inst, "opposite_isomorphism", lambda: {**real(), r(0): r(1)})
    with pytest.raises(SelfDualityViolation, match="A\\^op: sigma is not a bijection"):
        cluster.injective_exponents(inst)
    monkeypatch.setattr(inst, "opposite_isomorphism", real)
    # the opposite algebra keeps every relation that A now drops
    inst.algebra.opposite_algebra()
    monkeypatch.setattr(inst.algebra, "forbidden", inst.algebra.forbidden[1:])
    with pytest.raises(SelfDualityViolation, match="forbidden words of A\\^op are not carried"):
        cluster.injective_exponents(inst)


def count_presentations(monkeypatch, **kwargs):
    calls = []
    real = reps.Presentation

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(reps, "Presentation", counting)
    assert run_checks(6, 8, **kwargs).overall
    return len(calls)


def test_shift_reads_the_presentations_tau_built(monkeypatch):
    """One presentation per summand at (6,8), n = 19: the shift reads the
    ones tau keeps on M(sigma x) and builds none over A^op."""
    checks = [c for c in ALL_CHECKS if c != "properties"]
    assert count_presentations(monkeypatch, checks=checks) == 19


def test_shift_without_tau_builds_one_presentation_per_summand(monkeypatch):
    checks = ["palindrome", "order-two", "t-to-shift"]
    assert count_presentations(monkeypatch, checks=checks, laurent_cap=19) == 19


# -- the calibration guard -------------------------------------------------------------


def test_seed_sign_calibration():
    """Exactly the frozen convention reproduces the documented slot pairing
    of the (2,2) fixture; flipping the seed sign breaks it."""
    inst = family_instance(2, 2)
    res = cluster.verify_T_maps_to_shift(inst, cluster.replay_mu(2, 2))
    assert res.holds
    assert res.pairing == {s(1): t(1), r(2): r(0), r(0): r(2), t(1): s(1), r(1): r(1)}

    original = cluster.SEED_B_SIGN
    try:
        cluster.SEED_B_SIGN = -original
        flipped = cluster.verify_T_maps_to_shift(inst, cluster.replay_mu(2, 2))
        assert flipped.pairing is None
    finally:
        cluster.SEED_B_SIGN = original


# -- section-7 verifications ------------------------------------------------------------


def test_source_sink_discipline():
    for (a1, a2) in SWEEP:
        assert cluster.replay_mu(a1, a2, track_f=False).discipline_holds, (a1, a2)


def test_acyclic_type_table():
    cases = {
        (2, 3): TypeLabel("E", (6,)),
        (3, 3): TypeLabel("AffineE", (7,)),
        (2, 4): TypeLabel("AffineE", (6,)),
        (4, 4): TypeLabel("TreeWild", (3, 5, 5)),
        (1, 4): TypeLabel("D", (5,)),
        (3, 2): TypeLabel("A", (7,)),
        (1, 2): TypeLabel("A", (3,)),
    }
    for (a1, a2), expected in cases.items():
        tc = cluster.verify_acyclic_type(cluster.replay_mu(a1, a2, track_f=False))
        assert tc.mu_r_acyclic, (a1, a2)
        assert tc.label == expected, (a1, a2, str(tc.label))
        assert tc.ok, (a1, a2)


def test_branch_data_after_mu_t_mu_r():
    for (a1, a2) in SWEEP:
        tc = cluster.verify_acyclic_type(cluster.replay_mu(a1, a2, track_f=False))
        if a2 == 2:
            assert tc.branch_data is None  # degenerate arm: a path
        else:
            assert tc.branch_data == tuple(sorted((a1 + 1, a1 + 1, a2 - 1)))


def test_palindrome_lemma():
    for (a1, a2) in SWEEP:
        assert cluster.verify_palindrome_lemma(cluster.replay_mu(a1, a2)), (a1, a2)


def test_order_two():
    for (a1, a2) in SWEEP:
        res = cluster.verify_order_two(cluster.replay_mu(a1, a2))
        assert res.holds, (a1, a2)
        assert res.permutation == {v: v for v in build_quiver(a1, a2).vertices}


def test_order_two_integer_only():
    res = cluster.verify_order_two(cluster.replay_mu(4, 5, track_f=False))
    assert res.holds


def test_shift_pairing_exists_on_sweep():
    for (a1, a2) in SWEEP:
        inst = family_instance(a1, a2)
        res = cluster.verify_T_maps_to_shift(inst, cluster.replay_mu(a1, a2))
        assert res.g_multiset_ok, (a1, a2)
        assert res.pairing is not None, (a1, a2)
        assert sorted(v.label for v in res.pairing) == sorted(
            v.label for v in inst.vertices
        )


def test_shift_respects_laurent_cap():
    inst = family_instance(2, 3)
    res = cluster.verify_T_maps_to_shift(inst, cluster.replay_mu(2, 3, track_f=False))
    assert not res.laurent_checked
    assert res.pairing is None
    assert res.g_multiset_ok


def test_run_checks_replays_mu_once(monkeypatch):
    calls = []
    original = cluster.mutate_seed

    def counting(seed, k):
        calls.append(k)
        return original(seed, k)

    monkeypatch.setattr(cluster, "mutate_seed", counting)
    report = run_checks(2, 3, checks=["palindrome", "order-two", "t-to-shift"])
    assert report.overall
    word = cluster.build_mu(2, 3)
    assert len(calls) == 2 * len(word.mu) + len(word.mu_s) + 2 * len(word.mu_t)


def test_section_7_checks_walk_mu_once(monkeypatch):
    """All five section-7 checks read one replay: mu twice, plus the reversed
    mu_S, mu_T mu_R Q and the reversed mu_T of the palindrome lemma."""
    calls = []
    original = quiver.mutate_matrix

    def counting(b, k):
        calls.append(k)
        return original(b, k)

    monkeypatch.setattr(quiver, "mutate_matrix", counting)
    monkeypatch.setattr(cluster, "mutate_matrix", counting)
    checks = ["acyclic-type", "source-sink-discipline", "palindrome", "order-two", "t-to-shift"]
    report = run_checks(6, 8, checks=checks, laurent_cap=0)
    assert report.overall
    word = cluster.build_mu(6, 8)
    assert len(calls) == 2 * len(word.mu) + len(word.mu_s) + 2 * len(word.mu_t) == 175


@pytest.mark.parametrize("a1,a2", [(2, 2), (3, 4)])
def test_replay_mu_matches_fresh_word_application(a1, a2):
    replay = cluster.replay_mu(a1, a2)
    word = cluster.build_mu(a1, a2)
    once = cluster.apply_word(cluster.initial_seed(build_quiver(a1, a2)), word.mu)
    assert replay.mu.same_data(once)
    assert replay.mu2.same_data(cluster.apply_word(once, word.mu))


@pytest.mark.parametrize("a1,a2", [(2, 2), (3, 4), (6, 8)])
def test_c_g_column_operations_match_dense_products(a1, a2):
    """Every mutation of the mu replay updates C and G as the reference
    dense products C J_C and G J_G do."""
    seed = cluster.initial_seed(build_quiver(a1, a2), track_f=False)
    word = cluster.build_mu(a1, a2).mu
    for k in word + word:
        kk = seed.index(k)
        bs = [[cluster.SEED_B_SIGN * x for x in row] for row in seed.b.entries]
        eps = 1 if any(x > 0 for x in seed.c[kk]) else -1
        nxt = cluster.mutate_seed(seed, k)
        assert (rows(nxt.c), rows(nxt.g)) == mutate_c_g(rows(seed.c), rows(seed.g), bs, kk, eps)
        seed = nxt


@pytest.mark.parametrize("a1,a2", [(2, 2), (3, 4), (4, 5)])
def test_f_update_matches_reference(a1, a2):
    """Every mutation of mu twice and of the palindrome words updates the
    F-polynomials as the factor-by-factor reference recurrence does."""
    word = cluster.build_mu(a1, a2)
    start = cluster.initial_seed(build_quiver(a1, a2))
    base = cluster.apply_word(start, word.mu_r)
    runs = [(start, word.mu + word.mu)]
    runs += [(base, w) for w in (tuple(reversed(word.mu_s)), word.mu_t, tuple(reversed(word.mu_t)))]
    for seed, w in runs:
        for k in w:
            kk = seed.index(k)
            bs = [[cluster.SEED_B_SIGN * x for x in row] for row in seed.b.entries]
            nxt = cluster.mutate_seed(seed, k)
            assert nxt.f == mutate_f(seed.f, rows(seed.c), bs, kk)
            seed = nxt


def test_mu_quiver_isomorphic_to_q():
    for (a1, a2) in [(2, 2), (2, 3), (3, 2)]:
        q = build_quiver(a1, a2)
        seed = cluster.apply_word(cluster.initial_seed(q, track_f=False), cluster.build_mu(a1, a2).mu)
        assert find_isomorphism(seed.b.to_quiver(), q) is not None


def test_beyond_default_sweep_integer_level():
    # n = 15 exceeds the default Laurent cap; the integer-level machinery
    # (and even forced Laurent tracking) stays exact and fast here
    replay = cluster.replay_mu(5, 6, track_f=False)
    assert replay.discipline_holds
    tc = cluster.verify_acyclic_type(replay)
    assert tc.ok and tc.label == TypeLabel("TreeWild", (5, 6, 6))
    assert cluster.verify_order_two(replay).holds
    assert cluster.verify_palindrome_lemma(replay)
