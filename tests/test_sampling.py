"""Tests for cell edges, orderings, the analytic pair PMF, and both samplers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carms.copula import (
    DIRICHLET,
    GAUSSIAN,
    CopulaKind,
    _sample_dirichlet_copula_batch,
    sample_copula_batch,
)
from carms.sampling import (
    GUMBEL_BLOCK,
    GUMBEL_NODES,
    Ordering,
    RatioMatrix,
    _categorize_batch,
    _cell_edges,
    _gumbel_categories_batch,
    _gumbel_pair_pmf,
    _inverse_cdf_categories_batch,
    all_orderings,
    as_probs,
    bivariate_pmf_averaged,
    bivariate_pmf_entries,
    bivariate_pmf_matrix,
    bivariate_pmf_one_ordering,
    gumbel_pair_pmf,
    make_ordering,
    sample_antithetic_gumbel,
    sample_antithetic_inverse_cdf,
)


def _simplex(rng, c, alpha=1.0, floor=0.0):
    p = rng.dirichlet(np.full(c, alpha))
    if floor:
        p = np.maximum(p, floor)
        p = p / p.sum()
    return p


# ---------------------------------------------------------------------------
# probability vectors, boundaries, categorization


def test_as_probs_validation():
    with pytest.raises(ValueError):
        as_probs([1.0])  # C >= 2
    with pytest.raises(ValueError):
        as_probs([0.5, 0.6])  # sum != 1
    with pytest.raises(ValueError):
        as_probs([-0.1, 1.1])  # negative entry
    with pytest.raises(ValueError):
        as_probs([np.nan, 1.0])
    out = as_probs([0.25, 0.75])
    assert out.dtype == float and out.shape == (2,)


def test_boundaries_frozen_examples():
    left, right = _cell_edges(as_probs([0.1, 0.2, 0.7]))
    assert np.allclose(left, [0.0, 0.1, 0.3], atol=1e-15)
    assert np.allclose(right, [0.1, 0.3, 1.0], atol=1e-15)
    assert right[-1] == 1.0
    left, right = _cell_edges(as_probs([0.5, 0.5]))
    assert np.array_equal(left, [0.0, 0.5])
    assert np.array_equal(right, [0.5, 1.0])
    left, right = _cell_edges(as_probs([0.6, 0.3, 0.1]))
    assert np.allclose(left, [0.0, 0.6, 0.9], atol=1e-15)
    assert np.allclose(right, [0.6, 0.9, 1.0], atol=1e-15)


def test_boundaries_shared_edges_are_identical_floats():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = _simplex(rng, int(rng.integers(2, 9)))
        left, right = _cell_edges(p)
        assert np.array_equal(left[1:], right[:-1])
        assert left[0] == 0.0 and right[-1] == 1.0
        assert np.all(right - left >= 0.0)
    # one set of edges per row along the last axis, each row adjacent
    rows = np.stack([_simplex(rng, 6) for _ in range(4)])
    left, right = _cell_edges(rows)
    assert np.array_equal(left[:, 1:], right[:, :-1])
    assert np.all(left[:, 0] == 0.0) and np.all(right[:, -1] == 1.0)


def test_categorize_half_open_convention():
    left, right = _cell_edges(as_probs([0.1, 0.2, 0.7]))
    left2 = float(left[2])
    u = np.array([0.05, 0.1, left2, 0.35, 0.999])
    # a shared edge goes to the upper cell
    assert np.array_equal(_categorize_batch(u, right), [0, 1, 2, 2, 2])
    # one set of edges per row, as the inverse-CDF path lays out each draw
    rows = np.stack([right, _cell_edges(as_probs([0.7, 0.2, 0.1]))[1]])
    u = np.array([[0.1, 0.35], [0.7, 0.95]])
    assert np.array_equal(_categorize_batch(u, rows), [[1, 2], [1, 2]])
    # the last cell absorbs u at its final edge
    assert _categorize_batch(np.array([1.0]), right)[0] == 2


# ---------------------------------------------------------------------------
# orderings


def test_make_ordering_frozen_examples():
    assert np.array_equal(make_ordering(1, 2, 3).perm, [1, 0, 2])
    assert np.array_equal(make_ordering(2, 4, 5).perm, [3, 2, 0, 1, 4])
    assert np.array_equal(make_ordering(0, 1, 2).perm, [0, 1])


def test_ordering_exhaustive_validity():
    # bijection with the anchor at the two extreme positions, all C <= 12
    for c in range(2, 13):
        for i in range(c):
            for j in range(c):
                if i == j:
                    continue
                o = make_ordering(i, j, c)
                assert np.array_equal(np.sort(o.perm), np.arange(c))
                assert o.perm[i] == 0 and o.perm[j] == c - 1
                assert np.array_equal(o.inverse[o.perm], np.arange(c))


def test_all_orderings_enumerates_unordered_pairs():
    orderings = all_orderings(5)
    assert len(orderings) == 10
    assert {o.anchor for o in orderings} == {
        (i, j) for i in range(5) for j in range(i + 1, 5)
    }


def test_ordering_validation():
    with pytest.raises(ValueError):
        make_ordering(2, 2, 4)
    with pytest.raises(ValueError):
        Ordering(np.array([0, 1, 1]), (0, 2))  # not a permutation
    with pytest.raises(ValueError):
        Ordering(np.array([1, 0, 2]), (0, 2))  # anchor not at the extremes


def test_ordering_permuted_applies_position_map():
    o = make_ordering(1, 2, 3)  # perm [1, 0, 2]
    p = np.array([0.5, 0.2, 0.3])
    assert np.array_equal(o.permuted(p), [0.2, 0.5, 0.3])


# ---------------------------------------------------------------------------
# analytic bivariate PMF


def test_zero_pair_worked_example_is_exact():
    p = [0.1, 0.2, 0.7]
    val = bivariate_pmf_one_ordering(p, make_ordering(0, 2, 3), 0, 1, 2)
    assert val == 0.0


def test_uniform_binary_pair_probability():
    val = bivariate_pmf_one_ordering([0.5, 0.5], make_ordering(0, 1, 2), 0, 1, 2)
    assert val == pytest.approx(0.5, abs=1e-15)


def test_pmf_entry_within_frechet_cell_bounds():
    rng = np.random.default_rng(2)
    for _ in range(40):
        c = int(rng.integers(2, 7))
        n = int(rng.integers(2, 9))
        p = _simplex(rng, c)
        o = all_orderings(c)[int(rng.integers(0, c * (c - 1) // 2))]
        i, j = int(rng.integers(0, c)), int(rng.integers(0, c))
        val = bivariate_pmf_one_ordering(p, o, i, j, n)
        assert 0.0 <= val <= min(p[i], p[j]) + 1e-12


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_anchored_pair_is_strictly_positive_with_floor_bound(data):
    # anchoring category i to the first cell and j to the last one keeps the
    # pair probability at least eps - max(0, eps^(1/(n-1)) + (1-eps)^(1/(n-1)) - 1)^(n-1)
    # with eps = min(p_i, p_j), which is positive whenever eps > 0
    c = data.draw(st.integers(2, 6))
    n = data.draw(st.integers(2, 10))
    raw = data.draw(
        st.lists(st.floats(1e-3, 1.0), min_size=c, max_size=c).filter(
            lambda v: sum(v) > 0
        )
    )
    p = np.asarray(raw) / np.sum(raw)
    if p.min() < 1e-3:
        p = np.maximum(p, 1e-3)
        p = p / p.sum()
    pair = data.draw(st.permutations(range(c)))
    i, j = int(pair[0]), int(pair[1])
    val = bivariate_pmf_one_ordering(p, make_ordering(i, j, c), i, j, n)
    eps = float(min(p[i], p[j]))
    a = 1.0 / (n - 1)
    floor = eps - max(0.0, eps**a + (1 - eps) ** a - 1.0) ** (n - 1)
    assert val > 0.0
    assert val >= floor - 1e-12


def test_single_ordering_matrix_matches_entry_function():
    # the broadcast matrix against the scalar position-space reference, at
    # every entry of every anchored ordering
    rng = np.random.default_rng(3)
    for c in range(2, 8):
        p = _simplex(rng, c, alpha=0.5)
        n = int(rng.integers(2, 9))
        for o in all_orderings(c):
            m = bivariate_pmf_matrix(p, o, n)
            for i in range(c):
                for j in range(c):
                    assert m[i, j] == pytest.approx(
                        bivariate_pmf_one_ordering(p, o, i, j, n), abs=1e-14
                    )


def test_averaged_pmf_validity_fuzz():
    # nonnegative entries, unit mass, rows equal to the marginals
    rng = np.random.default_rng(4)
    for _ in range(60):
        c = int(rng.integers(2, 7))
        n = int(rng.integers(2, 11))
        p = _simplex(rng, c)
        m = bivariate_pmf_averaged(p, n)
        assert np.all(m >= 0.0)
        assert abs(m.sum() - 1.0) <= 1e-10
        assert np.max(np.abs(m.sum(axis=1) - p)) <= 1e-10
        assert np.max(np.abs(m - m.T)) <= 1e-14


def test_averaged_pmf_full_set_off_diagonals_positive():
    rng = np.random.default_rng(5)
    for _ in range(25):
        c = int(rng.integers(2, 7))
        p = _simplex(rng, c, floor=1e-3)
        m = bivariate_pmf_averaged(p, int(rng.integers(2, 9)))
        off = ~np.eye(c, dtype=bool)
        assert np.all(m[off] > 0.0)


def test_uniform_three_category_pair_diagonal_is_independent():
    # N = 2 is the exact mirror u' = 1 - u: under each anchored ordering only
    # the middle cell maps to itself, and averaging the three orderings gives
    # P(i, i) = 1/9 = p_i^2, so a pair's diagonal correlation vanishes at
    # uniform p even though the coupling is maximally antithetic
    m = bivariate_pmf_averaged(np.full(3, 1 / 3), 2)
    assert np.max(np.abs(np.diag(m) - 1 / 9)) <= 1e-15


def test_binary_case_has_single_ordering():
    p = [0.3, 0.7]
    assert np.allclose(
        bivariate_pmf_averaged(p, 2),
        bivariate_pmf_matrix(p, make_ordering(0, 1, 2), 2),
        atol=0,
    )


def test_averaged_pmf_is_the_mean_over_all_orderings():
    # the blocked build against the per-ordering matrices, within one block
    # (C <= 11) and over several (C = 12, 24, 33); both sum the orderings in
    # the same order, so they agree bit for bit
    rng = np.random.default_rng(20)
    for c in (*range(2, 13), 24, 33):
        for alpha in (0.3, 3.0):
            n = int(rng.integers(2, 11))
            p = _simplex(rng, c, alpha)
            reference = np.mean(
                [bivariate_pmf_matrix(p, o, n) for o in all_orderings(c)], axis=0
            )
            assert np.array_equal(bivariate_pmf_averaged(p, n), reference)


def test_pmf_entries_selected_pairs():
    rng = np.random.default_rng(21)
    for c in (2, 3, 7, 12, 24, 30):
        p = _simplex(rng, c)
        n = int(rng.integers(2, 9))
        avg = bivariate_pmf_averaged(p, n)
        pairs = rng.integers(0, c, size=(9, 2))
        vals = bivariate_pmf_entries(p, n, pairs)
        assert np.array_equal(vals, avg[pairs[:, 0], pairs[:, 1]])
    with pytest.raises(ValueError):
        bivariate_pmf_entries([0.5, 0.5], 2, [(0, 2)])


def test_pmf_entries_past_sixty_categories_match_the_scalar_reference():
    # the blocked build at C = 64 against the scalar position-space
    # reference averaged over every anchored ordering
    rng = np.random.default_rng(23)
    c, n = 64, 4
    p = _simplex(rng, c)
    pairs = [(0, 63), (5, 5), (40, 17)]
    orderings = all_orderings(c)
    reference = [
        np.mean([bivariate_pmf_one_ordering(p, o, i, j, n) for o in orderings])
        for i, j in pairs
    ]
    assert bivariate_pmf_entries(p, n, pairs) == pytest.approx(reference, rel=1e-12, abs=1e-16)


# ---------------------------------------------------------------------------
# inverse-CDF sampler


def test_inverse_cdf_shapes_and_onehot_rows():
    rng = np.random.default_rng(6)
    z, ratios = sample_antithetic_inverse_cdf(5, [0.2, 0.3, 0.5], rng)
    assert z.shape == (5, 3)
    assert np.all(np.sum(z == 1.0, axis=1) == 1)
    assert np.all((z == 0.0) | (z == 1.0))
    assert isinstance(ratios, RatioMatrix)
    assert ratios.ratios.shape == (3, 3)


def test_inverse_cdf_rejects_small_n():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_antithetic_inverse_cdf(1, [0.5, 0.5], rng)


def test_inverse_cdf_never_duplicates_uniform_binary():
    # at C=2, N=2, p=(1/2, 1/2) the antithetic pair always splits the cells
    rng = np.random.default_rng(7)
    for _ in range(2000):
        z, _ = sample_antithetic_inverse_cdf(2, [0.5, 0.5], rng)
        assert not np.array_equal(z[0], z[1])


def test_inverse_cdf_realized_ratio_entries_match_averaged_pmf():
    rng = np.random.default_rng(8)
    p = np.array([0.25, 0.35, 0.4])
    avg = bivariate_pmf_averaged(p, 4)
    for _ in range(50):
        z, ratios = sample_antithetic_inverse_cdf(4, p, rng, clip=None)
        cats = np.argmax(z, axis=1)
        present = np.unique(cats)
        for i in present:
            for j in present:
                if i != j:
                    assert ratios.ratios[i, j] == pytest.approx(
                        p[i] * p[j] / avg[i, j], rel=1e-12
                    )
        # unrealized pairs keep the inert placeholder
        absent = [k for k in range(3) if k not in present]
        for k in absent:
            assert np.all(ratios.ratios[k, :][np.arange(3) != k] == 1.0)


def test_inverse_cdf_clip_flag_engages_deterministically():
    # at C=2 the realized opposite pair has ratio p1*p2 / P(0,1); with
    # p=(0.3, 0.7), n=2 that is 0.21/0.3 = 0.7, so a ceiling of 0.5 must clip
    # whenever the two samples differ
    rng = np.random.default_rng(9)
    seen_offdiag = False
    for _ in range(50):
        z, ratios = sample_antithetic_inverse_cdf(2, [0.3, 0.7], rng, clip=0.5)
        cats = np.argmax(z, axis=1)
        if cats[0] != cats[1]:
            seen_offdiag = True
            assert ratios.clipped
            assert ratios.ratios[0, 1] == 0.5
        else:
            assert not ratios.clipped
    assert seen_offdiag


def test_inverse_cdf_categories_match_per_ordering_searchsorted():
    # the broadcast categorization against a searchsorted reference fed the
    # same random stream: one ordering index per draw, then the copula draw
    rng = np.random.default_rng(22)
    for c, n in ((2, 2), (5, 3), (9, 4), (30, 4)):
        p = _simplex(rng, c, alpha=0.5)
        seed = int(rng.integers(2**31))
        cats = _inverse_cdf_categories_batch(300, n, p, np.random.default_rng(seed))
        ref_rng = np.random.default_rng(seed)
        orderings = all_orderings(c)
        idx = ref_rng.integers(0, len(orderings), size=300)
        u = _sample_dirichlet_copula_batch(300, n, ref_rng)
        for row, k in enumerate(idx):
            o = orderings[k]
            cum = np.cumsum(o.permuted(p))
            pos = np.minimum(np.searchsorted(cum, u[row], side="right"), c - 1)
            assert np.array_equal(cats[row], o.inverse[pos])


def test_inverse_cdf_marginals_quick():
    rng = np.random.default_rng(10)
    p = np.array([0.6, 0.3, 0.1])
    draws = 20_000
    cats = _inverse_cdf_categories_batch(draws, 3, p, rng)
    freq = np.bincount(cats[:, 0], minlength=3) / draws
    se = np.sqrt(p * (1 - p) / draws)
    assert np.max(np.abs(freq - p) / se) <= 4.0


def test_inverse_cdf_fixed_ordering_matches_single_ordering_pmf():
    rng = np.random.default_rng(11)
    p = np.array([0.1, 0.2, 0.7])
    o = make_ordering(0, 2, 3)
    draws = 50_000
    cats = _inverse_cdf_categories_batch(draws, 3, p, rng, ordering=o)
    emp = np.zeros((3, 3))
    np.add.at(emp, (cats[:, 0], cats[:, 1]), 1.0)
    emp /= draws
    analytic = bivariate_pmf_matrix(p, o, 3)
    se = np.sqrt(np.maximum(analytic * (1 - analytic), 1e-12) / draws)
    zero = analytic == 0.0
    assert np.all(emp[zero] == 0.0)
    assert np.all(np.abs(emp - analytic)[~zero] <= 4.0 * se[~zero])


# ---------------------------------------------------------------------------
# Gumbel sampler


def test_gumbel_shapes_and_ratio_matrix():
    rng = np.random.default_rng(14)
    z, ratios = sample_antithetic_gumbel(6, [0.2, 0.3, 0.5], rng)
    assert z.shape == (6, 3)
    assert np.all(np.sum(z == 1.0, axis=1) == 1)
    assert ratios.clip == 10.0
    assert np.all(ratios.ratios <= 10.0)


def test_gumbel_absent_pair_entry_equals_clip():
    # both samplers share the placeholder convention for unrealized pairs
    p = np.array([0.45, 0.45, 0.1])
    for sample in (sample_antithetic_gumbel, sample_antithetic_inverse_cdf):
        rng = np.random.default_rng(15)
        found = False
        for _ in range(200):
            z, ratios = sample(2, p, rng)
            cats = set(np.argmax(z, axis=1).tolist())
            absent_pairs = [
                (i, j)
                for i in range(3)
                for j in range(3)
                if i != j and not ({i, j} <= cats)
            ]
            for i, j in absent_pairs:
                found = True
                assert ratios.ratios[i, j] == 10.0
        assert found, sample.__name__


def test_gumbel_realized_ratio_entries_match_pair_law():
    # the diagonal, like an unrealized pair, is never read by the estimator
    # and holds the placeholder even when a category is drawn twice
    rng = np.random.default_rng(19)
    p = np.array([0.25, 0.35, 0.4])
    law = gumbel_pair_pmf(p, 4)
    for _ in range(50):
        z, ratios = sample_antithetic_gumbel(4, p, rng, clip=None)
        counts = z.sum(axis=0)
        for i in range(3):
            for j in range(3):
                realized = i != j and counts[i] > 0 and counts[j] > 0
                expected = p[i] * p[j] / law[i, j] if realized else 1.0
                assert ratios.ratios[i, j] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "copula", [DIRICHLET, GAUSSIAN, CopulaKind("gaussian", -0.1)], ids=["dir", "gauss", "weak"]
)
def test_single_draw_ratios_match_the_full_pair_laws(copula):
    # the single draws build their law at the realized pairs only; each
    # realized off-diagonal ratio must match the full law's
    rng = np.random.default_rng(33)
    case = 0
    for c in (2, 3, 8, 10, 30):
        for n in (2, 3, 4, 7):
            case += 1
            p = _simplex(rng, c)
            if case % 5 == 0:
                # a zero-probability category shifts the live categories'
                # indices against the full ones
                p[rng.integers(c)] = 0.0
                p = p / p.sum()
            laws = {sample_antithetic_gumbel: gumbel_pair_pmf(p, n, copula)}
            if copula == DIRICHLET:
                laws[sample_antithetic_inverse_cdf] = bivariate_pmf_averaged(p, n)
            for sample, law in laws.items():
                kwargs = {"copula": copula} if sample is sample_antithetic_gumbel else {}
                for _ in range(2 if c == 30 else 4):
                    z, ratios = sample(n, p, rng, clip=None, **kwargs)
                    present = np.unique(np.argmax(z, axis=1))
                    for i in present:
                        for j in present[present != i]:
                            expected = p[i] * p[j] / law[i, j]
                            assert ratios.ratios[i, j] == pytest.approx(expected, rel=1e-12)


GUMBEL_LAW_P = np.array([0.45, 0.3, 0.15, 0.1])


def _quadrature_bound(copula, n):
    # the Dirichlet conditional CDF has a kink at N = 3 (max(0, t)^(N-2)),
    # and is only a few times differentiable above, which slows the
    # quadrature to algebraic convergence
    return 1e-4 if (copula is DIRICHLET and n == 3) else 1e-8


# eight categories, one of them rare
SMALL_P = np.array([0.01, 0.2, 0.15, 0.14, 0.13, 0.12, 0.11, 0.14])


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("copula", [DIRICHLET, GAUSSIAN], ids=["dirichlet", "gaussian"])
@pytest.mark.parametrize("p", [GUMBEL_LAW_P, SMALL_P], ids=["four", "rare"])
def test_gumbel_pair_pmf_matches_sampled_pairs(p, copula, n):
    draws = 100_000
    seed = [20, n, copula is GAUSSIAN] + ([p.size] if p is SMALL_P else [])
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    cats = _gumbel_categories_batch(draws, n, p, rng, copula)
    emp = np.zeros((p.size, p.size))
    np.add.at(emp, (cats[:, 0], cats[:, 1]), 1.0)
    emp /= draws
    law = gumbel_pair_pmf(p, n, copula)
    # a cell the law puts at zero may still hold a count or two
    se = np.sqrt(np.maximum(law * (1 - law), 1.0 / draws) / draws)
    assert np.max(np.abs(emp - law) / se) <= 4.0


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("copula", [DIRICHLET, GAUSSIAN], ids=["dirichlet", "gaussian"])
def test_gumbel_pair_pmf_is_a_symmetric_pair_law(copula, n):
    law = gumbel_pair_pmf(GUMBEL_LAW_P, n, copula)
    assert np.all(law >= 0.0)
    assert np.array_equal(law, law.T)
    # the Dirichlet diagonal at N >= 3 is integrated on its own, so there the
    # row sums carry the quadrature error of the row
    exact_rows = copula is GAUSSIAN or n == 2
    bound = 1e-12 if exact_rows else _quadrature_bound(copula, n)
    assert np.max(np.abs(law.sum(axis=1) - GUMBEL_LAW_P)) <= bound
    # N = 2 at full strength mirrors the samples: a category less likely than
    # another can never win both, since winning the first forces its mirror
    # to lose to that other one
    if n == 2:
        assert np.all(np.diag(law)[1:] <= 1e-15)


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("copula", [DIRICHLET, GAUSSIAN], ids=["dirichlet", "gaussian"])
def test_gumbel_pair_pmf_quadrature_converges(copula, n):
    coarse = _gumbel_pair_pmf(GUMBEL_LAW_P, n, copula, GUMBEL_NODES // 2)
    law = gumbel_pair_pmf(GUMBEL_LAW_P, n, copula)
    fine = _gumbel_pair_pmf(GUMBEL_LAW_P, n, copula, 2 * GUMBEL_NODES)
    assert np.max(np.abs(law - fine)) <= _quadrature_bound(copula, n)
    assert np.max(np.abs(law - fine)) <= np.max(np.abs(coarse - fine))


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("copula", [DIRICHLET, GAUSSIAN], ids=["dirichlet", "gaussian"])
def test_gumbel_pair_pmf_diagonal_is_accurate_for_a_rare_category(copula, n):
    # the law's diagonal, and the ratio p_i^2 / P(i, i) a draw reports for it,
    # need P(i, i) to a relative accuracy, also where it lies far below the
    # quadrature error of its row: the Dirichlet N = 3 diagonal of the 0.01
    # category is about 2e-30
    law = gumbel_pair_pmf(SMALL_P, n, copula)
    fine = _gumbel_pair_pmf(SMALL_P, n, copula, 4 * GUMBEL_NODES)
    assert np.all(np.diag(fine) > 0.0)
    assert np.max(np.abs(np.diag(law) / np.diag(fine) - 1.0)) <= 1e-4


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [3, 4, 5, 10])
def test_gumbel_pair_pmf_subnormal_probability(n):
    # p_k / p_i overflows for a subnormal p_i: an infinite power, so both
    # samples almost surely avoid category i, not a nan diagonal
    p = np.array([0.999, 0.001 - 1e-310, 1e-310])
    law = gumbel_pair_pmf(p / p.sum(), n)
    assert np.all(np.isfinite(law)) and np.all(law >= 0.0)
    assert law[2, 2] == 0.0


def test_gumbel_pair_pmf_zero_category_and_validation():
    law = gumbel_pair_pmf([0.5, 0.0, 0.5], 3)
    assert np.all(law[1] == 0.0) and np.all(law[:, 1] == 0.0)
    assert np.max(np.abs(law.sum(axis=1) - [0.5, 0.0, 0.5])) <= _quadrature_bound(DIRICHLET, 3)
    with pytest.raises(ValueError):
        gumbel_pair_pmf([0.5, 0.5], 1)


def test_gumbel_marginals_quick():
    rng = np.random.default_rng(16)
    p = np.array([0.6, 0.3, 0.1])
    draws = 20_000
    cats = _gumbel_categories_batch(draws, 3, p, rng, DIRICHLET)
    freq = np.bincount(cats[:, 0], minlength=3) / draws
    se = np.sqrt(p * (1 - p) / draws)
    assert np.max(np.abs(freq - p) / se) <= 4.0


def _gumbel_one_shot(k, n, p, rng, copula):
    # the whole-batch Gumbel-max draw: one copula call for all k C columns
    u = sample_copula_batch(copula, k * p.size, n, rng).reshape(k, p.size, n)
    with np.errstate(divide="ignore"):
        return np.argmax(-np.log(-np.log(u)) + np.log(p)[None, :, None], axis=1)


@pytest.mark.parametrize("copula", [DIRICHLET, GAUSSIAN], ids=["dirichlet", "gaussian"])
def test_gumbel_blocks_are_bit_identical_to_one_draw(copula):
    # k = 1, exactly one block, and several blocks with a partial last one,
    # with a category that can never win
    p = np.array([0.2, 0.0, 0.35, 0.05, 0.4])
    n = 3
    step = GUMBEL_BLOCK // (p.size * n)
    for k in (1, step, 3 * step + 7):
        ref_rng, rng = np.random.default_rng(k), np.random.default_rng(k)
        ref = _gumbel_one_shot(k, n, p, ref_rng, copula)
        cats = _gumbel_categories_batch(k, n, p, rng, copula)
        assert cats.shape == (k, n) and np.array_equal(cats, ref), k
        assert np.all(cats != 1)
        # the blocks leave the stream where the one draw does
        assert np.array_equal(rng.random(4), ref_rng.random(4)), k


def test_gumbel_gaussian_copula_supported():
    rng = np.random.default_rng(17)
    z, _ = sample_antithetic_gumbel(4, [0.5, 0.5], rng, copula=GAUSSIAN)
    assert z.shape == (4, 2)


@pytest.mark.parametrize("clip", [0.0, -1.0, np.nan])
def test_single_draws_check_clip_before_any_work(clip):
    p = _simplex(np.random.default_rng(34), 30)
    for sample in (sample_antithetic_gumbel, sample_antithetic_inverse_cdf):
        rng = np.random.default_rng(35)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="clip"):
            sample(4, p, rng, clip=clip)
        assert rng.bit_generator.state == state


def test_gumbel_clip_none_keeps_raw_ratios():
    rng = np.random.default_rng(18)
    z, ratios = sample_antithetic_gumbel(3, [0.4, 0.6], rng, clip=None)
    assert ratios.clip is None
    assert not ratios.clipped
    assert np.all(np.isfinite(ratios.ratios))


# ---------------------------------------------------------------------------
# RatioMatrix validation and determinism


def test_ratio_matrix_validation():
    with pytest.raises(ValueError):
        RatioMatrix(np.array([[1.0, np.inf], [1.0, 1.0]]), None, False)
    with pytest.raises(ValueError):
        RatioMatrix(np.array([[1.0, -0.5], [1.0, 1.0]]), None, False)
    with pytest.raises(ValueError):
        RatioMatrix(np.ones((2, 2)), 0.0, False)  # ceiling must be positive
    with pytest.raises(ValueError):
        RatioMatrix(np.ones((2, 3)), None, False)  # not square


def test_samplers_deterministic_given_seed():
    p = [0.2, 0.5, 0.3]
    for sampler in (sample_antithetic_inverse_cdf, sample_antithetic_gumbel):
        z1, r1 = sampler(4, p, np.random.default_rng(42))
        z2, r2 = sampler(4, p, np.random.default_rng(42))
        assert np.array_equal(z1, z2)
        assert np.array_equal(r1.ratios, r2.ratios)
        assert r1.clipped == r2.clipped
