"""Tests for cell edges, orderings, the analytic pair PMF, and both samplers."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import carms.experiments
import carms.sampling
from carms.copula import _sample_dirichlet_copula_batch
from carms.oracle import (
    Ordering,
    TabulatedObjective,
    all_orderings,
    bivariate_pmf_matrix,
    bivariate_pmf_one_ordering,
    exact_carms_expectation,
    exact_gradient,
    make_ordering,
    softmax,
)
from carms.sampling import (
    GUMBEL_BLOCK,
    GUMBEL_NODES,
    RatioMatrix,
    _analytic_ratio_matrix,
    _anchored_inverse,
    _blocks,
    _categorize_batch,
    _cell_edges,
    _gumbel_categories_batch,
    _gumbel_pair_offdiag_antithetic,
    _gumbel_pair_pmf,
    _inverse_cdf_categories_batch,
    _ordering_anchors,
    _realized_ratios,
    _unit_nodes,
    as_probs,
    bivariate_pmf_averaged,
    bivariate_pmf_entries,
    gumbel_pair_pmf,
    onehot,
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


def test_categorize_exact_edges_and_zero_width_cells():
    # cells 1 and 3 have zero width: no u lands there, and a u on their
    # repeated edge goes past them; shared and per-row edges agree, the latter
    # stored row by row or edge by edge, and the cells come back C-ordered
    right = np.array([0.25, 0.25, 0.5, 0.5, 1.0])
    u = np.array([[0.0, 0.25], [np.nextafter(0.5, 0.0), 0.5], [0.75, 1.0]])
    expected = [[0, 2], [2, 4], [4, 4]]
    rows = np.tile(right, (3, 1))
    for edges in (right, rows, np.asfortranarray(rows)):
        cats = _categorize_batch(u, edges)
        assert np.array_equal(cats, expected) and cats.flags.c_contiguous


def test_category_batches_are_c_ordered():
    # downstream reductions follow memory order, so their bits need C order
    rng = np.random.default_rng(71)
    p = _simplex(rng, 5)
    for cats in (
        _inverse_cdf_categories_batch(300, 4, p, rng),
        _gumbel_categories_batch(300, 4, p, rng),
    ):
        assert cats.shape == (300, 4) and cats.flags.c_contiguous


# ---------------------------------------------------------------------------
# orderings


def test_make_ordering_frozen_examples():
    assert np.array_equal(make_ordering(1, 2, 3).perm, [1, 0, 2])
    assert np.array_equal(make_ordering(2, 4, 5).perm, [3, 2, 0, 1, 4])
    assert np.array_equal(make_ordering(0, 1, 2).perm, [0, 1])


def test_ordering_exhaustive_validity():
    # bijection with the anchor at the two extreme positions, all C <= 12,
    # built by the rule spelled out one category at a time (rotate i to
    # position 0, then j and the category left last trade positions) and
    # matching the batched rows of every anchor pair
    for c in range(2, 13):
        anchors = [(i, j) for i in range(c) for j in range(c) if i != j]
        for (i, j), row in zip(anchors, _anchored_inverse(*np.array(anchors).T, c)):
            o = make_ordering(i, j, c)
            assert np.array_equal(np.sort(o.perm), np.arange(c))
            assert o.perm[i] == 0 and o.perm[j] == c - 1
            assert np.array_equal(o.inverse[o.perm], np.arange(c))
            pos = [(k - i) % c for k in range(c)]
            pos[j], pos[(i - 1) % c] = c - 1, pos[j]
            assert o.perm.tolist() == pos and np.array_equal(row, o.inverse)


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


def test_ordering_numbers_map_to_the_anchors_of_all_orderings():
    for c in range(2, 41):
        a, b = _ordering_anchors(np.arange(c * (c - 1) // 2), c)
        assert list(zip(a.tolist(), b.tolist())) == [o.anchor for o in all_orderings(c)], c


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
    # the blocked build against the per-ordering matrices of oracle.py, within
    # one block and over several (C = 24, 33); the reference has its own cell
    # edges and copula CDF, so the two agree to rounding (1.6e-16 at worst on
    # these cases), not bit for bit; the build computes its upper triangle and
    # mirrors it, so the law is symmetric bit for bit
    rng = np.random.default_rng(20)
    for c in (*range(2, 13), 24, 33):
        for alpha in (0.3, 3.0):
            n = int(rng.integers(2, 11))
            p = _simplex(rng, c, alpha)
            reference = np.mean(
                [bivariate_pmf_matrix(p, o, n) for o in all_orderings(c)], axis=0
            )
            law = bivariate_pmf_averaged(p, n)
            assert np.max(np.abs(law - reference)) <= 1e-15, (c, n, alpha)
            assert np.array_equal(law, law.T)


def test_pair_law_has_one_value_per_pair():
    # the averaged law is symmetric, and an entry asked for at (i, j), at
    # (j, i) or alone is the law's, bit for bit
    rng = np.random.default_rng(22)
    for _ in range(100):
        c, n = int(rng.integers(2, 14)), int(rng.integers(2, 11))
        p = _simplex(rng, c)
        law = bivariate_pmf_averaged(p, n)
        assert np.array_equal(law, law.T), (c, n)
        i, j = rng.integers(0, c, size=2)
        assert np.array_equal(bivariate_pmf_entries(p, n, [(i, j), (j, i)]), [law[i, j]] * 2)
        assert bivariate_pmf_entries(p, n, [(j, i)])[0] == law[i, j], (c, n, i, j)


def test_pmf_entries_selected_pairs():
    rng = np.random.default_rng(21)
    for c in (2, 3, 7, 12, 24, 30):
        p = _simplex(rng, c)
        n = int(rng.integers(2, 9))
        avg = bivariate_pmf_averaged(p, n)
        pairs = rng.integers(0, c, size=(9, 2))
        vals = bivariate_pmf_entries(p, n, pairs)
        assert np.array_equal(vals, avg[pairs[:, 0], pairs[:, 1]])
        # every pair at once is the full law, bit for bit
        every = np.stack(np.meshgrid(np.arange(c), np.arange(c), indexing="ij"), axis=-1)
        assert np.array_equal(bivariate_pmf_entries(p, n, every).reshape(c, c), avg)
        assert bivariate_pmf_entries(p, n, np.zeros((0, 2), dtype=int)).shape == (0,)
    with pytest.raises(ValueError):
        bivariate_pmf_entries([0.5, 0.5], 2, [(0, 2)])


def test_category_indices_must_be_integers():
    # a float pair once truncated to (0, 1), and a float category raised IndexError
    with pytest.raises(ValueError, match="integers"):
        bivariate_pmf_entries([0.2, 0.3, 0.5], 2, [[0, 1.5]])
    with pytest.raises(ValueError, match="integers"):
        onehot(np.array([0.5]), 3)
    assert np.array_equal(onehot(np.array([2, 0], dtype=np.uint8), 3), [[0, 0, 1], [1, 0, 0]])


@pytest.mark.parametrize("width", [0, 1, 16, 4096, 8192, 10**5])
def test_blocks_cover_the_range_once_in_order(width):
    longest = max(1, 8192 // max(width, 1))
    for total in (0, 1, 7, 1000):
        blocks = _blocks(total, width)
        covered = np.concatenate([np.arange(total)[b] for b in blocks] + [np.arange(0)])
        assert np.array_equal(covered, np.arange(total))
        assert all(0 < len(range(total)[b]) <= longest for b in blocks)


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
        # the diagonal and the pairs with an absent category hold 0
        for k in range(3):
            assert ratios.ratios[k, k] == 0.0
            if k not in present:
                assert np.all(ratios.ratios[k] == 0.0) and np.all(ratios.ratios[:, k] == 0.0)


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


def test_inverse_cdf_categories_match_per_ordering_searchsorted(pinned_ordering):
    # the broadcast categorization against a searchsorted reference fed the
    # same random stream: one ordering index per draw, then the copula draw;
    # one draw, fewer draws than orderings, more, and one pinned ordering
    rng = np.random.default_rng(22)
    for c, n in ((2, 2), (3, 3), (5, 3), (8, 4), (9, 4), (30, 4)):
        p = _simplex(rng, c, alpha=0.5)
        orderings = all_orderings(c)
        for k, fixed in ((1, None), (300, None), (1000, None), (200, orderings[-1])):
            seed = int(rng.integers(2**31))
            draw_rng = np.random.default_rng(seed)
            if fixed is not None:
                draw_rng = pinned_ordering(draw_rng, fixed)
            cats = _inverse_cdf_categories_batch(k, n, p, draw_rng)
            ref_rng = np.random.default_rng(seed)
            idx = [-1] * k if fixed is not None else ref_rng.integers(0, len(orderings), size=k)
            u = _sample_dirichlet_copula_batch(k, n, ref_rng)
            for row, m in enumerate(idx):
                o = orderings[m]
                cum = np.cumsum(o.permuted(p))
                pos = np.minimum(np.searchsorted(cum, u[row], side="right"), c - 1)
                assert np.array_equal(cats[row], o.inverse[pos]), (c, k, row)


def _peak_mib(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_inverse_cdf_memory_stays_small_at_two_hundred_categories():
    # 19900 orderings: held as a table with its (M, C) cumsum, they take
    # 131.7 MiB for a 1000-draw batch and 60.7 MiB for one single draw
    rng = np.random.default_rng(26)
    p = np.full(200, 1.0 / 200)
    sample_antithetic_inverse_cdf(4, [0.5, 0.5], rng)  # lazy imports and first-call state
    batch = _peak_mib(lambda: _inverse_cdf_categories_batch(1000, 4, p, rng))
    single = _peak_mib(lambda: sample_antithetic_inverse_cdf(4, p, rng))
    assert batch < 16.0 and single < 4.0, (batch, single)


def test_inverse_cdf_batch_memory_per_draw_does_not_grow_with_categories():
    # k >= M draws gather their edges one edge at a time: 104 bytes per draw
    # at N = 4 for both C, where a (k, C) edge table took 144 and 344
    rng = np.random.default_rng(27)
    per_draw = []
    for c in (5, 30):
        p = _simplex(rng, c)
        _inverse_cdf_categories_batch(1000, 4, p, rng)
        small, large = (_peak_mib(lambda k=k: _inverse_cdf_categories_batch(k, 4, p, rng))
                        for k in (20_000, 60_000))
        per_draw.append((large - small) * 2**20 / 40_000)
    assert per_draw[1] < per_draw[0] + 8.0 and per_draw[1] < 128.0, per_draw


def test_inverse_cdf_single_draw_validates_p_once(monkeypatch):
    # the single draw checks p, its law does not; the carms-i estimator's
    # factory checks its stack of rows once, and its law does not re-check it
    calls = []

    def counted(check):
        def check_counted(p):
            calls.append(check.__name__)
            return check(p)

        return check_counted

    rng = np.random.default_rng(28)
    monkeypatch.setattr(carms.sampling, "as_probs", counted(as_probs))
    monkeypatch.setattr(carms.experiments, "_prob_rows", counted(carms.sampling._prob_rows))
    for c in (2, 5, 30):
        sample_antithetic_inverse_cdf(4, _simplex(rng, c), rng)
    assert calls == ["as_probs"] * 3
    p = np.stack([_simplex(rng, 6) for _ in range(3)])
    objective = carms.experiments.toy_objective(6, 3)
    carms.experiments.make_gradient_estimator("carms-i", p, 4, objective)
    assert calls == ["as_probs"] * 3 + ["_prob_rows"]


def test_inverse_cdf_marginals_quick():
    rng = np.random.default_rng(10)
    p = np.array([0.6, 0.3, 0.1])
    draws = 20_000
    cats = _inverse_cdf_categories_batch(draws, 3, p, rng)
    freq = np.bincount(cats[:, 0], minlength=3) / draws
    se = np.sqrt(p * (1 - p) / draws)
    assert np.max(np.abs(freq - p) / se) <= 4.0


def test_inverse_cdf_fixed_ordering_matches_single_ordering_pmf(pinned_ordering):
    rng = np.random.default_rng(11)
    p = np.array([0.1, 0.2, 0.7])
    o = make_ordering(0, 2, 3)
    draws = 50_000
    cats = _inverse_cdf_categories_batch(draws, 3, p, pinned_ordering(rng, o))
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


def test_absent_pair_entry_is_zero():
    # both samplers hold 0 at unrealized pairs and on the diagonal, under
    # the default ceiling too
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
                if i == j or not ({i, j} <= cats)
            ]
            for i, j in absent_pairs:
                found |= i != j
                assert ratios.ratios[i, j] == 0.0
        assert found, sample.__name__


def test_gumbel_realized_ratio_entries_match_pair_law():
    # the diagonal, like an unrealized pair, is never read by the estimator
    # and holds 0 even when a category is drawn twice
    rng = np.random.default_rng(19)
    p = np.array([0.25, 0.35, 0.4])
    law = gumbel_pair_pmf(p, 4)
    for _ in range(50):
        z, ratios = sample_antithetic_gumbel(4, p, rng, clip=None)
        counts = z.sum(axis=0)
        for i in range(3):
            for j in range(3):
                realized = i != j and counts[i] > 0 and counts[j] > 0
                expected = p[i] * p[j] / law[i, j] if realized else 0.0
                assert ratios.ratios[i, j] == pytest.approx(expected, rel=1e-12)


def test_single_draw_ratios_match_the_full_pair_laws():
    # the single draws build their law at the realized pairs only; each
    # realized off-diagonal ratio must match the full law's: the inverse-CDF
    # draw's the batched ratios bit for bit, the Gumbel draw's (a quadrature
    # over the realized rows) to rounding
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
            laws = {
                sample_antithetic_gumbel: gumbel_pair_pmf(p, n),
                sample_antithetic_inverse_cdf: bivariate_pmf_averaged(p, n),
            }
            batched, _ = _analytic_ratio_matrix(p, laws[sample_antithetic_inverse_cdf], None)
            for sample, law in laws.items():
                for _ in range(2 if c == 30 else 4):
                    z, ratios = sample(n, p, rng, clip=None)
                    present = np.unique(np.argmax(z, axis=1))
                    for i in present:
                        for j in present[present != i]:
                            if sample is sample_antithetic_inverse_cdf:
                                assert ratios.ratios[i, j] == batched[i, j]
                            else:
                                expected = p[i] * p[j] / law[i, j]
                                assert ratios.ratios[i, j] == pytest.approx(expected, rel=1e-12)


GUMBEL_LAW_P = np.array([0.45, 0.3, 0.15, 0.1])


def _quadrature_bound(n):
    # the Dirichlet conditional CDF has a kink at N = 3 (max(0, t)^(N-2)),
    # and is only a few times differentiable above, which slows the
    # off-diagonal quadrature to algebraic convergence; each diagonal entry
    # is what its row leaves of p, so it converges with the row
    return 1e-4 if n == 3 else 1e-8


# eight categories, one of them rare
SMALL_P = np.array([0.01, 0.2, 0.15, 0.14, 0.13, 0.12, 0.11, 0.14])

# the ids of the Gumbel-law cases below name their copula, the Dirichlet one


@pytest.mark.parametrize("n", [2, 3, 5], ids="dirichlet-{}".format)
@pytest.mark.parametrize("p", [GUMBEL_LAW_P, SMALL_P], ids=["four", "rare"])
def test_gumbel_pair_pmf_matches_sampled_pairs(p, n):
    draws = 100_000
    seed = [20, n, 0] + ([p.size] if p is SMALL_P else [])
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    cats = _gumbel_categories_batch(draws, n, p, rng)
    emp = np.zeros((p.size, p.size))
    np.add.at(emp, (cats[:, 0], cats[:, 1]), 1.0)
    emp /= draws
    law = gumbel_pair_pmf(p, n)
    # a cell the law puts at zero may still hold a count or two
    se = np.sqrt(np.maximum(law * (1 - law), 1.0 / draws) / draws)
    assert np.max(np.abs(emp - law) / se) <= 4.0


@pytest.mark.parametrize("n", [2, 3, 4, 5, 10], ids="dirichlet-{}".format)
def test_gumbel_pair_pmf_is_a_symmetric_pair_law(n):
    law = gumbel_pair_pmf(GUMBEL_LAW_P, n)
    assert np.all(law >= 0.0)
    assert np.array_equal(law, law.T)
    # the diagonal is what the row leaves of p, for every N
    assert np.max(np.abs(law.sum(axis=1) - GUMBEL_LAW_P)) <= 1e-12
    # N = 2 at full strength mirrors the samples: a category less likely than
    # another can never win both, since winning the first forces its mirror
    # to lose to that other one
    if n == 2:
        assert np.all(np.diag(law)[1:] <= 1e-15)


@pytest.mark.parametrize("n", [2, 3, 4, 10], ids="dirichlet-{}".format)
def test_gumbel_pair_pmf_gives_the_exact_gradient(n):
    # over any pair law whose rows sum to p and whose off-diagonal is positive,
    # the pair estimator's exact mean is the gradient; with two dimensions each
    # one's row sums also weight the other's differences, so they must be p
    phi = np.log([GUMBEL_LAW_P, GUMBEL_LAW_P[::-1]])
    f = TabulatedObjective(np.random.default_rng(n).normal(size=(4, 4)))
    pmf = np.stack([gumbel_pair_pmf(p, n) for p in softmax(phi)])
    moments = exact_carms_expectation(f, phi, pmf)
    assert np.max(np.abs(moments.mean - exact_gradient(f, phi))) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 5, 10], ids="dirichlet-{}".format)
def test_gumbel_pair_pmf_quadrature_converges(n):
    coarse = _gumbel_pair_pmf(GUMBEL_LAW_P, n, GUMBEL_NODES // 2)
    law = gumbel_pair_pmf(GUMBEL_LAW_P, n)
    fine = _gumbel_pair_pmf(GUMBEL_LAW_P, n, 2 * GUMBEL_NODES)
    assert np.max(np.abs(law - fine)) <= _quadrature_bound(n)
    assert np.max(np.abs(law - fine)) <= np.max(np.abs(coarse - fine))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [3, 4, 5, 10])
def test_gumbel_pair_pmf_subnormal_probability(n):
    # a subnormal p_i leaves a finite law, computed without a floating-point
    # warning, whose diagonal stays within [0, p_i] and whose rows sum to p;
    # where the off-diagonal quadrature overshoots p_i the diagonal floors at
    # 0 and the row keeps that overshoot (a relative 1.6e-9 in row 1 at N = 5)
    p = np.array([0.999, 0.001 - 1e-310, 1e-310])
    p = p / p.sum()
    law = gumbel_pair_pmf(p, n)
    assert np.all(np.isfinite(law)) and np.all(law >= 0.0)
    assert 0.0 <= law[2, 2] <= p[2]
    gap, floored = law.sum(axis=1) - p, np.diag(law) == 0.0
    assert np.all(np.abs(gap[~floored]) <= 1e-12)
    assert np.all(np.abs(gap[floored]) <= 1e-8 * p[floored])


def test_gumbel_pair_pmf_zero_category_and_validation():
    law = gumbel_pair_pmf([0.5, 0.0, 0.5], 3)
    assert np.all(law[1] == 0.0) and np.all(law[:, 1] == 0.0)
    assert np.max(np.abs(law.sum(axis=1) - [0.5, 0.0, 0.5])) <= 1e-12
    with pytest.raises(ValueError):
        gumbel_pair_pmf([0.5, 0.5], 1)


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(b"None" if a is None else np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _pair_law_outputs(name, c, n):
    """What one pair-law function returns at C categories and N samples, for
    p ~ Dirichlet(0.5) and Dirichlet(5) (seed C), at up to four drawn
    categories in a non-prefix order (seed 1000 + C)."""
    drawn = np.random.default_rng(1000 + c).permutation(c)[:4]
    pairs = np.array([[a, b] for k, a in enumerate(drawn) for b in drawn[k:]])
    out = []
    for alpha in (0.5, 5.0):
        p = np.random.default_rng(c).dirichlet(np.full(c, alpha))
        if name == "gumbel_pair_pmf":
            out.append(gumbel_pair_pmf(p, n))
        elif name == "gumbel_offdiag_law":
            out += [carms.sampling._gumbel_offdiag_law(p, n, cats=drawn[:r])
                    for r in range(2, drawn.size + 1)]
        elif name == "bivariate_pmf_entries":
            out.append(bivariate_pmf_entries(p, n, pairs))
        else:
            law = carms.sampling._inverse_cdf_offdiag_law
            out += [law(p, n), law(p, n, cats=drawn)]
    return out


# sha256 (first 16 hex digits) of _pair_law_outputs, as built when each Gumbel
# block made its CDF arrays afresh and the rectangle mass called the copula
# CDF once per corner
PINNED_PAIR_LAWS = {
    ("gumbel_pair_pmf", 3, 2): "ee2202479361796f",
    ("gumbel_pair_pmf", 3, 3): "ebd9bdd935512e86",
    ("gumbel_pair_pmf", 3, 4): "b06c73fb30c06602",
    ("gumbel_pair_pmf", 3, 10): "78e4dd781837350b",
    ("gumbel_pair_pmf", 8, 2): "fcd48afbb371da47",
    ("gumbel_pair_pmf", 8, 3): "09b091d44ab7cf27",
    ("gumbel_pair_pmf", 8, 4): "1cd151b4fc591c49",
    ("gumbel_pair_pmf", 8, 10): "43fb3b0eedbbfc75",
    ("gumbel_pair_pmf", 30, 2): "6276816a79664c00",
    ("gumbel_pair_pmf", 30, 3): "0aef89674faa282c",
    ("gumbel_pair_pmf", 30, 4): "ae0a5f7dd446f8fd",
    ("gumbel_pair_pmf", 30, 10): "d186599fb3856880",
    ("gumbel_offdiag_law", 3, 2): "471e50c0fe880b78",
    ("gumbel_offdiag_law", 3, 3): "65cc1a200d94424a",
    ("gumbel_offdiag_law", 3, 4): "22e39a859c977fd6",
    ("gumbel_offdiag_law", 3, 10): "9c9ceee73c5ef683",
    ("gumbel_offdiag_law", 8, 2): "7805e17557c5574d",
    ("gumbel_offdiag_law", 8, 3): "bc30a5b665fbc34e",
    ("gumbel_offdiag_law", 8, 4): "91526b762b7d9de6",
    ("gumbel_offdiag_law", 8, 10): "d492cd76c0d80bad",
    ("gumbel_offdiag_law", 30, 2): "c18fd485dde78804",
    ("gumbel_offdiag_law", 30, 3): "d2db522fd83d51a1",
    ("gumbel_offdiag_law", 30, 4): "f8a6c09032a5dbba",
    ("gumbel_offdiag_law", 30, 10): "67758cead6ff8da2",
    ("bivariate_pmf_entries", 3, 2): "9d66a69162e8a9dd",
    ("bivariate_pmf_entries", 3, 3): "225ecd5f6f05906e",
    ("bivariate_pmf_entries", 3, 4): "763b9da877c7f534",
    ("bivariate_pmf_entries", 3, 10): "019c80e4fa429001",
    ("bivariate_pmf_entries", 8, 2): "7dc63e6214486ac4",
    ("bivariate_pmf_entries", 8, 3): "7f611608e381f716",
    ("bivariate_pmf_entries", 8, 4): "ed903933c2dc30aa",
    ("bivariate_pmf_entries", 8, 10): "7b9a9c89bd3cff7a",
    ("bivariate_pmf_entries", 30, 2): "46b478a8efa33067",
    ("bivariate_pmf_entries", 30, 3): "2b0b7408dfd999a6",
    ("bivariate_pmf_entries", 30, 4): "1609d610294ec6e6",
    ("bivariate_pmf_entries", 30, 10): "08056f1f3702b67d",
    ("inverse_cdf_offdiag_law", 3, 2): "d63a02fb5c75ac3c",
    ("inverse_cdf_offdiag_law", 3, 3): "274d285ae0a51390",
    ("inverse_cdf_offdiag_law", 3, 4): "416307f0900f9db5",
    ("inverse_cdf_offdiag_law", 3, 10): "01f36b0755910a04",
    ("inverse_cdf_offdiag_law", 8, 2): "a4096d0601002c59",
    ("inverse_cdf_offdiag_law", 8, 3): "c9165f93da40c57e",
    ("inverse_cdf_offdiag_law", 8, 4): "81a33f5ce4eebedb",
    ("inverse_cdf_offdiag_law", 8, 10): "deb4107487c262dc",
    ("inverse_cdf_offdiag_law", 30, 2): "d5b6f9b37dd97bac",
    ("inverse_cdf_offdiag_law", 30, 3): "caa56c3669c937ab",
    ("inverse_cdf_offdiag_law", 30, 4): "aa21e3e6f411c6f7",
    ("inverse_cdf_offdiag_law", 30, 10): "38db46b882c0e163",
}


@pytest.mark.parametrize("name, c, n", sorted(PINNED_PAIR_LAWS))
def test_pair_laws_are_pinned(name, c, n):
    assert _digest(*_pair_law_outputs(name, c, n)) == PINNED_PAIR_LAWS[name, c, n]


def _gumbel_offdiag_reference(p, n, cats):
    """The off-diagonal Gumbel law among cats for a positive p, as the same
    GUMBEL_NODES quadrature over whole (C, G, G) arrays, with the Dirichlet
    copula's CDF H and conditional CDF typed out: P(i, j) sums
    a_i(s, t) / H_i(s, t) · a_j(t, s) / H_j(t, s) · ∏_k H_k(s, t)."""
    _, xc, w = _unit_nodes(GUMBEL_NODES)
    m = n - 1
    u = xc ** p[:, None]
    us, ut = u[:, :, None], u[:, None, :]
    t = np.maximum((1.0 - us) ** (1.0 / m) + (1.0 - ut) ** (1.0 / m) - 1.0, 0.0)
    h = np.clip(us + ut - 1.0 + t**m, np.maximum(us + ut - 1.0, 0.0), np.minimum(us, ut))
    with np.errstate(divide="ignore", invalid="ignore"):
        # at u = 1 the slope (1 - u)^(1/m - 1) meets t = 0 and the tail vanishes
        slope = np.where(us < 1.0, (1.0 - us) ** (1.0 / m - 1.0), 0.0)
        a = (1.0 - t ** (m - 1) * slope) * (p[:, None] * u / xc * w)[:, :, None]
        ratio = np.where(h > 0.0, a / h, 0.0)
    law = np.einsum("ist,jts,st->ij", ratio, ratio, h.prod(axis=0))
    keep = np.zeros(p.size, bool)
    keep[cats] = True
    return np.where(np.outer(keep, keep) & ~np.eye(p.size, dtype=bool), 0.5 * (law + law.T), 0.0)


@pytest.mark.parametrize("n", [3, 4, 10])
@pytest.mark.parametrize("c", [3, 8, 12])
def test_gumbel_offdiag_law_matches_a_whole_array_quadrature(c, n):
    # all rows, a prefix and a non-prefix subset of them, and a p with a
    # 1e-12 category, which carries its pairs' mass at relative accuracy
    rng = np.random.default_rng(100 * c + n)
    tiny = _simplex(rng, c)
    tiny[1] = 1e-12
    for p in (_simplex(rng, c), tiny / tiny.sum()):
        for cats in (np.arange(c), np.arange(2), np.array([c - 1, 0, 1][: min(c, 3)][::-1])):
            law = carms.sampling._gumbel_offdiag_law(p, n, cats=cats)
            ref = _gumbel_offdiag_reference(p, n, cats)
            assert np.all((law == 0.0) == (ref == 0.0)), (c, n, cats)
            assert np.all(np.abs(law - ref) <= 1e-13 * ref), (c, n, cats)


def test_gumbel_law_memory_stays_within_its_traced_peaks():
    # N = 4: 1388.6 KiB at C = 8 with four realized categories and 2316.5
    # KiB at C = 30 with all rows, as traced when each block made its CDF
    # arrays afresh; the stacks' laws, D rows each, 1518.3 KiB at (D, C) =
    # (4, 8), in groups of two rows, and 1352.6 KiB at (10, 10), a row at a
    # time, as traced when each stack was first built in one call.  The
    # bounds leave under 1 KiB for the interpreter's own small objects
    rng = np.random.default_rng(75)
    law = carms.sampling._gumbel_offdiag_law
    for c, cats, kib in ((8, np.array([6, 1, 3, 4]), 1389), (30, None, 2317)):
        p = _simplex(rng, c)
        law(p, 4, cats=cats)
        assert _peak_mib(lambda: law(p, 4, cats=cats)) * 1024 <= kib, c
    for d, c, kib in ((4, 8, 1519), (10, 10, 1353)):
        p = np.stack([_simplex(rng, c) for _ in range(d)])
        law(p, 4)
        assert _peak_mib(lambda: law(p, 4)) * 1024 <= kib, (d, c)


def _stack_of_live_sets(rng, b, c):
    """b rows of p ~ Dirichlet(1/2) over C categories, row r > 0 without
    category r - 1 (mod C) and, from C = 8, without 3 r (mod C) too: rows
    with different live sets, and at C = 2 rows with a single one."""
    p = rng.dirichlet(np.full(c, 0.5), size=b)
    for r in range(1, b):
        p[r, (r - 1) % c] = 0.0
        if c >= 8:
            p[r, 3 * r % c] = 0.0
        p[r] /= p[r].sum()
    return p


@pytest.mark.parametrize("n", [2, 3, 4, 10])
@pytest.mark.parametrize("c", [2, 3, 8, 30])
@pytest.mark.parametrize("b", [1, 2, 5])
def test_a_stack_of_laws_and_ratios_equals_its_rows_bit_for_bit(b, c, n):
    # each builder and the ratio rule on a (B, C) stack return their 1-D
    # calls stacked, exactly, however many rows share a Gumbel group
    p = _stack_of_live_sets(np.random.default_rng(1000 * b + 10 * c + n), b, c)
    for law in (carms.sampling._inverse_cdf_offdiag_law, carms.sampling._gumbel_offdiag_law):
        stacked, rows = law(p, n), [law(row, n) for row in p]
        assert stacked.shape == (b, c, c) and np.array_equal(stacked, np.stack(rows)), law
        for clip in (10.0, None):
            ratios, exceed = _analytic_ratio_matrix(p, stacked, clip)
            ref = [_analytic_ratio_matrix(row, pbar, clip) for row, pbar in zip(p, rows)]
            assert np.array_equal(ratios, np.stack([r for r, _ in ref])), (law, clip)
            assert np.array_equal(exceed, np.stack([e for _, e in ref])), (law, clip)


@pytest.mark.parametrize("method, builder", [("carms-i", "_inverse_cdf_offdiag_law"),
                                             ("carms-g", "_gumbel_offdiag_law")])
def test_the_estimator_builds_its_stack_of_laws_in_one_call(method, builder, monkeypatch):
    # make_gradient_estimator hands its whole (D, C) stack to its path's law
    # builder, read from carms.experiments when called
    calls = []
    build = getattr(carms.experiments, builder)

    def counted(p, n):
        calls.append(p.shape)
        return build(p, n)

    monkeypatch.setattr(carms.experiments, builder, counted)
    rng = np.random.default_rng(76)
    p = np.stack([_simplex(rng, 6) for _ in range(5)])
    carms.experiments.make_gradient_estimator(method, p, 4, carms.experiments.toy_objective(6, 5))
    assert calls == [(5, 6)]


def test_gumbel_marginals_quick():
    rng = np.random.default_rng(16)
    p = np.array([0.6, 0.3, 0.1])
    draws = 20_000
    cats = _gumbel_categories_batch(draws, 3, p, rng)
    freq = np.bincount(cats[:, 0], minlength=3) / draws
    se = np.sqrt(p * (1 - p) / draws)
    assert np.max(np.abs(freq - p) / se) <= 4.0


def _gumbel_one_shot(k, n, p, rng):
    # the whole-batch Gumbel-max draw in race form: one copula call for all
    # k C columns, each sample to the largest log(u) / p
    u = _sample_dirichlet_copula_batch(k * p.size, n, rng).reshape(k, p.size, n)
    with np.errstate(divide="ignore"):
        return np.argmax(np.log(u) / p[None, :, None], axis=1)


def test_gumbel_blocks_are_bit_identical_to_one_draw():
    # k = 1, exactly one block, and several blocks with a partial last one,
    # with a category that can never win
    p = np.array([0.2, 0.0, 0.35, 0.05, 0.4])
    for n in (2, 3, 4, 10):
        step = GUMBEL_BLOCK // (p.size * n)
        for k in (1, step, 3 * step + 7):
            ref_rng, rng = np.random.default_rng(k), np.random.default_rng(k)
            ref = _gumbel_one_shot(k, n, p, ref_rng)
            cats = _gumbel_categories_batch(k, n, p, rng)
            assert cats.shape == (k, n) and np.array_equal(cats, ref), (n, k)
            assert cats.flags.c_contiguous and np.all(cats != 1)
            # the blocks leave the stream where the one draw does
            assert np.array_equal(rng.random(4), ref_rng.random(4)), (n, k)


def test_draws_given_keep_form_the_leading_samples_of_the_whole_draw():
    # keep forms fewer samples from the whole draw's stream: the kept columns
    # are its leading ones bit for bit, and the generator ends where it does.
    # C = 5 has M = 10 orderings, so the inverse-CDF draws cover k < M and
    # k >= M; the Gumbel draw spans several blocks with a partial last one
    p = np.array([0.2, 0.0, 0.35, 0.05, 0.4])
    for n in (2, 3, 4, 10):
        step = GUMBEL_BLOCK // (p.size * n)
        draws = [(_inverse_cdf_categories_batch, 7), (_inverse_cdf_categories_batch, 300),
                 (_gumbel_categories_batch, 2 * step + 7),
                 (carms.experiments._iid_categories, 300)]
        for draw, k in draws:
            for keep in range(1, n + 1):
                ref_rng, rng = np.random.default_rng(k), np.random.default_rng(k)
                whole, kept = draw(k, n, p, ref_rng), draw(k, n, p, rng, keep=keep)
                assert kept.shape == (k, keep), (draw.__name__, n, k, keep)
                assert np.array_equal(kept, whole[:, :keep]), (draw.__name__, n, k, keep)
                assert np.array_equal(rng.random(4), ref_rng.random(4))


def test_copula_draw_given_keep_forms_the_leading_coordinates():
    # with and without work arrays, which keep fills only in part
    k = 257
    for n in (2, 3, 4, 10):
        for keep in range(1, n + 1):
            ref_rng, rng, work_rng = (np.random.default_rng(n) for _ in range(3))
            whole = _sample_dirichlet_copula_batch(k, n, ref_rng)
            work = np.full((2, k * n), np.nan)
            for u in (_sample_dirichlet_copula_batch(k, n, rng, keep=keep),
                      _sample_dirichlet_copula_batch(k, n, work_rng, work, keep=keep)):
                assert u.shape == (k, keep) and u.T.flags.c_contiguous, (n, keep)
                assert np.array_equal(u.view(np.int64), whole[:, :keep].view(np.int64))
            assert np.shares_memory(u, work[1])
            ahead = ref_rng.random(4)
            for gen in (rng, work_rng):
                assert np.array_equal(gen.random(4), ahead), (n, keep)


# sha256 (first 16 hex digits) of the int64 categories of both batched draws
# at p ~ Dirichlet(1) (seed C), seed 1000 C + N and k = 2 blocks + 7 draws,
# as drawn with np.power(u, N - 1) in the copula: the uniforms' last bits
# move at N >= 4 with the power by repeated squaring, and no category does
PINNED_CATEGORIES = {
    ("gumbel", 8, 2): "5007161830fa6f27", ("inverse-cdf", 8, 2): "7e82643cb1f0a9eb",
    ("gumbel", 8, 3): "9e90bcd22d9a37c0", ("inverse-cdf", 8, 3): "e8d6176a2ca421fa",
    ("gumbel", 8, 4): "ea34d7f2276f8859", ("inverse-cdf", 8, 4): "63a52a8baa88e592",
    ("gumbel", 8, 10): "839c518bda35e5f4", ("inverse-cdf", 8, 10): "29f6f0f0e07a8c28",
    ("gumbel", 30, 2): "a6c650e232af4e58", ("inverse-cdf", 30, 2): "bb0563b512cf1212",
    ("gumbel", 30, 3): "b09a2e366ee3ba2b", ("inverse-cdf", 30, 3): "11239d3fa56a423d",
    ("gumbel", 30, 4): "434a28fa271f8d80", ("inverse-cdf", 30, 4): "18cf17d38b970313",
    ("gumbel", 30, 10): "5627aa99ea136b54", ("inverse-cdf", 30, 10): "dae6fb4c6d735ba7",
}


@pytest.mark.parametrize("method, c, n", sorted(PINNED_CATEGORIES))
def test_batched_categories_are_pinned(method, c, n):
    p = np.random.default_rng(c).dirichlet(np.ones(c))
    k = 2 * (GUMBEL_BLOCK // (c * n)) + 7
    rng = np.random.default_rng(1000 * c + n)
    if method == "gumbel":
        cats = _gumbel_categories_batch(k, n, p, rng)
    else:
        cats = _inverse_cdf_categories_batch(k, n, p, rng)
    digest = hashlib.sha256(cats.astype(np.int64).tobytes()).hexdigest()[:16]
    assert digest == PINNED_CATEGORIES[method, c, n]


# sha256 (first 16 hex digits) of the one-hot samples, ratios and clip flag of
# 100 single draws at C = 6, N = 4 and a ceiling of 0.5, which engages in
# 92-96 of them, as drawn when each sampler spelled out its own body; the
# case ids name the copula
PINNED_SINGLE_DRAWS = {
    "inverse-cdf": "7d37f7f23325b101",
    "gumbel": "72332be0f3478dc9",
}


@pytest.mark.parametrize("method", sorted(PINNED_SINGLE_DRAWS), ids="{}-dirichlet".format)
def test_single_draws_are_pinned(method):
    p = np.random.default_rng(6).dirichlet(np.full(6, 0.3))
    rng, h = np.random.default_rng(61), hashlib.sha256()
    for _ in range(100):
        if method == "inverse-cdf":
            z, r = sample_antithetic_inverse_cdf(4, p, rng, clip=0.5)
        else:
            z, r = sample_antithetic_gumbel(4, p, rng, clip=0.5)
        for part in (z, r.ratios, np.array([r.clipped])):
            h.update(part.tobytes())
    assert h.hexdigest()[:16] == PINNED_SINGLE_DRAWS[method]


def test_gumbel_batch_reuses_its_block_arrays():
    # C = 30, N = 4: 546 draws a block; the two block arrays (1 MiB) and the
    # (k, N) output (0.3 MiB) are the call's peak.  Fresh arrays for every
    # block, as once drawn, peaked at 2491 KiB
    p, rng = np.full(30, 1.0 / 30), np.random.default_rng(27)
    _gumbel_categories_batch(10, 4, p, rng)
    peak = _peak_mib(lambda: _gumbel_categories_batch(10_000, 4, p, rng))
    assert peak * 1024 < 1700, peak * 1024


def test_gumbel_single_category_draw_builds_no_law(monkeypatch):
    # samples that all land in one category realize no off-diagonal pair:
    # no quadrature runs, and every entry holds 0
    def kernel(*args):
        raise AssertionError("the pair-law kernel ran")

    monkeypatch.setattr(carms.sampling, "_gumbel_pair_offdiag", kernel)
    p = np.array([1.0 - 7e-4] + [1e-4] * 7)
    rng = np.random.default_rng(72)
    for clip in (10.0, None):
        for _ in range(20):
            z, r = sample_antithetic_gumbel(4, p, rng, clip=clip)
            assert np.all(z[:, 0] == 1.0)
            assert np.array_equal(r.ratios, np.zeros((8, 8))) and r.clipped is False


def test_inverse_cdf_single_category_draw_builds_no_law(monkeypatch):
    # as for the Gumbel draw: no off-diagonal pair, no pair-law entries, and
    # the categories are those of the batched draw on the same stream
    def entries(*args):
        raise AssertionError("the pair-law entries were built")

    monkeypatch.setattr(carms.sampling, "bivariate_pmf_entries", entries)
    p = np.array([1.0 - 7e-4] + [1e-4] * 7)
    for clip in (None, 10.0):
        rng, ref_rng = np.random.default_rng(74), np.random.default_rng(74)
        for _ in range(20):
            z, r = sample_antithetic_inverse_cdf(4, p, rng, clip=clip)
            assert np.all(z[:, 0] == 1.0)
            cats = _inverse_cdf_categories_batch(1, 4, p, ref_rng)[0]
            assert np.array_equal(z.argmax(axis=1), cats)
            ref = _realized_ratios(p, np.zeros((8, 8)), clip)
            assert np.array_equal(r.ratios, ref.ratios) and r.clipped == ref.clipped


def test_n2_mirror_single_draw_builds_its_pair_bit_for_bit():
    # the one realized pair of an N = 2 mirror draw, against the same pair
    # read from the full C x C block that the batched path builds
    rng = np.random.default_rng(73)
    pairs = 0
    for c in (3, 8, 30):
        p = _simplex(rng, c)
        full = _gumbel_pair_offdiag_antithetic(p, GUMBEL_NODES, np.arange(c))
        full = 0.5 * (full + full.T)
        for _ in range(4):
            z, r = sample_antithetic_gumbel(2, p, rng)
            i, j = np.argmax(z, axis=1)
            law = np.zeros((c, c))
            if i != j:
                law[i, j], law[j, i] = full[i, j], full[j, i]
                pairs += 1
            assert np.array_equal(r.ratios, _realized_ratios(p, law, 10.0).ratios)
    assert pairs >= 8


def test_n2_mirror_single_draw_memory_does_not_grow_with_categories():
    # the windows are formed one at a time and only the realized pair's
    # products are kept: 455 and 462 KiB, where (C, G, G) stacks took 1382
    # and 4908 KiB at C = 8 and 30
    rng = np.random.default_rng(74)
    peaks = []
    for c in (8, 30):
        p = _simplex(rng, c, 10.0)
        cats = np.array([1, c - 2])
        law = carms.sampling._gumbel_offdiag_law
        law(p, 2, cats=cats)
        peaks.append(_peak_mib(lambda: law(p, 2, cats=cats)))
    assert peaks[1] < 1.1 * peaks[0] and max(peaks) < 0.75, peaks


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
