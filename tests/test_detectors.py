"""Detector tests: exact-recovery and equivalence oracles, ordering
hand-traces, brute-force cross-checks, and statistical behavior."""

import itertools

import numpy as np
import pytest

from mbdf.detectors import (
    DetectionResult,
    DetectorConfig,
    build_branches,
    detect_mb_mmse_df,
    detect_ml,
    fixed_orderings,
    multi_stage,
    order_optimal,
    order_suboptimal,
)
from mbdf.filters import (
    FilterBank,
    branch_mmse,
    design_perfect_feedback,
    make_branch,
    perfect_feedback_stats,
)
from mbdf.sysmodel import (
    ChannelRealization,
    make_constellation,
    modulate,
    rayleigh_channel,
    slice_symbols,
    slice_to_index,
    snr_to_noise_variance,
    transmit_block,
)

QPSK = make_constellation("qpsk")
QAM16 = make_constellation("16qam")


def well_conditioned_channel(n, rng, noise_variance=0.0):
    """Square channel with singular values in [0.8, 1.6]."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    u, _ = np.linalg.qr(a)
    v, _ = np.linalg.qr(b)
    gains = u @ np.diag(np.linspace(0.8, 1.6, n)) @ v.conj().T
    return ChannelRealization(gains, noise_variance)


def random_symbols(constellation, n_t, q, rng):
    bits = rng.integers(0, 2, size=(n_t, q * constellation.bits_per_symbol))
    return modulate(bits, constellation)


def standard_bank(channel, l_count, beta, ordering="fixed", pattern="sic"):
    branches = build_branches(
        channel.n_tx, l_count, beta, ordering=ordering, channel=channel, pattern=pattern
    )
    return design_perfect_feedback(channel, branches, tol=1e-12)


def natural_bank(channel, beta):
    """The linear (beta = 0) and SIC/DF recipe: one natural-order branch."""
    branch = make_branch(channel.n_tx, np.arange(channel.n_tx), beta)
    return design_perfect_feedback(channel, [branch], tol=1e-12)


def reference_sic(r2d, bank, constellation):
    """MMSE-SIC as an independent per-symbol loop over branch 0 of ``bank``:
    seed with feedforward-only slices, then refine in natural order."""
    n_t = bank.w.shape[1]
    q = r2d.shape[1]
    symbols = np.empty((n_t, q), dtype=complex)
    z_all = np.empty((n_t, q), dtype=complex)
    points = constellation.points
    for col in range(q):
        s_work = np.empty(n_t, dtype=complex)
        for j in range(n_t):
            z0 = np.vdot(bank.w[0, j], r2d[:, col])
            s_work[j] = points[int(slice_to_index(np.array([z0]), constellation)[0])]
        for j in range(n_t):
            zj = np.vdot(bank.w[0, j], r2d[:, col]) - np.vdot(bank.f[0, j], s_work)
            s_work[j] = points[int(slice_to_index(np.array([zj]), constellation)[0])]
            symbols[j, col] = s_work[j]
            z_all[j, col] = zj
    return symbols, z_all


# ---------------------------------------------------------------------------
# Exact recovery and ML oracles
# ---------------------------------------------------------------------------

def test_noiseless_exact_recovery_all_detectors():
    rng = np.random.default_rng(11)
    ch = well_conditioned_channel(4, rng, noise_variance=0.0)
    s = random_symbols(QPSK, 4, 64, rng)
    r = ch.gains @ s
    bank = standard_bank(ch, 4, beta=1.0)
    assert np.array_equal(detect_mb_mmse_df(r, bank, QPSK).symbols, s)
    assert np.array_equal(detect_ml(r, ch, QPSK).symbols, s)
    # linear, then SIC/DF, as bank recipes for the same kernel
    assert np.array_equal(detect_mb_mmse_df(r, natural_bank(ch, 0.0), QPSK).symbols, s)
    assert np.array_equal(detect_mb_mmse_df(r, natural_bank(ch, 1.0), QPSK).symbols, s)
    assert np.array_equal(reference_sic(r, bank, QPSK)[0], s)
    assert np.array_equal(multi_stage(r, bank, QPSK, stages=2).symbols, s)


def test_linear_identity_channel_low_noise():
    rng = np.random.default_rng(5)
    ch = ChannelRealization(np.eye(3, dtype=complex), 1e-9)
    branches = build_branches(3, 1, beta=0.0)
    bank = design_perfect_feedback(ch, branches, tol=1e-12)
    s = random_symbols(QPSK, 3, 200, rng)
    r = transmit_block(ch, s, rng)
    out = detect_mb_mmse_df(r, bank, QPSK)
    assert np.array_equal(out.symbols, s)
    # no feedback and one branch: only the feedforward products are charged
    assert (out.op_counts.mults, out.op_counts.adds) == (200 * 3 * 3, 200 * 3 * 2)


def test_ml_matches_independent_enumeration():
    rng = np.random.default_rng(21)
    ch = rayleigh_channel(2, 2, rng, noise_variance=0.3)
    s = random_symbols(QPSK, 2, 50, rng)
    r = transmit_block(ch, s, rng)
    got = detect_ml(r, ch, QPSK).symbols
    # independent oracle: plain python loops over the 16 candidate vectors
    for col in range(50):
        best, best_cost = None, np.inf
        for cand in itertools.product(QPSK.points, repeat=2):
            cand = np.array(cand)
            cost = float(np.sum(np.abs(r[:, col] - ch.gains @ cand) ** 2))
            if cost < best_cost:
                best, best_cost = cand, cost
        assert np.array_equal(got[:, col], best)


def test_ml_vector_call_matches_block_call():
    rng = np.random.default_rng(33)
    ch = rayleigh_channel(3, 2, rng, noise_variance=0.2)
    s = random_symbols(QAM16, 2, 8, rng)
    r = transmit_block(ch, s, rng)
    block = detect_ml(r, ch, QAM16).symbols
    for col in range(8):
        single = detect_ml(r[:, col], ch, QAM16)
        assert single.symbols.shape == (2,)
        assert np.array_equal(single.symbols, block[:, col])


def test_ml_search_space_guard():
    rng = np.random.default_rng(1)
    ch = rayleigh_channel(7, 7, rng, noise_variance=0.1)
    with pytest.raises(ValueError, match="24"):
        detect_ml(np.zeros(7, dtype=complex), ch, QAM16)


# ---------------------------------------------------------------------------
# Baseline equivalences
# ---------------------------------------------------------------------------

def test_sic_equals_mbdf_single_branch():
    rng = np.random.default_rng(7)
    ch = rayleigh_channel(4, 4, rng, noise_variance=0.15)
    branch = make_branch(4, np.arange(4), beta=1.0)
    bank = design_perfect_feedback(ch, branch, tol=1e-12)
    s = random_symbols(QPSK, 4, 1000, rng)
    r = transmit_block(ch, s, rng)
    symbols, z = reference_sic(r, bank, QPSK)
    b = detect_mb_mmse_df(r, bank, QPSK)
    assert np.array_equal(symbols, b.symbols)
    assert np.max(np.abs(z - b.soft_outputs[0])) <= 1e-12
    assert np.all(b.chosen_branch == 0)


def test_linear_equals_mbdf_beta_zero():
    rng = np.random.default_rng(9)
    ch = rayleigh_channel(4, 4, rng, noise_variance=0.2)
    bank = standard_bank(ch, 3, beta=0.0)
    assert np.allclose(bank.f, 0.0)
    s = random_symbols(QAM16, 4, 400, rng)
    r = transmit_block(ch, s, rng)
    # independent one-shot linear MMSE: slice w^H r of the first branch
    linear = slice_symbols(bank.w[0].conj() @ r, QAM16)
    b = detect_mb_mmse_df(r, bank, QAM16)
    assert np.array_equal(linear, b.symbols)
    # no feedback products: feedforward plus the full metric, and joint selection
    assert (b.op_counts.mults, b.op_counts.adds) == (
        400 * 3 * 4 * (4 + 1),
        400 * (3 * 4 * (3 + 1) + 3 * 3),
    )
    # every branch carries the same filter, so selection is a pure tie-break
    assert np.array_equal(b.metrics[1], b.metrics[0])
    assert np.array_equal(b.metrics[2], b.metrics[0])
    assert np.all(b.chosen_branch == 0)


def test_degenerate_identical_branches():
    rng = np.random.default_rng(10)
    ch = rayleigh_channel(4, 4, rng, noise_variance=0.25)
    same = [make_branch(4, np.arange(4), beta=0.65, index=l) for l in range(3)]
    bank3 = design_perfect_feedback(ch, same, tol=1e-12)
    bank1 = FilterBank(bank3.w[:1], bank3.f[:1], bank3.branches[:1])
    s = random_symbols(QPSK, 4, 300, rng)
    r = transmit_block(ch, s, rng)
    a = detect_mb_mmse_df(r, bank3, QPSK)
    b = detect_mb_mmse_df(r, bank1, QPSK)
    assert np.array_equal(a.symbols, b.symbols)


# ---------------------------------------------------------------------------
# Selection invariants
# ---------------------------------------------------------------------------

def test_selection_dominance_membership_and_range():
    rng = np.random.default_rng(12)
    ch = rayleigh_channel(4, 4, rng, noise_variance=0.3)
    bank = standard_bank(ch, 4, beta=0.65)
    s = random_symbols(QAM16, 4, 200, rng)
    r = transmit_block(ch, s, rng)
    # per-stream winners dominate branch-wise for every stream separately
    out = detect_mb_mmse_df(r, bank, QAM16, selection="per_stream")
    selected = np.take_along_axis(out.metrics, out.chosen_branch[None], axis=0)[0]
    assert np.all(selected <= out.metrics.min(axis=0) + 1e-15)
    assert np.all((out.chosen_branch >= 0) & (out.chosen_branch < 4))
    dist = np.abs(out.symbols[..., None] - QAM16.points)
    assert np.all(dist.min(axis=-1) == 0.0)
    # the joint winner minimizes the stream-summed metric and every stream
    # reports the same branch index
    out_j = detect_mb_mmse_df(r, bank, QAM16, selection="joint")
    assert np.all(out_j.chosen_branch == out_j.chosen_branch[0])
    sums = out_j.metrics.sum(axis=1)
    picked = np.take_along_axis(sums, out_j.chosen_branch[:1], axis=0)[0]
    assert np.all(picked <= sums.min(axis=0) + 1e-12)
    dist_j = np.abs(out_j.symbols[..., None] - QAM16.points)
    assert np.all(dist_j.min(axis=-1) == 0.0)


def test_adding_branch_never_hurts_selected_metric():
    rng = np.random.default_rng(13)
    ch = rayleigh_channel(4, 4, rng, noise_variance=0.3)
    branches = build_branches(4, 3, beta=0.65)
    bank3 = design_perfect_feedback(ch, branches, tol=1e-12)
    bank2 = FilterBank(bank3.w[:2], bank3.f[:2], bank3.branches[:2])
    s = random_symbols(QPSK, 4, 300, rng)
    r = transmit_block(ch, s, rng)
    m2 = detect_mb_mmse_df(r, bank2, QPSK).metrics.min(axis=0)
    m3 = detect_mb_mmse_df(r, bank3, QPSK).metrics.min(axis=0)
    assert np.all(m3 <= m2 + 1e-12)


def test_full_metric_is_slicer_residual():
    rng = np.random.default_rng(14)
    ch = rayleigh_channel(4, 4, rng, noise_variance=0.2)
    bank = standard_bank(ch, 2, beta=0.65)
    s = random_symbols(QPSK, 4, 50, rng)
    r = transmit_block(ch, s, rng)
    out = detect_mb_mmse_df(r, bank, QPSK, metric="full")
    # z is stored per branch; the metric must be |Q(z) - z|^2 elementwise
    for l in range(2):
        resid = np.abs(slice_symbols(out.soft_outputs[l], QPSK) - out.soft_outputs[l]) ** 2
        assert np.allclose(out.metrics[l], resid, atol=1e-12)


# ---------------------------------------------------------------------------
# Configuration and errors
# ---------------------------------------------------------------------------

def test_detector_config_validation():
    DetectorConfig(kind="mbdf", branches=4, stages=2)
    with pytest.raises(ValueError, match="kind"):
        DetectorConfig(kind="zf")
    with pytest.raises(ValueError, match="branch"):
        DetectorConfig(branches=0)
    with pytest.raises(ValueError, match="stage"):
        DetectorConfig(stages=0)
    with pytest.raises(ValueError, match="single-branch"):
        DetectorConfig(kind="sic", branches=2)
    with pytest.raises(ValueError, match="ordering"):
        DetectorConfig(ordering="random")
    with pytest.raises(ValueError, match="beta"):
        DetectorConfig(beta=1.5)


def test_mismatched_input_raises():
    rng = np.random.default_rng(15)
    ch = rayleigh_channel(4, 4, rng, noise_variance=0.1)
    bank = standard_bank(ch, 2, beta=0.5)
    with pytest.raises(ValueError, match="length"):
        detect_mb_mmse_df(np.zeros(5, dtype=complex), bank, QPSK)
    with pytest.raises(ValueError, match="metric"):
        detect_mb_mmse_df(np.zeros(4, dtype=complex), bank, QPSK, metric="fancy")


# ---------------------------------------------------------------------------
# Orderings
# ---------------------------------------------------------------------------

def test_fixed_orderings_family():
    fam = fixed_orderings(4, 8)
    assert len(fam) == 8
    assert np.array_equal(fam[0], [0, 1, 2, 3])
    assert np.array_equal(fam[4], [3, 2, 1, 0])
    keys = {tuple(o) for o in fam}
    assert len(keys) == 8
    assert fixed_orderings(2, 2) and np.array_equal(fixed_orderings(2, 2)[1], [1, 0])
    with pytest.raises(ValueError, match="distinct"):
        fixed_orderings(2, 3)


def test_suboptimal_hand_trace():
    orders = order_suboptimal([0.1, 0.4, 0.2], 1)
    assert np.array_equal(orders[0], [0, 2, 1])


def test_suboptimal_all_equal_gives_identity():
    orders = order_suboptimal([0.3, 0.3, 0.3, 0.3], 1)
    assert np.array_equal(orders[0], [0, 1, 2, 3])


def test_suboptimal_orderings_distinct_permutations():
    rng = np.random.default_rng(16)
    mmse = rng.uniform(0.05, 0.9, size=4)
    orders = order_suboptimal(mmse, 6)
    assert len(orders) == 6
    for o in orders:
        assert sorted(o.tolist()) == [0, 1, 2, 3]
    keys = {tuple(o.tolist()) for o in orders}
    assert len(keys) == 6


def test_suboptimal_second_branch_starts_at_worst_stream():
    mmse = np.array([0.1, 0.4, 0.2])
    orders = order_suboptimal(mmse, 2)
    assert orders[1][0] == 1  # stream with the largest MMSE leads branch 2


def test_order_optimal_two_streams_matches_bruteforce():
    rng = np.random.default_rng(17)
    ch = rayleigh_channel(3, 2, rng, noise_variance=0.2)
    stats = perfect_feedback_stats(ch)
    sums = {}
    for perm in itertools.permutations(range(2)):
        spec = make_branch(2, perm, beta=0.65)
        sums[perm] = float(np.sum(branch_mmse(stats, spec)))
    expected = sorted(sums, key=lambda p: (sums[p], p))
    got = order_optimal(ch, 2, beta=0.65)
    assert [tuple(b.ordering.tolist()) for b in got] == expected


def test_order_optimal_joint_matches_greedy():
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        ch = rayleigh_channel(3, 3, rng, noise_variance=0.3)
        greedy = order_optimal(ch, 3, beta=0.65)
        joint = order_optimal(ch, 3, beta=0.65, joint=True)
        assert {tuple(b.ordering.tolist()) for b in greedy} == {
            tuple(b.ordering.tolist()) for b in joint
        }


def test_order_optimal_guards():
    rng = np.random.default_rng(18)
    with pytest.raises(ValueError, match="5"):
        order_optimal(rayleigh_channel(6, 6, rng, noise_variance=0.1), 2)
    with pytest.raises(ValueError, match="distinct"):
        order_optimal(rayleigh_channel(2, 2, rng, noise_variance=0.1), 3)
    with pytest.raises(ValueError, match="joint"):
        order_optimal(rayleigh_channel(4, 4, rng, noise_variance=0.1), 2, joint=True)


def test_order_optimal_single_stream():
    rng = np.random.default_rng(19)
    ch = rayleigh_channel(2, 1, rng, noise_variance=0.1)
    specs = order_optimal(ch, 1)
    assert len(specs) == 1 and np.array_equal(specs[0].ordering, [0])


def test_build_branches_requires_channel_for_channel_aware_orderings():
    with pytest.raises(ValueError, match="channel"):
        build_branches(4, 2, beta=0.65, ordering="optimal")
    with pytest.raises(ValueError, match="channel"):
        build_branches(4, 2, beta=0.65, ordering="suboptimal")


# ---------------------------------------------------------------------------
# Multi-stage
# ---------------------------------------------------------------------------

def test_single_stage_identical_to_plain_detector():
    rng = np.random.default_rng(20)
    ch = rayleigh_channel(4, 4, rng, noise_variance=0.25)
    bank = standard_bank(ch, 4, beta=0.65)
    s = random_symbols(QPSK, 4, 100, rng)
    r = transmit_block(ch, s, rng)
    for sel in ("per_stream", "joint"):
        a = multi_stage(r, bank, QPSK, stages=1, selection=sel)
        b = detect_mb_mmse_df(r, bank, QPSK, selection=sel)
        assert np.array_equal(a.symbols, b.symbols)
        assert np.array_equal(a.metrics, b.metrics)


def test_multi_stage_stage_guard():
    rng = np.random.default_rng(22)
    ch = rayleigh_channel(2, 2, rng, noise_variance=0.1)
    bank = standard_bank(ch, 2, beta=0.65)
    with pytest.raises(ValueError, match="stage"):
        multi_stage(np.zeros(2, dtype=complex), bank, QPSK, stages=0)


@pytest.mark.slow
def test_multi_stage_error_trend():
    # second stage should not degrade error rate beyond statistical noise,
    # and a third stage adds at most a marginal change
    rng = np.random.default_rng(23)
    errs = np.zeros(3)
    total = 0
    for _ in range(6):
        ch = rayleigh_channel(
            4, 4, rng, noise_variance=snr_to_noise_variance(12.0, 4, 2)
        )
        bank = standard_bank(ch, 4, beta=0.65)
        s = random_symbols(QPSK, 4, 2500, rng)
        r = transmit_block(ch, s, rng)
        for k, m in enumerate((1, 2, 3)):
            out = multi_stage(r, bank, QPSK, stages=m)
            errs[k] += np.count_nonzero(out.symbols != s)
        total += s.size
    ser = errs / total
    sigma = np.sqrt(ser[0] * (1 - ser[0]) / total)
    assert ser[1] <= ser[0] + 3 * sigma
    assert abs(ser[2] - ser[1]) <= 5 * sigma + 1e-3


# ---------------------------------------------------------------------------
# Statistical behavior
# ---------------------------------------------------------------------------

def test_mbdf_at_least_as_good_as_linear():
    rng = np.random.default_rng(24)
    noise = snr_to_noise_variance(12.0, 4, 2)
    err_mb = err_lin = total = 0
    for _ in range(5):
        ch = rayleigh_channel(4, 4, rng, noise_variance=noise)
        bank = standard_bank(ch, 4, beta=0.65)
        lin = natural_bank(ch, 0.0)
        s = random_symbols(QPSK, 4, 2000, rng)
        r = transmit_block(ch, s, rng)
        err_mb += np.count_nonzero(detect_mb_mmse_df(r, bank, QPSK).symbols != s)
        err_lin += np.count_nonzero(detect_mb_mmse_df(r, lin, QPSK).symbols != s)
        total += s.size
    sigma = np.sqrt(max(err_lin, 1)) / total
    assert err_mb / total <= err_lin / total + 3 * sigma


def test_near_ml_agreement_three_streams():
    # all 3! orderings as branches, full feedback, exhaustive-search reference;
    # joint selection with the exact instantaneous metric keeps whole branch
    # vectors, which is what makes the ensemble track the exhaustive search
    rng = np.random.default_rng(25)
    noise = snr_to_noise_variance(12.0, 3, 2)
    agree = total = 0
    for _ in range(10):
        ch = rayleigh_channel(3, 3, rng, noise_variance=noise)
        bank = design_perfect_feedback(ch, order_optimal(ch, 6, beta=1.0), tol=1e-12)
        s = random_symbols(QPSK, 3, 2500, rng)
        r = transmit_block(ch, s, rng)
        mb = detect_mb_mmse_df(r, bank, QPSK, metric="full", selection="joint").symbols
        ml = detect_ml(r, ch, QPSK).symbols
        agree += np.count_nonzero(np.all(mb == ml, axis=0))
        total += s.shape[1]
    assert agree / total >= 0.99


def test_joint_selection_keeps_whole_branch_vectors():
    rng = np.random.default_rng(31)
    ch = rayleigh_channel(4, 4, rng, noise_variance=0.2)
    bank = standard_bank(ch, 4, beta=0.65)
    s = random_symbols(QPSK, 4, 300, rng)
    r = transmit_block(ch, s, rng)
    res = detect_mb_mmse_df(r, bank, QPSK, metric="full", selection="joint")
    # one branch per column, shared by all streams
    assert np.all(res.chosen_branch == res.chosen_branch[0])
    # the winning branch minimizes the summed metric
    sums = res.metrics.sum(axis=1)
    assert np.array_equal(res.chosen_branch[0], np.argmin(sums, axis=0))
    # and the output is that branch's vector, not a mix
    with pytest.raises(ValueError):
        detect_mb_mmse_df(r, bank, QPSK, selection="branchwise")


def test_reduced_and_full_metric_selections_mostly_agree():
    rng = np.random.default_rng(26)
    noise = snr_to_noise_variance(12.0, 4, 2)
    same = total = 0
    for _ in range(5):
        ch = rayleigh_channel(4, 4, rng, noise_variance=noise)
        bank = standard_bank(ch, 4, beta=0.65)
        s = random_symbols(QPSK, 4, 2000, rng)
        r = transmit_block(ch, s, rng)
        a = detect_mb_mmse_df(r, bank, QPSK, metric="reduced")
        b = detect_mb_mmse_df(r, bank, QPSK, metric="full")
        same += np.count_nonzero(a.symbols == b.symbols)
        total += s.size
    assert same / total >= 0.95


def test_op_counts_scale_linearly_in_branches_and_block():
    rng = np.random.default_rng(27)
    ch = rayleigh_channel(4, 4, rng, noise_variance=0.2)
    bank4 = standard_bank(ch, 4, beta=0.65)
    bank2 = FilterBank(bank4.w[:2], bank4.f[:2], bank4.branches[:2])
    s = random_symbols(QPSK, 4, 100, rng)
    r = transmit_block(ch, s, rng)
    c4 = detect_mb_mmse_df(r, bank4, QPSK).op_counts
    c2 = detect_mb_mmse_df(r, bank2, QPSK).op_counts
    assert c4.mults == 2 * c2.mults and c4.adds == 2 * c2.adds
    half = detect_mb_mmse_df(r[:, :50], bank4, QPSK).op_counts
    assert c4.mults == 2 * half.mults
    assert c4.mults > 0 and c4.adds > 0


def test_op_counts_pinned_to_the_per_branch_sweep():
    # the stacked sweep must charge exactly what the per-branch loop did:
    # the bench's mults_per_vector is read from these counts
    rng = np.random.default_rng(2222)
    ch = rayleigh_channel(4, 4, rng, noise_variance=snr_to_noise_variance(12.0, 4, 2))
    bank = standard_bank(ch, 4, beta=1.0)
    r = transmit_block(ch, random_symbols(QPSK, 4, 500, rng), rng)
    expected = {
        ("full", "joint"): (72000, 70000),
        ("full", "per_stream"): (72000, 64000),
        ("reduced", "joint"): (88000, 86000),
        ("reduced", "per_stream"): (88000, 80000),
    }
    for (metric, selection), counts in expected.items():
        c = detect_mb_mmse_df(r, bank, QPSK, metric=metric, selection=selection).op_counts
        assert (c.mults, c.adds) == counts, (metric, selection)
    # one branch of the bank (DF): nothing to select, no metric charged
    one = FilterBank(bank.w[:1], bank.f[:1], bank.branches[:1])
    c = detect_mb_mmse_df(r, one, QPSK).op_counts
    assert (c.mults, c.adds) == (16000, 14000)


# ---------------------------------------------------------------------------
# Stacked sweep against the per-branch loop
# ---------------------------------------------------------------------------

def reference_mb_mmse_df(
    r2d, bank, constellation, metric, initial_decisions, reverse_sweep, selection
):
    """Branch by branch, stream by stream: the loop the stacked sweep replaced."""
    points = constellation.points
    n_br, n_t, _ = bank.w.shape
    q = r2d.shape[1]
    cands = np.empty((n_br, n_t, q), dtype=complex)
    zs = np.empty((n_br, n_t, q), dtype=complex)
    mets = np.empty((n_br, n_t, q))
    for l, br in enumerate(bank.branches):
        z_ff = bank.w[l].conj() @ r2d
        if initial_decisions is not None:
            s_work = np.broadcast_to(initial_decisions, (n_t, q)).astype(complex)
        else:
            s_work = points[slice_to_index(z_ff, constellation)]
        for j in br.ordering[::-1] if reverse_sweep else br.ordering:
            fb = bank.f[l, j].conj() @ s_work
            zj = z_ff[j] - fb
            s_work[j] = points[slice_to_index(zj, constellation)]
            zs[l, j] = zj
            if metric == "reduced":
                mets[l, j] = np.abs(s_work[j]) ** 2 - np.abs(zj + fb) ** 2 + np.abs(fb) ** 2
            else:
                mets[l, j] = np.abs(s_work[j] - zj) ** 2
        cands[l] = s_work
    if selection == "joint":
        chosen = np.broadcast_to(np.argmin(mets.sum(axis=1), axis=0), (n_t, q))
    else:
        chosen = np.argmin(mets, axis=0)
    symbols = np.take_along_axis(cands, chosen[None], axis=0)[0]
    return symbols, chosen, zs, mets


def sweep_mode_inputs(mode, constellation, q, rng):
    """Initial decisions and bank beta of one sweep-test mode: a random seed,
    an all-zero seed (only already-swept streams feed back), or a bank
    without feedback, whose seed must not matter."""
    if mode in ("initial", "no_feedback"):
        init = random_symbols(constellation, 4, q, rng)
    elif mode == "zero_seed":
        init = np.zeros((4, q), dtype=complex)
    else:
        init = None
    return init, 0.0 if mode == "no_feedback" else 0.65


SWEEP_MODES = ["plain", "reverse", "initial", "zero_seed", "no_feedback"]


@pytest.mark.parametrize(
    "constellation, snr_db", [(QPSK, 8.0), (QAM16, 14.0)], ids=["qpsk", "16qam"]
)
@pytest.mark.parametrize("mode", SWEEP_MODES)
def test_stacked_sweep_matches_per_branch_loop(constellation, snr_db, mode):
    rng = np.random.default_rng(4242)
    noise = snr_to_noise_variance(snr_db, 4, constellation.bits_per_symbol)
    ch = rayleigh_channel(4, 4, rng, noise_variance=noise)
    for q in (1, 7):
        r = transmit_block(ch, random_symbols(constellation, 4, q, rng), rng)
        init, beta = sweep_mode_inputs(mode, constellation, q, rng)
        bank = standard_bank(ch, 4, beta=beta)
        kw = dict(initial_decisions=init, reverse_sweep=mode == "reverse")
        for metric in ("full", "reduced"):
            for selection in ("joint", "per_stream"):
                ref = reference_mb_mmse_df(
                    r, bank, constellation, metric=metric, selection=selection, **kw
                )
                # q=1 goes through the single-vector path
                got = detect_mb_mmse_df(
                    r[:, 0] if q == 1 else r, bank, constellation,
                    metric=metric, selection=selection, **kw,
                )
                shape = (4,) if q == 1 else (4, q)
                assert np.array_equal(got.symbols, ref[0].reshape(shape))
                assert np.array_equal(got.chosen_branch, ref[1].reshape(shape))
                assert np.max(np.abs(got.soft_outputs - ref[2].reshape(4, *shape))) <= 1e-12
                assert np.max(np.abs(got.metrics - ref[3].reshape(4, *shape))) <= 1e-12


def test_single_vector_accepts_flat_initial_decisions():
    rng = np.random.default_rng(4747)
    ch = rayleigh_channel(4, 4, rng, noise_variance=snr_to_noise_variance(10.0, 4, 2))
    bank = standard_bank(ch, 4, beta=0.65)
    r = transmit_block(ch, random_symbols(QPSK, 4, 1, rng), rng)[:, 0]
    init = random_symbols(QPSK, 4, 1, rng)
    for reverse in (False, True):
        kw = dict(reverse_sweep=reverse)
        flat = detect_mb_mmse_df(r, bank, QPSK, initial_decisions=init[:, 0], **kw)
        col = detect_mb_mmse_df(r, bank, QPSK, initial_decisions=init, **kw)
        assert flat.symbols.shape == (4,)
        assert np.array_equal(flat.symbols, col.symbols)
        assert np.array_equal(flat.soft_outputs, col.soft_outputs)
        assert np.array_equal(flat.metrics, col.metrics)


def test_df_sweep_matches_per_branch_loop():
    rng = np.random.default_rng(4343)
    ch = rayleigh_channel(4, 4, rng, noise_variance=snr_to_noise_variance(10.0, 4, 4))
    bank = standard_bank(ch, 3, beta=0.65)
    r = transmit_block(ch, random_symbols(QAM16, 4, 9, rng), rng)
    for l in range(3):
        one = FilterBank(bank.w[l : l + 1], bank.f[l : l + 1], bank.branches[l : l + 1])
        ref = reference_mb_mmse_df(r, one, QAM16, "full", None, False, "joint")
        got = detect_mb_mmse_df(r, one, QAM16)
        assert np.array_equal(got.symbols, ref[0])
        assert np.all(got.chosen_branch == 0)
        assert np.max(np.abs(got.soft_outputs - ref[2])) <= 1e-12
        assert np.max(np.abs(got.metrics - ref[3])) <= 1e-12
        # feedforward and feedback products only
        assert (got.op_counts.mults, got.op_counts.adds) == (9 * 4 * 8, 9 * 4 * 7)


# ---------------------------------------------------------------------------
# Per-column banks against one call per column
# ---------------------------------------------------------------------------

def per_column_case(constellation, snr_db, q, rng, beta=0.65):
    """q channels, one column received over each, and the bank of each."""
    noise = snr_to_noise_variance(snr_db, 4, constellation.bits_per_symbol)
    branches = build_branches(4, 4, beta)
    banks, cols = [], []
    for _ in range(q):
        ch = rayleigh_channel(4, 4, rng, noise_variance=noise)
        banks.append(design_perfect_feedback(ch, branches, tol=1e-12))
        cols.append(transmit_block(ch, random_symbols(constellation, 4, 1, rng), rng))
    bank = FilterBank(
        np.stack([b.w for b in banks]), np.stack([b.f for b in banks]), branches
    )
    return np.hstack(cols), bank


@pytest.mark.parametrize(
    "constellation, snr_db", [(QPSK, 8.0), (QAM16, 14.0)], ids=["qpsk", "16qam"]
)
@pytest.mark.parametrize("mode", SWEEP_MODES)
def test_per_column_bank_matches_one_call_per_column(constellation, snr_db, mode):
    rng = np.random.default_rng(4545)
    q = 7
    init, beta = sweep_mode_inputs(mode, constellation, q, rng)
    r, bank = per_column_case(constellation, snr_db, q, rng, beta)
    kw = dict(reverse_sweep=mode == "reverse")
    for metric in ("full", "reduced"):
        for selection in ("joint", "per_stream"):
            got = detect_mb_mmse_df(
                r, bank, constellation, metric=metric, selection=selection,
                initial_decisions=init, **kw,
            )
            mults = adds = 0
            for c in range(q):
                one = detect_mb_mmse_df(
                    r[:, c], FilterBank(bank.w[c], bank.f[c], bank.branches),
                    constellation, metric=metric, selection=selection,
                    initial_decisions=None if init is None else init[:, c : c + 1], **kw,
                )
                assert np.array_equal(got.symbols[:, c], one.symbols)
                assert np.array_equal(got.chosen_branch[:, c], one.chosen_branch)
                assert np.max(np.abs(got.soft_outputs[..., c] - one.soft_outputs)) <= 1e-12
                assert np.max(np.abs(got.metrics[..., c] - one.metrics)) <= 1e-12
                mults += one.op_counts.mults
                adds += one.op_counts.adds
            assert (got.op_counts.mults, got.op_counts.adds) == (mults, adds)


def test_per_column_bank_of_equal_columns_matches_shared_bank():
    rng = np.random.default_rng(4646)
    ch = rayleigh_channel(4, 4, rng, noise_variance=snr_to_noise_variance(10.0, 4, 2))
    bank = standard_bank(ch, 4, beta=0.65)
    for q in (1, 9):
        r = transmit_block(ch, random_symbols(QPSK, 4, q, rng), rng)
        same = FilterBank(
            np.broadcast_to(bank.w, (q,) + bank.w.shape),
            np.broadcast_to(bank.f, (q,) + bank.f.shape),
            bank.branches,
        )
        # q=1 goes through the single-vector path
        x = r[:, 0] if q == 1 else r
        for metric in ("full", "reduced"):
            for selection in ("joint", "per_stream"):
                a = detect_mb_mmse_df(x, bank, QPSK, metric=metric, selection=selection)
                b = detect_mb_mmse_df(x, same, QPSK, metric=metric, selection=selection)
                assert np.array_equal(a.symbols, b.symbols)
                assert np.array_equal(a.chosen_branch, b.chosen_branch)
                assert np.max(np.abs(a.soft_outputs - b.soft_outputs)) <= 1e-12
                assert np.max(np.abs(a.metrics - b.metrics)) <= 1e-12
                assert (a.op_counts.mults, a.op_counts.adds) == (
                    b.op_counts.mults, b.op_counts.adds
                )
    with pytest.raises(ValueError, match="columns"):
        detect_mb_mmse_df(r[:, :5], same, QPSK)
