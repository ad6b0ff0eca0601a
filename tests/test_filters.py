"""Filter-design tests: tap masks, design routes, error measures."""

import itertools

import numpy as np
import pytest

from mbdf.filters import (
    BranchSpec,
    branch_mmse,
    design_closed_form,
    design_perfect_feedback,
    design_soft_feedback,
    design_statistical,
    make_branch,
    mmse_linear,
    mmse_value,
    mse_objective,
    perfect_feedback_stats,
)
from mbdf.sysmodel import ChannelRealization, rayleigh_channel


def _stats(seed, n_rx=4, n_tx=4, noise=0.1):
    rng = np.random.default_rng(seed)
    return perfect_feedback_stats(rayleigh_channel(n_rx, n_tx, rng, noise))


def _cyclic_branches(n_t, n_branches, beta):
    return [
        make_branch(n_t, np.roll(np.arange(n_t), -l), beta, index=l)
        for l in range(n_branches)
    ]


# ---------------------------------------------------------------------------
# Tap masks
# ---------------------------------------------------------------------------

def test_masks_free_exactly_the_earlier_streams():
    for n_t in range(1, 6):
        for order in itertools.permutations(range(n_t)):
            mask = make_branch(n_t, order, beta=0.5).mask
            assert mask.dtype == bool and mask.shape == (n_t, n_t)
            for pos, s in enumerate(order):
                assert set(np.flatnonzero(mask[s])) == set(order[:pos])


def test_shape_constraint_validation():
    # malformed tap masks are rejected when the branch is built
    with pytest.raises(ValueError, match="square"):
        BranchSpec(0, [0, 1], np.zeros((2, 3), dtype=bool), 0.5)
    with pytest.raises(ValueError, match="square"):
        BranchSpec(0, [0, 1], np.zeros(2, dtype=bool), 0.5)
    with pytest.raises(ValueError, match="boolean"):
        BranchSpec(0, [0, 1], np.zeros((2, 2)), 0.5)
    with pytest.raises(ValueError, match="permutation"):
        BranchSpec(0, [0, 1, 2], np.zeros((2, 2), dtype=bool), 0.5)


def test_sic_shapes_own_rule():
    # no stream may feed back its own decision, whatever the ordering
    for n_t in range(1, 6):
        for order in itertools.permutations(range(n_t)):
            mask = make_branch(n_t, order, beta=0.5).mask
            assert not np.any(np.diagonal(mask))
    # the first-detected stream has no free tap at all
    assert not np.any(make_branch(2, [1, 0], beta=0.5).mask[1])
    with pytest.raises(ValueError, match="own"):
        BranchSpec(0, [0, 1], np.eye(2, dtype=bool), 0.5)
    with pytest.raises(ValueError, match="own"):
        BranchSpec(0, [0, 1], np.array([[False, False], [True, True]]), 0.5)


def test_pic_shapes():
    # parallel cancellation frees every tap but the stream's own
    assert np.array_equal(
        make_branch(2, [0, 1], 0.5, pattern="pic").mask,
        np.array([[False, True], [True, False]]),
    )
    for n_t in range(1, 6):
        for order in (np.arange(n_t), np.arange(n_t)[::-1]):
            assert np.array_equal(
                make_branch(n_t, order, 0.5, pattern="pic").mask,
                ~np.eye(n_t, dtype=bool),
            )


def test_cyclic_branches_have_distinct_masks():
    branches = _cyclic_branches(4, 4, beta=0.65)
    keys = {br.mask.tobytes() for br in branches}
    assert len(keys) == 4


def test_make_branch_validation():
    with pytest.raises(ValueError):
        make_branch(4, np.arange(4), beta=1.5)
    with pytest.raises(ValueError):
        make_branch(4, [0, 1, 2, 2], beta=0.5)
    with pytest.raises(ValueError):
        make_branch(4, np.arange(4), beta=0.5, pattern="zf")
    br = make_branch(4, np.arange(4), beta=0.65, pattern="pic")
    assert br.n_streams == 4


# ---------------------------------------------------------------------------
# Design routes
# ---------------------------------------------------------------------------

def test_beta_zero_collapses_to_linear_mmse():
    stats = _stats(0)
    branches = _cyclic_branches(4, 3, beta=0.0)
    w_lin = np.linalg.inv(stats.r_cov) @ stats.p_mat
    for design in (design_statistical, design_closed_form):
        bank = design(stats, branches)
        assert np.all(bank.f == 0)
        for l in range(3):
            assert np.allclose(bank.w[l].T, w_lin, atol=1e-12)


def test_converged_statistical_matches_closed_form():
    worst = 0.0
    for seed in range(20):
        stats = _stats(seed)
        branches = _cyclic_branches(4, 4, beta=0.65)
        exact = design_closed_form(stats, branches)
        iterated = design_statistical(stats, branches, tol=1e-13)
        scale = max(np.max(np.abs(exact.w)), np.max(np.abs(exact.f)))
        err = max(
            np.max(np.abs(exact.w - iterated.w)), np.max(np.abs(exact.f - iterated.f))
        )
        worst = max(worst, err / scale)
    assert worst <= 1e-8


def test_two_sweep_gap_is_real():
    # two alternating sweeps do NOT reach the joint fixed point; the residual
    # is a genuine property of the coupled iteration at beta = 0.65
    stats = _stats(123)
    branches = _cyclic_branches(4, 4, beta=0.65)
    exact = design_closed_form(stats, branches)
    two = design_statistical(stats, branches, iterations=2)
    scale = np.max(np.abs(exact.w))
    gap = np.max(np.abs(exact.w - two.w)) / scale
    assert 1e-6 < gap < 1.0


def test_perfect_feedback_equals_statistical_route():
    rng = np.random.default_rng(9)
    chan = rayleigh_channel(4, 4, rng, noise_variance=0.2)
    branches = _cyclic_branches(4, 4, beta=0.65)
    stats = perfect_feedback_stats(chan)
    for sweeps in (1, 2, 5):
        a = design_perfect_feedback(chan, branches, iterations=sweeps)
        b = design_statistical(stats, branches, iterations=sweeps)
        assert np.max(np.abs(a.w - b.w)) <= 1e-13
        assert np.max(np.abs(a.f - b.f)) <= 1e-13


def test_constraint_residual_all_routes():
    rng = np.random.default_rng(31)
    for seed in range(10):
        chan = rayleigh_channel(4, 4, np.random.default_rng(seed), 0.1)
        stats = perfect_feedback_stats(chan)
        branches = _cyclic_branches(4, 4, beta=rng.uniform(0.2, 1.0))
        banks = [
            design_statistical(stats, branches),
            design_closed_form(stats, branches),
            design_perfect_feedback(chan, branches),
        ]
        for bank in banks:
            for br in branches:
                assert np.all(bank.f[br.index][~br.mask] == 0)


def test_soft_feedback_endpoints_match_oracles():
    worst_full = worst_none = 0.0
    for seed in range(20):
        chan = rayleigh_channel(4, 4, np.random.default_rng(seed), 0.1)
        h = chan.gains
        # fully reliable feedback at beta = 1: the ideal-decision closed form
        full = _cyclic_branches(4, 4, beta=1.0)
        exact = design_closed_form(perfect_feedback_stats(chan), full)
        soft = design_soft_feedback(chan, full, fed_power=1.0)
        scale = max(np.max(np.abs(exact.w)), np.max(np.abs(exact.f)))
        err = max(np.max(np.abs(exact.w - soft.w)), np.max(np.abs(exact.f - soft.f)))
        worst_full = max(worst_full, err / scale)
        # no feedback power: linear MMSE, with f = beta * mask o (H^H w)
        part = _cyclic_branches(4, 4, beta=0.65)
        soft = design_soft_feedback(chan, part, fed_power=0.0)
        w_lin = np.linalg.solve(h @ h.conj().T + chan.noise_variance * np.eye(4), h)
        for br in part:
            f_lin = br.beta * br.mask * (h.conj().T @ w_lin).T
            err = max(
                np.max(np.abs(soft.w[br.index] - w_lin.T)),
                np.max(np.abs(soft.f[br.index] - f_lin)),
            )
            worst_none = max(worst_none, err / np.max(np.abs(w_lin)))
    assert worst_full <= 1e-10
    assert worst_none <= 1e-12


def test_perfect_feedback_limit_examples():
    # beta = 0 with a unitary channel and vanishing noise: w -> H e_j
    rng = np.random.default_rng(5)
    u, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    chan = ChannelRealization(u, noise_variance=1e-12)
    bank = design_perfect_feedback(chan, _cyclic_branches(4, 1, beta=0.0))
    for j in range(4):
        assert np.allclose(bank.w[0, j], u[:, j], atol=1e-6)
    # scalar Wiener filter: unit channel and unit noise halve the observation
    scalar = ChannelRealization(np.array([[1.0 + 0j]]), noise_variance=1.0)
    bank1 = design_perfect_feedback(scalar, [make_branch(1, [0], beta=0.0)])
    assert bank1.w[0, 0, 0] == pytest.approx(0.5)
    stats1 = perfect_feedback_stats(scalar)
    assert mmse_value(bank1.w[0, 0], bank1.f[0, 0], stats1, 0) == pytest.approx(0.5)


def test_singular_covariance_raises():
    stats = _stats(1)
    stats.r_cov = np.zeros_like(stats.r_cov)
    with pytest.raises(np.linalg.LinAlgError, match="condition number"):
        design_statistical(stats, _cyclic_branches(4, 1, beta=0.5))


# ---------------------------------------------------------------------------
# Error measures
# ---------------------------------------------------------------------------

def test_mmse_value_trivial():
    stats = _stats(2)
    zero_w = np.zeros(4, complex)
    zero_f = np.zeros(4, complex)
    assert mmse_value(zero_w, zero_f, stats, 0) == pytest.approx(stats.sigma_s2)


def test_designed_filters_minimize_objective():
    # at beta = 1 the closed form is the exact constrained minimizer, so any
    # feasible perturbation can only increase the objective
    stats = _stats(7)
    branch = make_branch(4, [2, 0, 3, 1], beta=1.0, index=0)
    bank = design_closed_form(stats, branch)
    rng = np.random.default_rng(77)
    for j in range(4):
        w, f = bank.entry(j)
        base = mse_objective(w, f, stats, j)
        # collapsed expression agrees with the full quadratic at the optimum
        assert mmse_value(w, f, stats, j) == pytest.approx(base, abs=1e-10)
        for _ in range(10):
            dw = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            df = branch.mask[j] * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
            perturbed = mse_objective(w + 0.1 * dw, f + 0.1 * df, stats, j)
            assert perturbed >= base - 1e-12


def test_feedback_norm_monotone_in_beta():
    betas = np.linspace(0.0, 1.0, 11)
    for seed in range(20):
        stats = _stats(seed, noise=0.2)
        order = np.random.default_rng(seed).permutation(4)
        norms = []
        for b in betas:
            bank = design_closed_form(stats, make_branch(4, order, beta=float(b)))
            norms.append(np.linalg.norm(bank.f[0]))
        diffs = np.diff(norms)
        assert np.all(diffs >= -1e-12)


def test_mmse_linear_matches_beta_zero_design():
    stats = _stats(4)
    lin = mmse_linear(stats)
    bank = design_closed_form(stats, make_branch(4, np.arange(4), beta=0.0))
    from_filters = [mmse_value(bank.w[0, j], bank.f[0, j], stats, j) for j in range(4)]
    assert np.allclose(lin, from_filters, atol=1e-12)
    assert np.all(lin > 0)


def test_branch_mmse_matches_long_formula():
    # independent evaluation of the quadratic MMSE expression at the exact
    # filters: sigma_s2 - a^H R a + beta^2 a^H (Q M Q^H) a with a = C^{-1} p,
    # M = diag(mask[j])
    stats = _stats(8)
    branch = make_branch(4, [3, 1, 0, 2], beta=0.65)
    vals = branch_mmse(stats, branch)
    q = stats.cross
    for j in range(4):
        mid = q @ np.diag(branch.mask[j].astype(float)) @ q.conj().T
        core = stats.r_cov - branch.beta * mid  # sigma_s2 = 1 here
        a = np.linalg.solve(core, stats.p_mat[:, j])
        expect = (
            stats.sigma_s2
            - np.real(np.vdot(a, stats.r_cov @ a))
            + branch.beta**2 * np.real(np.vdot(a, mid @ a))
        )
        assert vals[j] == pytest.approx(expect, abs=1e-10)
    assert np.all(vals > 0)
