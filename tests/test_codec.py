"""Coding, demapping, MAP decoding and the iterative receiver loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbdf.codec import (
    BcjrResult,
    ConvCode,
    GaussianOutputModel,
    bcjr_decode,
    conv_encode,
    deinterleave,
    encode_packet,
    estimate_output_model,
    extrinsic_llr,
    interleave,
    make_interleaver,
    select_llr,
    soft_symbol_estimate,
    turbo_receive,
)
from mbdf.detectors import build_branches, detect_mb_mmse_df
from mbdf.filters import design_perfect_feedback
from mbdf.sysmodel import (
    Constellation,
    make_constellation,
    rayleigh_channel,
    slice_symbols,
    snr_to_noise_variance,
    transmit_block,
)

QPSK = make_constellation("qpsk")
# two-point set on the real axis: bit 0 -> +1, bit 1 -> -1
BPSK = Constellation("bpsk", np.array([1.0 + 0j, -1.0 + 0j]), 1)


def exhaustive_map(llr_in, code, k):
    """Posterior LLRs by explicit enumeration of all 2^k codewords."""
    words = np.array(
        [
            conv_encode([(m >> i) & 1 for i in range(k - 1, -1, -1)], code)
            for m in range(2**k)
        ]
    )
    infos = np.array(
        [[(m >> i) & 1 for i in range(k - 1, -1, -1)] for m in range(2**k)]
    )
    logw = (0.5 * (1 - 2 * words) * llr_in).sum(axis=1)
    logw -= logw.max()
    w = np.exp(logw)
    w /= w.sum()
    posterior = np.array(
        [
            np.log(w[words[:, p] == 0].sum()) - np.log(w[words[:, p] == 1].sum())
            for p in range(words.shape[1])
        ]
    )
    info_llrs = np.array(
        [
            np.log(w[infos[:, p] == 0].sum()) - np.log(w[infos[:, p] == 1].sum())
            for p in range(k)
        ]
    )
    return posterior, info_llrs


# ---------------------------------------------------------------------------
# Convolutional code
# ---------------------------------------------------------------------------

def test_all_zero_input_encodes_to_all_zero():
    assert not conv_encode(np.zeros(40, int)).any()


def test_impulse_response_matches_hand_trace():
    coded = conv_encode([1, 0, 0])
    assert coded[:6].tolist() == [1, 1, 1, 0, 1, 1]
    assert not coded[6:].any()  # register already flushed


def test_encoded_length_includes_tail():
    for k in (1, 7, 64):
        assert conv_encode(np.ones(k, int)).size == 2 * (k + 2)


def test_encoder_flushes_to_zero_state():
    # a flushed trellis restarted on the same bits reproduces the same output
    bits = np.array([1, 0, 1, 1, 0, 1])
    once = conv_encode(bits)
    twice = conv_encode(np.concatenate([bits, [0, 0], bits]))
    assert np.array_equal(twice[: once.size], once)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
def test_code_is_linear_over_xor(a, b):
    to_bits = lambda m: np.array([(m >> i) & 1 for i in range(15, -1, -1)])
    ca, cb = conv_encode(to_bits(a)), conv_encode(to_bits(b))
    assert np.array_equal(conv_encode(to_bits(a) ^ to_bits(b)), ca ^ cb)


def test_code_validation():
    with pytest.raises(ValueError):
        ConvCode(generators=(0o17, 0o5), constraint_length=3)  # tap beyond window
    with pytest.raises(ValueError):
        conv_encode([0, 2, 1])


# ---------------------------------------------------------------------------
# Interleaving
# ---------------------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(st.integers(1, 200), st.integers(0, 2**31))
def test_interleave_roundtrip_identity(n, seed):
    perm = make_interleaver(n, np.random.default_rng(seed))
    x = np.arange(n, dtype=float)
    assert np.array_equal(deinterleave(interleave(x, perm), perm), x)
    assert np.array_equal(interleave(deinterleave(x, perm), perm), x)
    # a stack of permutations permutes each stacked sequence by its own
    perms, xs = np.stack([perm, perm[::-1]]), np.stack([x, -x])
    rows = [interleave(x, perm), interleave(-x, perm[::-1])]
    assert np.array_equal(interleave(xs, perms), np.stack(rows))
    assert np.array_equal(deinterleave(interleave(xs, perms), perms), xs)


def test_interleave_checks_length():
    with pytest.raises(ValueError):
        interleave(np.arange(5), np.arange(4))


# ---------------------------------------------------------------------------
# Gaussian output model
# ---------------------------------------------------------------------------

def test_noiseless_samples_give_unit_gain_and_floored_variance():
    rng = np.random.default_rng(0)
    s = QPSK.points[rng.integers(0, 4, size=100)]
    model = estimate_output_model(s, s)
    assert abs(model.v - 1.0) < 1e-12
    assert model.xi_var == pytest.approx(1e-6)


def test_synthetic_gain_and_variance_recovered():
    rng = np.random.default_rng(1)
    n = 10**4
    s = QPSK.points[rng.integers(0, 4, size=n)]
    noise = np.sqrt(0.05) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    z = 0.8 * s + noise
    model = estimate_output_model(z, s)
    assert abs(model.v - 0.8) < 0.02
    assert abs(model.xi_var - 0.1) < 0.01


def test_model_regenerates_matching_second_moments():
    rng = np.random.default_rng(2)
    n = 20000
    s = QPSK.points[rng.integers(0, 4, size=n)]
    z = 0.7 * s + np.sqrt(0.1) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    model = estimate_output_model(z, s)
    half = np.sqrt(model.xi_var / 2.0)
    z2 = model.v * s + half * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    for moment in (
        lambda a: np.mean(np.abs(a) ** 2),
        lambda a: np.abs(np.mean(s.conj() * a)),
    ):
        assert moment(z2) == pytest.approx(moment(z), rel=0.05)


def test_sample_floor_falls_back_to_previous_model():
    prev = GaussianOutputModel(np.array(0.5), np.array(0.2))
    few = np.ones(5, complex)
    assert estimate_output_model(few, few, previous=prev) is prev
    with pytest.raises(ValueError):
        estimate_output_model(few, few)


def test_model_fits_detector_branches_jointly():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((2, 3, 50)) + 1j * rng.standard_normal((2, 3, 50))
    ref = slice_symbols(z, QPSK)
    model = estimate_output_model(z, ref)
    assert model.v.shape == (2, 3) and model.xi_var.shape == (2, 3)
    assert (model.xi_var > 0).all()


# ---------------------------------------------------------------------------
# Demapper
# ---------------------------------------------------------------------------

def test_qpsk_origin_sample_gives_zero_llrs():
    model = GaussianOutputModel(np.array(1.0), np.array(0.3))
    lam = extrinsic_llr(np.zeros(1, complex), model, None, QPSK)
    assert np.allclose(lam, 0.0)


def test_two_point_set_matches_closed_form():
    model = GaussianOutputModel(np.array(1.0), np.array(0.4))
    rng = np.random.default_rng(4)
    z = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    lam = extrinsic_llr(z, model, None, BPSK)
    assert np.allclose(lam[:, 0], np.clip(2.0 * z.real / 0.4, -50, 50), atol=1e-10)


def test_qpsk_zero_priors_axes_decouple():
    # Gray axes: per-bit LLR is the scaled coordinate of the matching axis
    v, xi = 0.9, 0.35
    model = GaussianOutputModel(np.array(v), np.array(xi))
    rng = np.random.default_rng(5)
    z = 0.4 * (rng.standard_normal(100) + 1j * rng.standard_normal(100))
    lam = extrinsic_llr(z, model, None, QPSK)
    scale = 2.0 * v / (np.sqrt(2.0) * xi)
    assert np.allclose(lam[:, 0], scale * z.real, atol=1e-9)
    assert np.allclose(lam[:, 1], scale * z.imag, atol=1e-9)


def test_maxlog_stays_within_logsumexp_bound():
    model = GaussianOutputModel(np.array(0.8), np.array(0.5))
    rng = np.random.default_rng(6)
    z = rng.standard_normal(500) + 1j * rng.standard_normal(500)
    priors = rng.normal(0, 1.5, size=(500, 2))
    exact = extrinsic_llr(z, model, priors, QPSK, mode="exact")
    approx = extrinsic_llr(z, model, priors, QPSK, mode="maxlog")
    assert np.max(np.abs(exact - approx)) <= 0.7


def test_llr_flips_sign_under_label_complement():
    flipped = Constellation("qpsk-complement", QPSK.points[::-1].copy(), 2)
    model = GaussianOutputModel(np.array(1.0), np.array(0.25))
    rng = np.random.default_rng(7)
    z = rng.standard_normal(80) + 1j * rng.standard_normal(80)
    lam = extrinsic_llr(z, model, None, QPSK)
    lam_flip = extrinsic_llr(z, model, None, flipped)
    assert np.allclose(lam_flip, -lam, atol=1e-9)


def test_zero_priors_match_prior_free_form():
    # pipeline purity: the prior pathway is inert when priors vanish
    model = GaussianOutputModel(np.array(0.9), np.array(0.4))
    rng = np.random.default_rng(8)
    z = rng.standard_normal(60) + 1j * rng.standard_normal(60)
    with_path = extrinsic_llr(z, model, np.zeros((60, 2)), QPSK, include_priors=True)
    without = extrinsic_llr(z, model, None, QPSK, include_priors=False)
    assert np.allclose(with_path, without, atol=1e-12)


def test_posterior_decomposes_into_extrinsic_plus_prior():
    # direct posterior from the metric sums equals extrinsic + prior
    model = GaussianOutputModel(np.array(0.85), np.array(0.5))
    rng = np.random.default_rng(9)
    n = 40
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    priors = rng.normal(0, 2, size=(n, 2))
    lam1 = extrinsic_llr(z, model, priors, QPSK)
    labels = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
    pts = QPSK.points[[0, 1, 2, 3]]
    metric = -np.abs(z[:, None] - 0.85 * pts[None, :]) ** 2 / (2 * 0.5)
    metric = metric + 0.5 * priors @ (1 - 2 * labels).T
    for c in range(2):
        on = metric[:, labels[:, c] == 0]
        off = metric[:, labels[:, c] == 1]
        lse = lambda a: a.max(axis=1) + np.log(
            np.exp(a - a.max(axis=1)[:, None]).sum(axis=1)
        )
        posterior = lse(on) - lse(off)
        assert np.allclose(lam1[:, c] + priors[:, c], posterior, atol=1e-9)


def test_demapper_validation():
    model = GaussianOutputModel(np.array(1.0), np.array(0.5))
    with pytest.raises(ValueError):
        extrinsic_llr(np.zeros(3, complex), model, None, QPSK, mode="sphere")
    with pytest.raises(ValueError):
        extrinsic_llr(np.zeros(3, complex), model, np.zeros((2, 2)), QPSK)


# ---------------------------------------------------------------------------
# Branch LLR selection
# ---------------------------------------------------------------------------

def test_single_branch_selection_is_identity():
    vals = np.array([[0.3, -1.2, 4.0]])
    chosen, idx = select_llr(vals)
    assert np.array_equal(chosen, vals[0]) and not idx.any()


def test_selection_takes_signed_argmax():
    chosen, idx = select_llr(np.array([[-2.0], [3.1], [0.4]]))
    assert chosen[0] == 3.1 and idx[0] == 1


def test_selection_tie_break_is_lowest_index():
    chosen, idx = select_llr(np.full((4, 6), 1.25))
    assert not idx.any() and np.allclose(chosen, 1.25)


def test_magnitude_mode_keeps_strongest_with_sign():
    chosen, idx = select_llr(np.array([[-5.0], [3.1], [0.4]]), mode="magnitude")
    assert chosen[0] == -5.0 and idx[0] == 0
    with pytest.raises(ValueError):
        select_llr(np.zeros((2, 3)), mode="best")


# ---------------------------------------------------------------------------
# BCJR decoding
# ---------------------------------------------------------------------------

def test_saturated_priors_recover_encoder_input():
    rng = np.random.default_rng(10)
    bits = rng.integers(0, 2, size=100)
    llr = 50.0 * (1 - 2 * conv_encode(bits)).astype(float)
    res = bcjr_decode(llr)
    assert np.array_equal(res.info_bits, bits)


def test_bcjr_matches_exhaustive_map():
    code = ConvCode()
    k = 8
    rng = np.random.default_rng(11)
    for _ in range(5):
        llr = rng.normal(0.0, 2.0, size=2 * (k + 2))
        res = bcjr_decode(llr, code)
        posterior, info_llrs = exhaustive_map(llr, code, k)
        assert np.max(np.abs(res.posterior - posterior)) < 1e-9
        assert np.max(np.abs(res.info_llrs - info_llrs)) < 1e-9


@pytest.mark.parametrize(
    "code",
    [ConvCode((0o15, 0o17), 4), ConvCode((0o5, 0o7, 0o7), 3)],
    ids=["8-state", "rate-1-3"],
)
def test_bcjr_matches_exhaustive_map_on_other_codes(code):
    # an 8-state and a rate-1/3 code, alone and stacked in a batch
    k = 7
    rng = np.random.default_rng(18)
    llr = rng.normal(0.0, 2.0, size=(3, code.n_outputs * (k + code.memory)))
    batch = bcjr_decode(llr, code)
    for row, post_row, info_row in zip(llr, batch.posterior, batch.info_llrs):
        posterior, info_llrs = exhaustive_map(row, code, k)
        alone = bcjr_decode(row, code)
        for got_post, got_info in ((alone.posterior, alone.info_llrs), (post_row, info_row)):
            assert np.max(np.abs(got_post - posterior)) < 1e-9
            assert np.max(np.abs(got_info - info_llrs)) < 1e-9


@pytest.mark.parametrize("n_rows", [1, 3, 4])
def test_batched_decode_equals_row_by_row(n_rows):
    # determinism contract: batching changes no bit of any output
    rng = np.random.default_rng(19)
    k = 40
    llr = rng.normal(0.0, 3.0, size=(n_rows, 2 * (k + 2)))
    llr[0] = 50.0 * (1 - 2 * conv_encode(rng.integers(0, 2, size=k)))
    llr[-1, ::3] = rng.choice([-50.0, 50.0], size=llr[-1, ::3].shape)
    batch = bcjr_decode(llr)
    nested = bcjr_decode(llr[None])
    for b, row in enumerate(llr):
        alone = bcjr_decode(row)
        for name in ("posterior", "extrinsic", "info_llrs", "info_bits"):
            assert np.array_equal(getattr(batch, name)[b], getattr(alone, name))
            assert np.array_equal(getattr(nested, name)[0, b], getattr(alone, name))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_bcjr_rejects_non_finite_llrs(bad):
    llr = np.zeros((2, 2 * (5 + 2)))
    llr[1, 3] = bad
    with pytest.raises(ValueError, match="finite"):
        bcjr_decode(llr)


def test_bcjr_additivity_is_exact():
    rng = np.random.default_rng(12)
    llr = rng.normal(0.0, 3.0, size=2 * (30 + 2))
    res = bcjr_decode(llr)
    assert np.max(np.abs(res.posterior - res.extrinsic - llr)) < 1e-9


def test_bcjr_rejects_bad_lengths():
    with pytest.raises(ValueError):
        bcjr_decode(np.zeros(7))
    with pytest.raises(ValueError):
        bcjr_decode(np.zeros(4))  # flush only, no information steps


# ---------------------------------------------------------------------------
# Soft symbols
# ---------------------------------------------------------------------------

def test_zero_priors_give_zero_soft_symbol():
    assert soft_symbol_estimate(np.zeros((3, 2)), QPSK) == pytest.approx(0.0)


def test_saturated_priors_hit_constellation_points():
    for label in range(4):
        b = np.array([(label >> 1) & 1, label & 1])
        priors = 50.0 * (1 - 2 * b).astype(float)
        est = soft_symbol_estimate(priors, QPSK)
        assert abs(est - QPSK.points[label]) < 1e-12


def test_partial_prior_lands_on_tanh_mean():
    est = soft_symbol_estimate(np.array([2.0, 0.0]), QPSK)
    assert est.real == pytest.approx(np.tanh(1.0) / np.sqrt(2.0), abs=1e-12)
    assert est.imag == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Iterative receiver
# ---------------------------------------------------------------------------

def _coded_packet(rng, n_t, n_r, l_count, q, snr_db, beta=0.65):
    qpsk = QPSK
    noise = snr_to_noise_variance(snr_db, n_t, 2, code_rate=0.5)
    ch = rayleigh_channel(n_r, n_t, rng, noise_variance=noise)
    bank = design_perfect_feedback(ch, build_branches(n_t, l_count, beta), tol=1e-12)
    info = rng.integers(0, 2, size=(n_t, q - 2))
    perms = np.stack([make_interleaver(2 * q, rng) for _ in range(n_t)])
    s = encode_packet(info, perms, qpsk, ConvCode())
    r = transmit_block(ch, s, rng)
    return r, bank, perms, info


def test_single_iteration_equals_open_loop_demap_decode():
    rng = np.random.default_rng(13)
    r, bank, perms, info = _coded_packet(rng, 4, 4, 4, 120, 8.0)
    res = turbo_receive(r, bank, QPSK, perms, iterations=1, true_bits=info)
    # reference: one hard detection pass, model fit, demap, select, decode
    det = detect_mb_mmse_df(r, bank, QPSK)
    z = det.soft_outputs
    model = estimate_output_model(z, slice_symbols(z, QPSK))
    lam = np.stack(
        [
            np.stack(
                [
                    extrinsic_llr(
                        z[l, j],
                        GaussianOutputModel(model.v[l, j], model.xi_var[l, j]),
                        None,
                        QPSK,
                    )
                    for j in range(4)
                ]
            )
            for l in range(bank.n_branches)
        ]
    )
    chosen, _ = select_llr(lam)
    for j in range(4):
        dec = bcjr_decode(deinterleave(chosen[j].reshape(-1), perms[j]))
        assert np.array_equal(res.info_bits[j], dec.info_bits)


def test_iterations_reduce_bit_errors_at_moderate_snr():
    rng = np.random.default_rng(14)
    first = second = 0
    bits = 0
    for _ in range(12):
        r, bank, perms, info = _coded_packet(rng, 4, 4, 4, 150, 8.0)
        res = turbo_receive(r, bank, QPSK, perms, iterations=2, true_bits=info)
        first += int(np.sum(res.iteration_bits[0] != info))
        second += int(np.sum(res.iteration_bits[1] != info))
        bits += info.size
    # paired comparison on shared packets: the second pass must help
    assert second < first
    assert first / bits > 0.001  # the regime is actually noisy


def test_iteration_gains_diminish():
    rng = np.random.default_rng(15)
    trace = np.zeros(5)
    for _ in range(12):
        r, bank, perms, info = _coded_packet(rng, 4, 4, 4, 150, 8.0)
        res = turbo_receive(r, bank, QPSK, perms, iterations=5, true_bits=info)
        trace += res.ber_trace
    assert (trace[3] - trace[4]) < (trace[0] - trace[1])


def test_turbo_receiver_validation():
    rng = np.random.default_rng(16)
    r, bank, perms, _ = _coded_packet(rng, 4, 4, 2, 60, 10.0)
    with pytest.raises(ValueError):
        turbo_receive(r, bank, QPSK, perms, iterations=0)
    with pytest.raises(ValueError):
        turbo_receive(r, bank, QPSK, perms[:, :-2])
    with pytest.raises(ValueError):
        turbo_receive(r[:-1], bank, QPSK, perms)


def test_encode_packet_shape_and_roundtrip():
    rng = np.random.default_rng(17)
    info = rng.integers(0, 2, size=(3, 48))
    perms = np.stack([make_interleaver(100, rng) for _ in range(3)])
    s = encode_packet(info, perms, QPSK)
    assert s.shape == (3, 50)
    # noiseless demap through the same permutations recovers the info bits
    from mbdf.sysmodel import demap_hard

    for j in range(3):
        coded = deinterleave(demap_hard(s[j], QPSK), perms[j])
        llr = 50.0 * (1 - 2 * coded).astype(float)
        assert np.array_equal(bcjr_decode(llr).info_bits, info[j])
    with pytest.raises(ValueError):
        encode_packet(info, perms[:, :-1], QPSK)
