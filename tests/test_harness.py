"""Monte Carlo engine, complexity table, slope fits, EXIT curves, CLI."""

import json
import math
from dataclasses import asdict, replace
from fractions import Fraction

import numpy as np
import pytest

from mbdf.cli import main
from mbdf.codec import (
    MIN_MODEL_SAMPLES,
    GaussianOutputModel,
    estimate_output_model,
    extrinsic_llr,
    select_llr,
    soft_symbol_estimate,
)
from mbdf.detectors import DetectorConfig, build_branches, detect_mb_mmse_df
import mbdf.harness as harness
from mbdf.filters import design_perfect_feedback
from mbdf.harness import (
    BerReport,
    PointResult,
    SimConfig,
    _confidence,
    complexity_table,
    config_hash,
    diversity_slope,
    exit_chart,
    j_function,
    j_inverse,
    measure_mutual_information,
    order_compare,
    run_ber_sweep,
    snr_at_ber,
    write_csv,
    write_dat,
    write_json,
)
from mbdf.sysmodel import (
    make_constellation,
    modulate,
    rayleigh_channel,
    slice_symbols,
    snr_to_noise_variance,
    transmit_block,
)

QPSK = make_constellation("qpsk")


def tiny(**kw) -> SimConfig:
    base = dict(
        n_t=2,
        n_r=2,
        snr_grid=(10.0,),
        detector=DetectorConfig(kind="mbdf", branches=2),
        packet_len=50,
        min_errors=60,
        max_bits=30_000,
        seed=42,
    )
    base.update(kw)
    return SimConfig(**base)


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

def test_config_invariants_enforced():
    with pytest.raises(ValueError):
        tiny(n_t=4, n_r=2)
    with pytest.raises(ValueError):
        tiny(snr_grid=())
    with pytest.raises(ValueError):
        tiny(min_errors=0)
    with pytest.raises(ValueError):
        tiny(packet_len=0)
    with pytest.raises(ValueError):
        tiny(constellation="256qam")


def test_infeasible_combos_rejected_before_simulation():
    with pytest.raises(ValueError):
        # 7 streams x 4 bits = 28 hypothesis bits, past the enumeration guard
        run_ber_sweep(
            tiny(
                n_t=7,
                n_r=7,
                constellation="16qam",
                detector=DetectorConfig(kind="ml", branches=1),
            )
        )
    with pytest.raises(ValueError):
        run_ber_sweep(tiny(detector=DetectorConfig(kind="mbdf", branches=3)))  # 2! = 2
    with pytest.raises(ValueError):
        run_ber_sweep(tiny(channel_mode="jakes", doppler=1e-4))  # needs adaptive csi
    with pytest.raises(ValueError):
        run_ber_sweep(tiny(doppler=1e-4))  # doppler without jakes
    with pytest.raises(ValueError):
        run_ber_sweep(tiny(csi="adaptive"))  # no training prefix
    with pytest.raises(ValueError):
        run_ber_sweep(tiny(coded=True, packet_len=3))  # below the model floor


def test_coded_packets_shorter_than_the_model_floor_rejected():
    for short in (10, MIN_MODEL_SAMPLES - 1):
        with pytest.raises(ValueError, match="detector output model"):
            run_ber_sweep(tiny(coded=True, packet_len=short))
    ok = tiny(coded=True, packet_len=MIN_MODEL_SAMPLES, iterations=1, max_bits=1)
    assert run_ber_sweep(ok).points[0].bits > 0


# ---------------------------------------------------------------------------
# BER sweeps
# ---------------------------------------------------------------------------

def test_noise_free_grid_point_is_error_free_for_all_detectors():
    for kind in ("ml", "linear", "sic", "df", "mbdf"):
        cfg = tiny(
            snr_grid=(float("inf"),),
            detector=DetectorConfig(kind=kind, branches=2 if kind == "mbdf" else 1),
            min_errors=1,
            max_bits=2_000,
        )
        report = run_ber_sweep(cfg)
        assert report.points[0].ber == 0.0, kind


def test_linear_sweep_matches_one_shot_reference():
    # independently coded one-shot MMSE: filter, slice, count — no shared code
    snr, n, trials = 10.0, 2, 4000
    rng = np.random.default_rng(99)
    noise = snr_to_noise_variance(snr, n, 2)
    errors = bits = 0
    for _ in range(trials):
        h = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
        b = rng.integers(0, 2, size=2 * n)
        s = QPSK.points[2 * b[::2] + b[1::2]]
        r = h @ s + np.sqrt(noise / 2) * (
            rng.standard_normal(n) + 1j * rng.standard_normal(n)
        )
        w = np.linalg.solve(h @ h.conj().T + noise * np.eye(n), h)
        z = w.conj().T @ r
        got = np.stack([(z.real < 0).astype(int), (z.imag < 0).astype(int)], 1).ravel()
        errors += int(np.sum(got != b))
        bits += b.size
    ref_ber = errors / bits
    ref_half = 1.96 * math.sqrt(ref_ber * (1 - ref_ber) / bits)
    cfg = tiny(
        detector=DetectorConfig(kind="linear", branches=1),
        min_errors=300,
        max_bits=60_000,
        seed=1234,
    )
    point = run_ber_sweep(cfg).points[0]
    sweep_half = (point.ci_high - point.ci_low) / 2
    assert abs(point.ber - ref_ber) <= ref_half + sweep_half


def test_branch_count_strictly_helps():
    # shared seed -> common random numbers across the three detector variants;
    # at this operating point the branch gains (roughly 2x per doubling) dwarf
    # the interval widths, so the ordering must come out strict
    bers = {}
    for l_count in (1, 2, 4):
        cfg = SimConfig(
            n_t=4,
            n_r=4,
            snr_grid=(12.0,),
            detector=DetectorConfig(kind="mbdf", branches=l_count),
            packet_len=50,
            min_errors=300,
            max_bits=400_000,
            seed=777,
        )
        bers[l_count] = run_ber_sweep(cfg).points[0].ber
    assert bers[4] < bers[2] < bers[1]
    assert bers[4] < 0.5 * bers[1]


def test_determinism_bit_identical():
    cfg = tiny(snr_grid=(8.0, 12.0))
    a, b = run_ber_sweep(cfg), run_ber_sweep(cfg)
    assert a.config_hash == b.config_hash
    assert [asdict(p) for p in a.points] == [asdict(p) for p in b.points]


def test_worker_pool_matches_sequential():
    cfg = tiny(snr_grid=(8.0, 12.0))
    seq = run_ber_sweep(cfg)
    par = run_ber_sweep(replace(cfg, workers=2))
    # the worker count is provenance-tagged, but the samples must coincide
    assert [(p.ber, p.bit_errors) for p in seq.points] == [
        (p.ber, p.bit_errors) for p in par.points
    ]


def test_confidence_interval_honesty():
    # 95% intervals from modest runs should cover a heavy reference estimate
    # at least 90% of the time (meta-test on a frozen seed family).  A fresh
    # channel per vector keeps the error process near-iid, which is the regime
    # the binomial interval models; long static packets would correlate errors
    # and the interval would rightly miss more often.
    kw = dict(packet_len=1, detector=DetectorConfig(kind="linear", branches=1))
    ref = run_ber_sweep(
        tiny(min_errors=2500, max_bits=500_000, seed=5, **kw)
    ).points[0].ber
    hits = 0
    for seed in range(20):
        p = run_ber_sweep(
            tiny(min_errors=200, max_bits=80_000, seed=1000 + seed, **kw)
        ).points[0]
        hits += int(p.ci_low <= ref <= p.ci_high)
    assert hits >= 18


def test_wilson_interval_matches_closed_form_at_the_extremes():
    z2 = 1.96**2
    for n in (1, 7, 100, 10_000, 2_000_000):
        ber, lo, hi = _confidence(n, 0)
        assert ber == 0.0 and lo == pytest.approx(0.0, abs=1e-15)
        assert hi == pytest.approx(z2 / (n + z2), rel=1e-12)
        # all errors mirrors it: [n/(n+z²), 1]
        ber, lo, hi = _confidence(n, n)
        assert ber == 1.0 and hi == pytest.approx(1.0, abs=1e-15)
        assert lo == pytest.approx(n / (n + z2), rel=1e-12)
    # an error-free sweep point keeps an interval of non-zero width
    point = run_ber_sweep(tiny(snr_grid=(300.0,), max_bits=2_000)).points[0]
    assert point.bit_errors == 0
    assert point.ci_high == pytest.approx(z2 / (point.bits + z2), rel=1e-12)


def test_point_result_carries_the_adaptive_fallback_count(monkeypatch, tmp_path):
    cfg = tiny(
        csi="adaptive",
        training_len=30,
        packet_len=40,
        min_errors=10**9,
        max_bits=3 * 2 * 40 * 2,  # three packets
    )
    real = harness.adaptive_packet
    counts = []

    def planted(*args, **kw):
        decisions, state = real(*args, **kw)
        state.cond_fallbacks += len(counts) + 1  # known, non-zero per packet
        counts.append(state.cond_fallbacks)
        return decisions, state

    monkeypatch.setattr(harness, "adaptive_packet", planted)
    report = run_ber_sweep(cfg)
    point = report.points[0]
    assert point.frames == len(counts) == 3
    assert point.cond_fallbacks == sum(counts) > 0
    write_json(report, tmp_path / "r.json")
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc["points"][0]["cond_fallbacks"] == point.cond_fallbacks
    monkeypatch.undo()
    # the unpatched run lacks only the planted 1 + 2 + 3
    assert run_ber_sweep(cfg).points[0].cond_fallbacks == sum(counts) - 6
    assert run_ber_sweep(tiny(max_bits=2_000)).points[0].cond_fallbacks == 0


def test_training_symbols_never_counted():
    cfg = tiny(
        csi="adaptive",
        training_len=30,
        packet_len=60,
        detector=DetectorConfig(kind="mbdf", branches=2, ordering="suboptimal"),
        min_errors=5,
        max_bits=3_000,
        snr_grid=(14.0,),
    )
    point = run_ber_sweep(cfg).points[0]
    assert point.bits == point.frames * 2 * 60 * 2  # n_t * payload symbols * bits


def test_adaptive_receiver_tracks_a_slow_jakes_channel():
    # enough frames to average over fades; receive diversity keeps single
    # bad realizations from dominating the estimate
    cfg = SimConfig(
        n_t=2,
        n_r=4,
        snr_grid=(12.0,),
        detector=DetectorConfig(kind="mbdf", branches=2),
        channel_mode="jakes",
        doppler=1e-4,
        csi="adaptive",
        training_len=50,
        packet_len=200,
        min_errors=80,
        max_bits=60_000,
        seed=11,
    )
    point = run_ber_sweep(cfg).points[0]
    assert point.frames >= 20
    assert point.ber < 0.02


def test_coded_sweep_runs_and_beats_wild_guessing():
    cfg = SimConfig(
        n_t=2,
        n_r=2,
        snr_grid=(10.0,),
        detector=DetectorConfig(kind="mbdf", branches=2),
        coded=True,
        iterations=2,
        packet_len=100,
        min_errors=15,
        max_bits=6_000,
        seed=21,
    )
    point = run_ber_sweep(cfg).points[0]
    assert point.bits > 0 and point.ber < 0.2


# ---------------------------------------------------------------------------
# Complexity
# ---------------------------------------------------------------------------

def test_table_values_match_closed_forms_exactly():
    t44 = complexity_table(4, 4, 2)
    assert t44["mb_mmse_df_rls"] == {"mults": 749, "adds": 399}
    t88 = complexity_table(8, 8, 4)
    assert t88["mb_mmse_df_rls"] == {"mults": 10649, "adds": 6079}
    assert complexity_table(2, 2, 1)["linear_rls"]["adds"] == 38
    assert complexity_table(4, 4, 1)["channel_estimation_rls"] == {
        "mults": 170,
        "adds": 124,
    }


def test_cancellation_row_is_exact_rational():
    row = complexity_table(4, 4, 1)["sic_rls"]
    assert row["mults"] == Fraction(2, 3) * 64 + Fraction(25, 2) * 16 + 12
    assert isinstance(row["adds"], Fraction)
    # integral dimension collapses to int
    assert isinstance(complexity_table(3, 6, 1)["sic_rls"]["adds"], int)


def test_degenerate_branch_count_rejected():
    with pytest.raises(ValueError):
        complexity_table(4, 4, 0)
    with pytest.raises(ValueError):
        complexity_table(0, 4, 1)


def test_zero_length_packet_counts_zero_ops():
    ch = rayleigh_channel(4, 4, np.random.default_rng(0), noise_variance=0.1)
    bank = design_perfect_feedback(ch, build_branches(4, 2, 0.65), tol=1e-12)
    res = detect_mb_mmse_df(np.empty((4, 0), complex), bank, QPSK)
    assert res.op_counts.mults == 0 and res.op_counts.adds == 0


def test_measured_multiplies_scale_with_dimension():
    # the adaptive path (detector + recursive tracking) should grow ~ n^3
    # on square systems, matching the n_r^2 * n_t leading term
    # n=2 would be dominated by constant per-update overhead, so fit from 4 up
    per_vec = {}
    for n in (4, 8, 16):
        cfg = SimConfig(
            n_t=n,
            n_r=n,
            snr_grid=(14.0,),
            detector=DetectorConfig(kind="mbdf", branches=1, beta=0.0),
            csi="adaptive",
            training_len=20,
            packet_len=40,
            min_errors=1,
            max_bits=4 * n * 40,
            seed=31,
        )
        per_vec[n] = run_ber_sweep(cfg).points[0].mults_per_vector
    slope = np.polyfit(np.log([4, 8, 16]), np.log([per_vec[n] for n in (4, 8, 16)]), 1)[0]
    assert 2.5 <= slope <= 3.5


def test_doubling_branches_doubles_the_branch_term():
    per_vec = {}
    for l_count in (1, 2, 4):
        cfg = SimConfig(
            n_t=4,
            n_r=4,
            snr_grid=(12.0,),
            detector=DetectorConfig(kind="mbdf", branches=l_count),
            packet_len=50,
            min_errors=1,
            max_bits=800,
            seed=32,
        )
        per_vec[l_count] = run_ber_sweep(cfg).points[0].mults_per_vector
    d1 = per_vec[2] - per_vec[1]
    d2 = per_vec[4] - per_vec[2]
    assert d1 > 0 and 1.5 <= d2 / d1 <= 2.5


def test_each_receiver_charges_its_pinned_ops_per_vector():
    # 4x4, per stream and vector: the feedforward product costs 4 mults and
    # 3 adds, feedback 4 more of each (product and subtraction); an L=4 bank
    # adds the full metric (1 and 1) per branch and joint selection (3 adds
    # per branch), and a single branch has nothing to select
    expected = {
        ("linear", 1): (16.0, 12.0),
        ("sic", 1): (32.0, 28.0),
        ("df", 1): (32.0, 28.0),
        ("mbdf", 1): (32.0, 28.0),
        ("mbdf", 4): (144.0, 140.0),
    }
    counts = {}
    for (kind, l_count), per_vector in expected.items():
        for constellation in ("qpsk", "16qam"):
            cfg = SimConfig(
                n_t=4,
                n_r=4,
                constellation=constellation,
                snr_grid=(6.0, 14.0),
                detector=DetectorConfig(kind=kind, branches=l_count),
                packet_len=20,
                min_errors=10**9,
                max_bits=3 * 4 * 20 * 4,
                seed=77,
            )
            points = run_ber_sweep(cfg).points
            for p in points:
                assert (p.mults_per_vector, p.adds_per_vector) == per_vector, kind
            counts[kind, l_count, constellation] = [
                (p.bits, p.bit_errors, p.frame_errors) for p in points
            ]
    # SIC and DF are the same receiver
    for constellation in ("qpsk", "16qam"):
        assert counts["sic", 1, constellation] == counts["df", 1, constellation]


def test_measured_against_analytic_within_factor_two():
    # adaptive multi-branch receiver vs the closed-form row
    for n, l_count in ((4, 2), (4, 4)):
        cfg = SimConfig(
            n_t=n,
            n_r=n,
            snr_grid=(14.0,),
            detector=DetectorConfig(kind="mbdf", branches=l_count),
            csi="adaptive",
            training_len=30,
            packet_len=60,
            min_errors=1,
            max_bits=2 * n * 60,
            seed=33,
        )
        measured = run_ber_sweep(cfg).points[0].mults_per_vector
        analytic = complexity_table(n, n, l_count)["mb_mmse_df_rls"]["mults"]
        analytic += complexity_table(n, n, l_count)["channel_estimation_rls"]["mults"]
        assert 0.5 <= measured / analytic <= 2.0, (n, l_count, measured, analytic)


# ---------------------------------------------------------------------------
# Diversity slope
# ---------------------------------------------------------------------------

def test_synthetic_inverse_square_curve_fits_slope_two():
    pairs = [(s, (10 ** (s / 10.0)) ** -2.0) for s in (10.0, 14.0, 18.0, 22.0)]
    assert diversity_slope(pairs) == pytest.approx(2.0, abs=0.05)


def test_slope_fit_refuses_thin_data():
    with pytest.raises(ValueError):
        diversity_slope([(10.0, 1e-3), (12.0, 1e-4)])
    with pytest.raises(ValueError):
        # points outside the window do not count
        diversity_slope(
            [(s, 1e-3) for s in (10.0, 12.0, 14.0, 16.0)], window=(0.0, 5.0)
        )


def test_slope_ordering_across_detectors():
    # per-detector grids keep every point inside the fit's validity band
    # (0 < BER < 1e-2); short packets keep single fades from dominating a
    # stopping decision
    grids = {
        "ml": (11.0, 14.0, 17.0),
        "mbdf": (12.0, 15.0, 18.0),
        "linear": (18.0, 22.0, 26.0),
    }
    slopes = {}
    for kind, grid in grids.items():
        cfg = SimConfig(
            n_t=2,
            n_r=2,
            snr_grid=grid,
            detector=DetectorConfig(kind=kind, branches=2 if kind == "mbdf" else 1),
            packet_len=20,
            min_errors=250,
            max_bits=800_000,
            seed=55,
        )
        slopes[kind] = diversity_slope(run_ber_sweep(cfg))
    tol = 0.35
    assert slopes["ml"] >= slopes["mbdf"] - tol
    assert slopes["mbdf"] >= slopes["linear"] - tol
    # the extremes must separate cleanly: full enumeration collects the
    # receive diversity the purely linear front end leaves on the table
    assert slopes["ml"] > slopes["linear"] + 0.4


# ---------------------------------------------------------------------------
# Interpolation and ordering comparison
# ---------------------------------------------------------------------------

def _fake_report(points) -> BerReport:
    cfg = tiny()
    rows = [
        PointResult(s, 10_000, int(b * 10_000), b, b * 0.9, b * 1.1, 10, 5, 0.0, 0.0)
        for s, b in points
    ]
    return BerReport(cfg, config_hash(cfg), rows)


def test_snr_interpolation_is_log_linear():
    report = _fake_report([(10.0, 1e-1), (20.0, 1e-3)])
    assert snr_at_ber(report, 1e-2) == pytest.approx(15.0, abs=1e-9)
    assert snr_at_ber(report, 1e-5) is None


def test_order_compare_returns_gap_on_shared_draws():
    cfg = SimConfig(
        n_t=3,
        n_r=3,
        snr_grid=(6.0, 9.0, 12.0),
        detector=DetectorConfig(kind="mbdf", branches=2),
        packet_len=60,
        min_errors=80,
        max_bits=40_000,
        seed=66,
    )
    outcome = order_compare(cfg, target_ber=2e-2)
    assert outcome["optimal"].config.detector.ordering == "optimal"
    assert outcome["suboptimal"].config.detector.ordering == "suboptimal"
    if outcome["gap_db"] is not None:
        assert abs(outcome["gap_db"]) < 4.0


# ---------------------------------------------------------------------------
# Mutual information machinery
# ---------------------------------------------------------------------------

def test_j_function_limits_and_monotonicity():
    assert j_function(0.0) == 0.0
    values = [j_function(s) for s in (0.5, 1.0, 2.0, 4.0, 8.0)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] > 0.99


def test_j_inverse_round_trip():
    for i_a in (0.05, 0.3, 0.6, 0.95):
        assert j_function(j_inverse(i_a)) == pytest.approx(i_a, abs=1e-6)


def test_histogram_mi_matches_j_oracle():
    rng = np.random.default_rng(8)
    for i_a in (0.25, 0.5, 0.75):
        sigma = j_inverse(i_a)
        bits = rng.integers(0, 2, size=150_000)
        llrs = sigma**2 / 2 * (1 - 2 * bits) + sigma * rng.standard_normal(bits.size)
        assert abs(measure_mutual_information(llrs, bits) - i_a) < 0.02


def test_degenerate_llrs_carry_no_information():
    assert measure_mutual_information(np.zeros(100), np.zeros(100, int)) == 0.0


def test_exit_curve_rises_from_open_to_saturated_priors():
    rows = exit_chart(4, 4, 10.0, [0.0, 0.999], packets=6, packet_len=150, seed=5)
    assert rows[0, 0] == 0.0
    assert 0.0 < rows[0, 1] < rows[1, 1] <= 1.0


def reference_exit_chart(
    n_t, n_r, snr_db, i_a_grid, branches, constellation, packets, packet_len, seed,
    demap_mode,
):
    """exit_chart's draws with one demap call per (branch, stream) sequence."""
    const = make_constellation(constellation)
    c_bits = const.bits_per_symbol
    noise = snr_to_noise_variance(snr_db, n_t, c_bits)
    rows = []
    for i_a in i_a_grid:
        sigma = j_inverse(i_a)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        collected, truth = [], []
        for _ in range(packets):
            ch = rayleigh_channel(n_r, n_t, rng, noise_variance=noise)
            bank = design_perfect_feedback(ch, build_branches(n_t, branches, 1.0), tol=1e-12)
            bits = rng.integers(0, 2, size=(n_t, packet_len * c_bits))
            r = transmit_block(ch, modulate(bits, const), rng)
            bipolar = 1 - 2 * bits.reshape(n_t, packet_len, c_bits)
            priors = sigma**2 / 2.0 * bipolar + sigma * rng.standard_normal(bipolar.shape)
            if sigma == 0.0:
                priors = np.zeros_like(priors, dtype=float)
            soft = soft_symbol_estimate(priors, const)
            z = np.einsum("lja,aq->ljq", bank.w.conj(), r)
            z -= np.einsum("lja,aq->ljq", bank.f.conj(), soft)
            model = estimate_output_model(z, slice_symbols(z, const))
            lam = np.empty((branches, n_t, packet_len, c_bits))
            for l in range(branches):
                for j in range(n_t):
                    lam[l, j] = extrinsic_llr(
                        z[l, j],
                        GaussianOutputModel(model.v[l, j], model.xi_var[l, j]),
                        priors[j],
                        const,
                        mode=demap_mode,
                    )
            chosen, _ = select_llr(lam)
            collected.append(chosen.ravel())
            truth.append(bits.ravel())
        i_e = measure_mutual_information(np.concatenate(collected), np.concatenate(truth))
        rows.append((i_a, i_e))
    return np.array(rows)


@pytest.mark.parametrize("demap_mode", ["exact", "maxlog"])
@pytest.mark.parametrize("constellation", ["qpsk", "16qam"])
def test_exit_chart_matches_per_sequence_demapping(constellation, demap_mode):
    grid = [0.0, 0.4, 0.9]
    kw = dict(branches=3, constellation=constellation, packets=2, packet_len=40, seed=8)
    rows = exit_chart(3, 4, 8.0, grid, demap_mode=demap_mode, **kw)
    ref = reference_exit_chart(3, 4, 8.0, grid, demap_mode=demap_mode, **kw)
    assert np.array_equal(rows, ref)


def test_exit_chart_rejects_packets_below_the_model_floor():
    with pytest.raises(ValueError, match="detector output model"):
        exit_chart(2, 2, 10.0, [0.5], branches=2, packets=1, packet_len=MIN_MODEL_SAMPLES - 1)
    rows = exit_chart(2, 2, 10.0, [0.5], branches=2, packets=1, packet_len=MIN_MODEL_SAMPLES)
    assert rows.shape == (1, 2)


# ---------------------------------------------------------------------------
# Writers and CLI
# ---------------------------------------------------------------------------

def test_csv_json_dat_outputs(tmp_path):
    report = run_ber_sweep(tiny(min_errors=10, max_bits=2_000))
    csv_path, json_path, dat_path = (
        tmp_path / "r.csv",
        tmp_path / "r.json",
        tmp_path / "r.dat",
    )
    write_csv(report, csv_path)
    write_json(report, json_path)
    write_dat(report, dat_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "snr_db,bits,bit_errors,ber,ci_low,ci_high,detector,L,beta,seed"
    assert len(lines) == 1 + len(report.points)
    doc = json.loads(json_path.read_text())
    assert doc["config_hash"] == report.config_hash
    assert doc["points"][0]["bits"] == report.points[0].bits
    assert dat_path.read_text().startswith("# snr_db ber")


def test_cli_ber_roundtrip(tmp_path):
    out = tmp_path / "cli.csv"
    rc = main(
        [
            "ber", "--n-t", "2", "--n-r", "2", "--snr", "10", "--packet-len", "40",
            "--min-errors", "10", "--max-bits", "2000", "--branches", "2",
            "--seed", "3", "--quiet", "--csv", str(out),
        ]
    )
    assert rc == 0
    assert out.read_text().splitlines()[0].startswith("snr_db,")


def test_cli_rejects_bad_configuration():
    assert main(["ber", "--n-t", "4", "--n-r", "2", "--quiet"]) == 2


def test_cli_config_file_with_flag_override(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "n-t = 2\nn-r = 2\nsnr = 10\npacket-len = 40\nmin-errors = 10\n"
        "max-bits = 2000\nbranches = 2\nseed = 1\n"
    )
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["ber", "--config", str(cfg_file), "--quiet", "--csv", str(out1)]) == 0
    assert (
        main(
            [
                "ber", "--config", str(cfg_file), "--seed", "9", "--quiet",
                "--csv", str(out2),
            ]
        )
        == 0
    )
    row1, row2 = out1.read_text().splitlines()[1], out2.read_text().splitlines()[1]
    assert row1.endswith(",1") and row2.endswith(",9")
    assert row1.split(",")[3] != row2.split(",")[3]  # different seed, different BER


def test_cli_complexity_and_exit_commands(tmp_path):
    table_json = tmp_path / "t.json"
    assert main(
        ["complexity", "--n-t", "8", "--n-r", "8", "--branches", "4", "--quiet",
         "--json", str(table_json)]
    ) == 0
    doc = json.loads(table_json.read_text())
    assert doc["mb_mmse_df_rls"]["mults"] == "10649"
    dat = tmp_path / "e.dat"
    assert main(
        ["exit", "--n-t", "2", "--n-r", "2", "--branches", "2", "--i-a", "0,0.9",
         "--packets", "2", "--packet-len", "60", "--quiet", "--dat", str(dat)]
    ) == 0
    assert dat.read_text().startswith("# i_a i_e")


def test_cli_bad_config_file(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("this line has no equals sign\n")
    assert main(["ber", "--config", str(bad), "--quiet"]) == 2
