"""Monte Carlo experiment engine and measurement utilities.

This module drives everything the library can measure: seeded BER sweeps
with confidence intervals and operation tallies, closed-form complexity
tables with exact (rational) arithmetic, empirical diversity-slope fits,
and mutual-information transfer curves of the soft detector.

Determinism is a contract: every random draw descends from the config seed
through per-SNR-point ``SeedSequence`` children, so a run is bit-identical
given the same config regardless of how points are scheduled (grid points
are independent and can fan out to worker processes).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

from .adaptive import adaptive_packet
from .codec import (
    MIN_MODEL_SAMPLES,
    ConvCode,
    GaussianOutputModel,
    encode_packet,
    estimate_output_model,
    extrinsic_llr,
    make_interleaver,
    select_llr,
    soft_symbol_estimate,
    turbo_receive,
)
from .detectors import (
    DetectorConfig,
    ML_BIT_GUARD,
    build_branches,
    detect_mb_mmse_df,
    detect_ml,
    multi_stage,
)
from .filters import design_perfect_feedback, make_branch
from .sysmodel import (
    bit_labels,
    demap_hard,
    jakes_sequence,
    make_constellation,
    modulate,
    rayleigh_channel,
    slice_symbols,
    snr_to_noise_variance,
    transmit_block,
)

__all__ = [
    "SimConfig",
    "PointResult",
    "BerReport",
    "config_hash",
    "run_ber_sweep",
    "complexity_table",
    "diversity_slope",
    "snr_at_ber",
    "order_compare",
    "j_function",
    "j_inverse",
    "measure_mutual_information",
    "exit_chart",
    "write_csv",
    "write_json",
    "write_dat",
]

_CHANNEL_MODES = ("block", "jakes")
_CSI_MODES = ("perfect", "adaptive")


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass
class SimConfig:
    """Everything one BER sweep needs, validated up front."""

    n_t: int = 4
    n_r: int = 4
    constellation: str = "qpsk"
    snr_grid: tuple = (0.0, 4.0, 8.0, 12.0)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    channel_mode: str = "block"
    doppler: float = 0.0
    packet_len: int = 500
    training_len: int = 0
    coded: bool = False
    iterations: int = 5
    csi: str = "perfect"
    seed: int = 12345
    min_errors: int = 200
    max_bits: int = 2_000_000
    workers: int = 1

    def __post_init__(self):
        if isinstance(self.detector, dict):
            self.detector = DetectorConfig(**self.detector)
        self.snr_grid = tuple(float(x) for x in self.snr_grid)
        if self.n_t < 1 or self.n_r < self.n_t:
            raise ValueError("need n_r >= n_t >= 1")
        if not self.snr_grid:
            raise ValueError("snr_grid must be nonempty")
        if self.min_errors < 1 or self.max_bits < 1:
            raise ValueError("stop rule must be positive")
        if self.packet_len < 1:
            raise ValueError("packet_len must be positive")
        if self.training_len < 0 or self.iterations < 1 or self.workers < 1:
            raise ValueError("lengths and counts must be positive")
        if self.channel_mode not in _CHANNEL_MODES:
            raise ValueError(f"unknown channel mode {self.channel_mode!r}")
        if self.csi not in _CSI_MODES:
            raise ValueError(f"unknown csi mode {self.csi!r}")
        make_constellation(self.constellation)  # validates the name


def _validate_feasibility(cfg: SimConfig) -> None:
    """Reject detector/size combinations before any simulation runs."""
    det = cfg.detector
    c = make_constellation(cfg.constellation)
    if det.kind == "ml" and cfg.n_t * c.bits_per_symbol > ML_BIT_GUARD:
        raise ValueError("ML search space exceeds the enumeration guard")
    if det.branches > math.factorial(cfg.n_t):
        raise ValueError(
            f"{det.branches} branches exceed the {cfg.n_t}! distinct orderings"
        )
    if det.ordering == "optimal" and cfg.n_t > 5:
        raise ValueError("optimal ordering search is limited to n_t <= 5")
    if cfg.channel_mode == "jakes":
        if cfg.csi != "adaptive":
            raise ValueError("time-varying channels require the adaptive receiver")
        if cfg.doppler <= 0:
            raise ValueError("jakes mode needs a positive doppler rate")
    elif cfg.doppler:
        raise ValueError("a doppler rate needs channel_mode='jakes'")
    if cfg.csi == "adaptive":
        if det.kind != "mbdf":
            raise ValueError("the adaptive receiver implements the multi-branch detector")
        if det.ordering == "optimal":
            raise ValueError("the adaptive receiver cannot run channel-exhaustive ordering")
        if cfg.training_len < 1:
            raise ValueError("the adaptive receiver needs a training prefix")
    if cfg.coded:
        if cfg.csi != "perfect":
            raise ValueError("the coded pipeline runs with perfect channel knowledge")
        if det.kind != "mbdf":
            raise ValueError("the coded pipeline uses the multi-branch detector")
        # the floor also leaves room for the code's tail
        if cfg.packet_len < MIN_MODEL_SAMPLES:
            raise ValueError(
                f"coded packets need at least {MIN_MODEL_SAMPLES} symbols to fit "
                f"the detector output model, got {cfg.packet_len}"
            )
        if cfg.packet_len * c.bits_per_symbol % 2:
            raise ValueError("the rate-1/2 code needs an even number of coded bits")


def config_hash(cfg: SimConfig) -> str:
    """sha256 over the canonical JSON form of the config."""
    payload = json.dumps(asdict(cfg), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class PointResult:
    """Aggregate of one SNR grid point.

    ``ci_low``/``ci_high`` bound the BER by the 95% Wilson score interval.
    ``cond_fallbacks`` sums the adaptive receiver's ill-conditioned ridge
    removals (``RlsState.cond_fallbacks``) over the point's packets; it is 0
    for runs with known channels.
    """

    snr_db: float
    bits: int
    bit_errors: int
    ber: float
    ci_low: float
    ci_high: float
    frames: int
    frame_errors: int
    mults_per_vector: float
    adds_per_vector: float
    cond_fallbacks: int = 0


@dataclass
class BerReport:
    """One sweep's results plus provenance."""

    config: SimConfig
    config_hash: str
    points: list

    @property
    def ber(self) -> np.ndarray:
        return np.array([p.ber for p in self.points])

    @property
    def snr_db(self) -> np.ndarray:
        return np.array([p.snr_db for p in self.points])


def _confidence(bits: int, errors: int) -> tuple[float, float, float]:
    """BER and its 95% Wilson score interval, [0, z²/(n+z²)] at zero errors.

    Unlike the Wald interval it does not collapse to [0, 0] when no error
    was seen.  With no bits at all, nothing is known: [0, 1].
    """
    if not bits:
        return 0.0, 0.0, 1.0
    z = 1.96
    ber = errors / bits
    z2n = z * z / bits
    center = (ber + z2n / 2) / (1 + z2n)
    half = z * math.sqrt(ber * (1.0 - ber) / bits + z2n / (4 * bits)) / (1 + z2n)
    return ber, max(center - half, 0.0), min(center + half, 1.0)


# ---------------------------------------------------------------------------
# The sweep engine
# ---------------------------------------------------------------------------

def _design_bank(cfg: SimConfig, channel, noise_variance, fixed_branches):
    det = cfg.detector
    if det.ordering == "fixed":
        branches = fixed_branches
    else:
        branches = build_branches(
            cfg.n_t,
            det.branches,
            det.beta,
            ordering=det.ordering,
            channel=channel,
            sigma_n2=noise_variance,
        )
    return design_perfect_feedback(channel, branches, tol=1e-12), branches


def _detect_uncoded(cfg: SimConfig, channel, r, constellation, fixed_branches):
    det = cfg.detector
    if det.kind == "ml":
        return detect_ml(r, channel, constellation)
    if det.kind == "mbdf":
        bank, _ = _design_bank(cfg, channel, channel.noise_variance, fixed_branches)
        if det.stages > 1:
            return multi_stage(
                r, bank, constellation, stages=det.stages,
                metric=det.metric, selection=det.selection,
            )
    else:
        # linear, SIC and DF: one natural-order branch, linear without feedback
        beta = 0.0 if det.kind == "linear" else det.beta
        branch = make_branch(cfg.n_t, np.arange(cfg.n_t), beta)
        bank = design_perfect_feedback(channel, [branch], tol=1e-12)
    return detect_mb_mmse_df(
        r, bank, constellation, metric=det.metric, selection=det.selection
    )


def _run_point(cfg: SimConfig, snr_db: float, seed_seq) -> PointResult:
    rng = np.random.default_rng(seed_seq)
    constellation = make_constellation(cfg.constellation)
    c_bits = constellation.bits_per_symbol
    rate = 0.5 if cfg.coded else 1.0
    noise = snr_to_noise_variance(snr_db, cfg.n_t, c_bits, code_rate=rate)
    det = cfg.detector
    fixed_branches = None
    if det.kind == "mbdf" and det.ordering == "fixed":
        fixed_branches = build_branches(cfg.n_t, det.branches, det.beta)
    q = cfg.packet_len
    n_tr = cfg.training_len
    k_info = q * c_bits // 2 - 2  # info bits per stream, coded packets
    bits = errors = frames = frame_errors = vectors = 0
    ops_m = ops_a = fallbacks = 0
    while errors < cfg.min_errors and bits < cfg.max_bits:
        if cfg.channel_mode == "jakes":
            channel = jakes_sequence(
                cfg.n_r, cfg.n_t, cfg.doppler, n_tr + q, rng, noise_variance=noise
            )
        else:
            channel = rayleigh_channel(cfg.n_r, cfg.n_t, rng, noise_variance=noise)
        if cfg.coded:
            info = rng.integers(0, 2, size=(cfg.n_t, k_info))
            perms = np.stack(
                [make_interleaver(q * c_bits, rng) for _ in range(cfg.n_t)]
            )
            payload = encode_packet(info, perms, constellation)
        else:
            info = rng.integers(0, 2, size=(cfg.n_t, q * c_bits))
            payload = modulate(info, constellation)
        if n_tr:
            pilots = constellation.points[
                rng.integers(0, constellation.size, size=(cfg.n_t, n_tr))
            ]
            sent = np.concatenate([pilots, payload], axis=1)
        else:
            sent = payload
        r = transmit_block(channel, sent, rng)
        if cfg.csi == "adaptive":
            branches = fixed_branches or build_branches(cfg.n_t, det.branches, det.beta)
            reorder = 50 if det.ordering == "suboptimal" else 0
            decisions, state = adaptive_packet(
                r,
                sent[:, :n_tr],
                constellation,
                branches,
                metric=det.metric,
                selection=det.selection,
                reorder_every=reorder,
            )
            got = demap_hard(decisions[:, n_tr:], constellation)
            pkt_errors = int(np.sum(got != info))
            ops_m += state.op_counts.mults
            ops_a += state.op_counts.adds
            fallbacks += state.cond_fallbacks
        elif cfg.coded:
            bank, _ = _design_bank(cfg, channel, noise, fixed_branches)
            res = turbo_receive(
                r,
                bank,
                constellation,
                perms,
                iterations=cfg.iterations,
                metric=det.metric,
                selection=det.selection,
            )
            pkt_errors = int(np.sum(res.info_bits != info))
            ops_m += res.op_counts.mults
            ops_a += res.op_counts.adds
        else:
            res = _detect_uncoded(cfg, channel, r, constellation, fixed_branches)
            got = demap_hard(res.symbols, constellation)
            pkt_errors = int(np.sum(got != info))
            ops_m += res.op_counts.mults
            ops_a += res.op_counts.adds
        bits += info.size
        errors += pkt_errors
        frames += 1
        frame_errors += int(pkt_errors > 0)
        vectors += n_tr + q
    ber, lo, hi = _confidence(bits, errors)
    return PointResult(
        snr_db, bits, errors, ber, lo, hi, frames, frame_errors,
        ops_m / vectors if vectors else 0.0,
        ops_a / vectors if vectors else 0.0,
        fallbacks,
    )


def _point_job(args):
    return _run_point(*args)


def run_ber_sweep(cfg: SimConfig) -> BerReport:
    """Simulate every SNR grid point under the configured stop rule.

    Deterministic given the config: each point owns a ``SeedSequence`` child
    of the master seed, so results do not depend on scheduling.  Training
    symbols never count toward the error rates.
    """
    _validate_feasibility(cfg)
    children = np.random.SeedSequence(cfg.seed).spawn(len(cfg.snr_grid))
    jobs = list(zip([cfg] * len(children), cfg.snr_grid, children))
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            points = list(pool.map(_point_job, jobs))
    else:
        points = [_point_job(j) for j in jobs]
    return BerReport(cfg, config_hash(cfg), points)


# ---------------------------------------------------------------------------
# Complexity accounting
# ---------------------------------------------------------------------------

def complexity_table(n_t: int, n_r: int, l: int, m: int = 4, sd_radius: float = 1.0):
    """Closed-form per-received-vector operation counts.

    Integer-valued rows come back as ints, the successive-cancellation row
    as exact :class:`fractions.Fraction` (its cubic term is not integral
    for every ``n_r``), and the sphere-search bound as floats clearly
    labeled analytic-only (nothing in this package implements it).
    """
    if n_t < 1 or n_r < 1:
        raise ValueError("dimensions must be positive")
    if l < 1:
        raise ValueError("need at least one branch")
    mb_mults = 3 * n_r**2 + 2 * n_r * n_t + 3 * n_r + 1 + l * (5 * n_r * n_t**2 + 2 * n_r)
    mb_adds = (
        2 * n_r**2 + n_r * n_t - 1
        + l * (3 * n_r * n_t**2 + 2 * n_t**2 - 3 * n_r * n_t + n_r - n_t)
    )
    sic_mults = Fraction(2, 3) * n_r**3 + Fraction(25, 2) * n_r**2 + 3 * n_r
    sic_adds = Fraction(2, 3) * n_r**3 + Fraction(11, 2) * n_r**2 + 4 * n_r
    lin_mults = n_t * (3 * n_r**2 + 4 * n_r + 1)
    lin_adds = n_t * (3 * n_r**2 + 2 * n_r - 1) + 2 * n_r * n_t
    est_mults = n_r * n_t**2 + 4 * n_t**2 + 2 * n_t * n_r + 2 * n_t + 2
    est_adds = n_r * n_t**2 + 4 * n_t**2 - n_t
    ks = np.arange(1, n_t + 1)
    shell = np.pi ** (ks / 2.0) / np.array([math.gamma(k / 2.0 + 1.0) for k in ks])
    shell = shell * sd_radius**ks
    sd_mults = float(np.sum(m * ks * shell) + 2 * n_t**2)
    sd_adds = float(np.sum(m * (ks + 1) * shell) + 2 * n_t**2 - n_t + 2)
    simplify = lambda x: int(x) if x.denominator == 1 else x
    return {
        "mb_mmse_df_rls": {"mults": mb_mults, "adds": mb_adds},
        "sic_rls": {"mults": simplify(sic_mults), "adds": simplify(sic_adds)},
        "linear_rls": {"mults": lin_mults, "adds": lin_adds},
        "channel_estimation_rls": {"mults": est_mults, "adds": est_adds},
        "sd_bound_analytic_only": {"mults": sd_mults, "adds": sd_adds},
    }


# ---------------------------------------------------------------------------
# Diversity slope
# ---------------------------------------------------------------------------

def diversity_slope(report, window: tuple | None = None) -> float:
    """Least-squares slope of log10(BER) against snr_db / 10.

    Accepts a :class:`BerReport` or an iterable of (snr_db, ber) pairs.
    Only points with 0 < BER < 1e-2 inside ``window`` enter the fit; fewer
    than three such points is an error (the estimate would be meaningless).
    """
    if isinstance(report, BerReport):
        pairs = [(p.snr_db, p.ber) for p in report.points]
    else:
        pairs = [(float(s), float(b)) for s, b in report]
    if window is not None:
        lo, hi = window
        pairs = [(s, b) for s, b in pairs if lo <= s <= hi]
    pairs = [(s, b) for s, b in pairs if 0.0 < b < 1e-2]
    if len(pairs) < 3:
        raise ValueError(
            f"diversity fit needs >= 3 points with 0 < BER < 1e-2, found {len(pairs)}"
        )
    x = np.array([s / 10.0 for s, _ in pairs])
    y = np.log10([b for _, b in pairs])
    return float(-np.polyfit(x, y, 1)[0])


def snr_at_ber(report: BerReport, target: float) -> float | None:
    """SNR (dB) where the curve crosses ``target``, log-linear interpolation.

    Returns None when the curve never brackets the target.
    """
    pts = sorted((p.snr_db, p.ber) for p in report.points)
    for (s1, b1), (s2, b2) in zip(pts, pts[1:]):
        lo, hi = min(b1, b2), max(b1, b2)
        if lo <= target <= hi and lo > 0 and b1 != b2:
            frac = (math.log10(target) - math.log10(b1)) / (
                math.log10(b2) - math.log10(b1)
            )
            return s1 + frac * (s2 - s1)
    return None


def order_compare(cfg: SimConfig, target_ber: float = 1e-2) -> dict:
    """Optimal vs suboptimal ordering sweeps on shared random draws.

    Both runs reuse ``cfg`` verbatim except for the ordering mode (same
    seed, so the channels and noise coincide), and the horizontal gap is
    read off at ``target_ber`` by log-linear interpolation.
    """
    reports = {}
    for mode in ("optimal", "suboptimal"):
        det = DetectorConfig(**{**asdict(cfg.detector), "ordering": mode})
        reports[mode] = run_ber_sweep(
            SimConfig(**{**asdict(cfg), "detector": det})
        )
    snr_opt = snr_at_ber(reports["optimal"], target_ber)
    snr_sub = snr_at_ber(reports["suboptimal"], target_ber)
    gap = None if snr_opt is None or snr_sub is None else snr_sub - snr_opt
    return {
        "optimal": reports["optimal"],
        "suboptimal": reports["suboptimal"],
        "snr_optimal": snr_opt,
        "snr_suboptimal": snr_sub,
        "gap_db": gap,
        "target_ber": target_ber,
    }


# ---------------------------------------------------------------------------
# Mutual-information transfer
# ---------------------------------------------------------------------------

def j_function(sigma: float) -> float:
    """Mutual information of a consistent Gaussian LLR with deviation sigma.

    The LLR of a bipolar bit x is modeled as N(x * sigma^2 / 2, sigma^2);
    the value is 1 - E[log2(1 + exp(-x * llr))], computed by quadrature.
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if sigma < 1e-9:
        return 0.0
    t = np.linspace(-12.0, 12.0, 4001)
    lam = sigma**2 / 2.0 + sigma * t
    pdf = np.exp(-0.5 * t**2) / np.sqrt(2.0 * np.pi)
    integrand = pdf * np.log2(1.0 + np.exp(-np.clip(lam, -50, 50)))
    return float(np.clip(1.0 - np.trapezoid(integrand, t), 0.0, 1.0))


def j_inverse(i_a: float) -> float:
    """Gaussian-LLR deviation whose mutual information is ``i_a``."""
    if not 0.0 <= i_a < 1.0:
        raise ValueError("mutual information must lie in [0, 1)")
    if i_a == 0.0:
        return 0.0
    lo, hi = 1e-6, 60.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if j_function(mid) < i_a:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def measure_mutual_information(llrs, bits, n_bins: int = 64) -> float:
    """Histogram estimate of I(bit; llr) for 0/1 bits, in bits."""
    llrs = np.asarray(llrs, dtype=float).ravel()
    bits = np.asarray(bits, dtype=int).ravel()
    if llrs.size != bits.size:
        raise ValueError("need one bit per LLR")
    if llrs.size == 0 or np.ptp(llrs) < 1e-12:
        return 0.0
    edges = np.histogram_bin_edges(llrs, bins=n_bins)
    mi = 0.0
    densities = {}
    for x in (0, 1):
        sel = llrs[bits == x]
        if sel.size == 0:
            return 0.0
        hist, _ = np.histogram(sel, bins=edges)
        densities[x] = hist / sel.size
    p0 = np.mean(bits == 0)
    mix = p0 * densities[0] + (1 - p0) * densities[1]
    for x, px in ((0, p0), (1, 1 - p0)):
        cond = densities[x]
        ok = (cond > 0) & (mix > 0)
        mi += px * np.sum(cond[ok] * np.log2(cond[ok] / mix[ok]))
    return float(max(mi, 0.0))


def exit_chart(
    n_t: int,
    n_r: int,
    snr_db: float,
    i_a_grid,
    branches: int = 4,
    beta: float = 1.0,
    constellation: str = "qpsk",
    packets: int = 20,
    packet_len: int = 200,
    seed: int = 2024,
    metric: str = "full",
    selection: str = "joint",
    demap_mode: str = "exact",
) -> np.ndarray:
    """Detector transfer curve: prior MI in, extrinsic MI out.

    For each prior information value, synthetic consistent-Gaussian LLRs of
    the true coded bits (deviation from the J-function inverse) drive one
    soft detection pass — soft-symbol feedback through the feedback filters,
    scalar output model, prior-aware demapping, branch selection — and the
    output information is measured against the true bits by histogram MI.

    Returns an array of (i_a, i_e) rows.
    """
    if packet_len < MIN_MODEL_SAMPLES:
        raise ValueError(
            f"packet_len must be at least {MIN_MODEL_SAMPLES} to fit the detector "
            f"output model, got {packet_len}"
        )
    const = make_constellation(constellation)
    c_bits = const.bits_per_symbol
    noise = snr_to_noise_variance(snr_db, n_t, c_bits)
    rows = []
    for i_a in np.atleast_1d(np.asarray(i_a_grid, dtype=float)):
        sigma = j_inverse(float(i_a))
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        collected = []
        truth = []
        for _ in range(packets):
            ch = rayleigh_channel(n_r, n_t, rng, noise_variance=noise)
            bank = design_perfect_feedback(
                ch, build_branches(n_t, branches, beta), tol=1e-12
            )
            bits = rng.integers(0, 2, size=(n_t, packet_len * c_bits))
            s = modulate(bits, const)
            r = transmit_block(ch, s, rng)
            bipolar = 1 - 2 * bits.reshape(n_t, packet_len, c_bits)
            priors = sigma**2 / 2.0 * bipolar + sigma * rng.standard_normal(
                bipolar.shape
            )
            if sigma == 0.0:
                priors = np.zeros_like(priors, dtype=float)
            soft = soft_symbol_estimate(priors, const)
            z = np.einsum("lja,aq->ljq", bank.w.conj(), r)
            z -= np.einsum("lja,aq->ljq", bank.f.conj(), soft)
            model = estimate_output_model(z, slice_symbols(z, const))
            # one demap over every (branch, stream) sequence, each with its own model
            lam = extrinsic_llr(
                z.ravel(),
                GaussianOutputModel(
                    np.repeat(model.v, packet_len), np.repeat(model.xi_var, packet_len)
                ),
                np.broadcast_to(priors, z.shape + (c_bits,)).reshape(-1, c_bits),
                const,
                mode=demap_mode,
            ).reshape(z.shape + (c_bits,))
            chosen, _ = select_llr(lam)
            collected.append(chosen.ravel())
            truth.append(bits.ravel())
        i_e = measure_mutual_information(
            np.concatenate(collected), np.concatenate(truth)
        )
        rows.append((float(i_a), i_e))
    return np.array(rows)


# ---------------------------------------------------------------------------
# Writers
# ---------------------------------------------------------------------------

def write_csv(report: BerReport, path) -> None:
    """One row per SNR point, stable column order."""
    cfg = report.config
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "snr_db", "bits", "bit_errors", "ber", "ci_low", "ci_high",
                "detector", "L", "beta", "seed",
            ]
        )
        for p in report.points:
            writer.writerow(
                [
                    p.snr_db, p.bits, p.bit_errors,
                    f"{p.ber:.8e}", f"{p.ci_low:.8e}", f"{p.ci_high:.8e}",
                    cfg.detector.kind, cfg.detector.branches,
                    cfg.detector.beta, cfg.seed,
                ]
            )


def write_json(report: BerReport, path) -> None:
    """Full report: config, hash, every per-point field."""
    doc = {
        "config": asdict(report.config),
        "config_hash": report.config_hash,
        "points": [asdict(p) for p in report.points],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, default=str)


def write_dat(report: BerReport, path) -> None:
    """Space-separated columns with a comment header (gnuplot-friendly)."""
    with open(path, "w") as fh:
        fh.write("# snr_db ber ci_low ci_high bits bit_errors\n")
        for p in report.points:
            fh.write(
                f"{p.snr_db} {p.ber:.8e} {p.ci_low:.8e} {p.ci_high:.8e} "
                f"{p.bits} {p.bit_errors}\n"
            )
