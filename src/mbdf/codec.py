"""Convolutional coding and the iterative soft detection-decoding loop.

The receive chain couples the multi-branch decision-feedback detector to a
rate-1/2 convolutional code.  Soft detector outputs are condensed into
per-bit log-likelihood ratios through a scalar Gaussian model fitted per
stream and branch, the strongest branch's LLR is kept for every bit, and an
exact log-MAP BCJR decoder turns the result into coded-bit extrinsics plus
information-bit decisions.  The decoder takes a stack of sequences (trailing
axis one sequence, leading axes independent ones) and runs its forward and
backward recursions over all of them at once, so a turbo pass decodes every
stream in one call.  Decoder extrinsics come back as the demapper's
symbol priors on the next pass, while the decoder posteriors supply the soft
symbols that feed the feedback filters — and, when the channel is available,
the measured reliability of those symbols drives a per-pass refit of the
filter bank itself.

LLR sign convention throughout: ``llr = log P(bit = 0) / P(bit = 1)``, so a
positive value favors binary 0 — the value the modulator maps to the
positive axis.  Bipolar form is ``x = 1 - 2 b``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .counters import OpCounter
from .detectors import detect_mb_mmse_df
from .filters import FilterBank, design_soft_feedback
from .sysmodel import Constellation, bit_labels, modulate, slice_symbols

__all__ = [
    "ConvCode",
    "GaussianOutputModel",
    "BcjrResult",
    "TurboResult",
    "conv_encode",
    "make_interleaver",
    "interleave",
    "deinterleave",
    "encode_packet",
    "estimate_output_model",
    "extrinsic_llr",
    "select_llr",
    "bcjr_decode",
    "soft_symbol_estimate",
    "turbo_receive",
]

LLR_CLAMP = 50.0
VARIANCE_FLOOR = 1e-6
# fewest soft outputs per sequence that the scalar output model is fitted from
MIN_MODEL_SAMPLES = 20
NEG_INF = -1e30


# ---------------------------------------------------------------------------
# Convolutional code
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvCode:
    """Feedforward binary convolutional code, terminated to the zero state.

    ``generators`` are octal-style tap masks over the window
    (current input, previous input, ...), most significant bit = current
    input.  The default (7, 5) with constraint length 3 is the classic
    4-state rate-1/2 code; encoding k information bits appends
    ``constraint_length - 1`` flush zeros, so the output holds
    ``n_outputs * (k + memory)`` coded bits.
    """

    generators: tuple[int, ...] = (0o7, 0o5)
    constraint_length: int = 3

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))  # hashable
        if self.constraint_length < 2:
            raise ValueError("constraint length must be at least 2")
        top = 1 << self.constraint_length
        if not self.generators or any(not 0 < g < top for g in self.generators):
            raise ValueError("generator taps must fit the constraint length")

    @property
    def memory(self) -> int:
        return self.constraint_length - 1

    @property
    def n_states(self) -> int:
        return 1 << self.memory

    @property
    def n_outputs(self) -> int:
        return len(self.generators)

    @property
    def rate(self) -> float:
        return 1.0 / self.n_outputs


@functools.lru_cache(maxsize=None)
def _trellis(code: ConvCode):
    """Read-only (next_state, outputs, predecessors, split) tables of ``code``.

    ``next_state[s, u]`` and ``outputs[s, u]`` give the state and coded bits
    after input ``u`` in state ``s``.  Transitions are indexed flat as
    ``s * 2 + u``: ``predecessors[n]`` holds the two that enter state ``n``,
    and ``split[c, b]`` the ``n_states`` whose label ``c`` is bit ``b``, label
    0 being the input and label ``1 + g`` the output of generator ``g``.
    """
    n_s, mem = code.n_states, code.memory
    s, u = np.arange(n_s)[:, None], np.arange(2)[None, :]
    window = (u << mem) | s  # constraint_length recent bits, newest high
    out = np.array([[[bin(w & g).count("1") & 1 for g in code.generators]
                     for w in row] for row in window])
    nxt = (u << (mem - 1)) | (s >> 1)
    pred = np.argsort(nxt.ravel(), kind="stable").reshape(n_s, 2)
    # every label is a nonzero parity of the window, so it is 0 on exactly
    # half of the transitions
    labels = np.concatenate([np.broadcast_to(u, (n_s, 2))[..., None], out], axis=-1)
    split = np.argsort(labels.reshape(2 * n_s, -1).T, kind="stable")
    split = split.reshape(-1, 2, n_s)
    for table in (nxt, out, pred, split):
        table.setflags(write=False)
    return nxt, out, pred, split


def conv_encode(bits, code: ConvCode = ConvCode()) -> np.ndarray:
    """Encode a 0/1 bit sequence, flushing the register back to zero."""
    bits = np.asarray(bits, dtype=int).ravel()
    if bits.size and (bits.min() < 0 or bits.max() > 1):
        raise ValueError("bits must be 0/1")
    nxt, out, _, _ = _trellis(code)
    coded = np.empty((bits.size + code.memory, code.n_outputs), dtype=int)
    state = 0
    for i, u in enumerate(np.concatenate([bits, np.zeros(code.memory, dtype=int)])):
        coded[i] = out[state, u]
        state = nxt[state, u]
    return coded.ravel()


# ---------------------------------------------------------------------------
# Interleaving
# ---------------------------------------------------------------------------

def make_interleaver(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random permutation of ``n`` positions."""
    return rng.permutation(n)


def interleave(seq, perm) -> np.ndarray:
    """Permute the last axis: output position i holds input ``perm[..., i]``.

    ``perm`` broadcasts against the leading axes of ``seq``, so a stack of
    permutations permutes each stacked sequence by its own.
    """
    seq, perm = _aligned(seq, perm)
    return np.take_along_axis(seq, perm, axis=-1)


def deinterleave(seq, perm) -> np.ndarray:
    """Inverse of :func:`interleave` with the same permutation."""
    seq, perm = _aligned(seq, perm)
    out = np.empty_like(seq)
    np.put_along_axis(out, perm, seq, axis=-1)
    return out


def _aligned(seq, perm) -> tuple[np.ndarray, np.ndarray]:
    seq = np.asarray(seq)
    perm = np.asarray(perm, dtype=int)
    if seq.shape[-1] != perm.shape[-1]:
        raise ValueError("sequence length does not match the permutation")
    return seq, np.broadcast_to(perm, seq.shape)


def encode_packet(
    info_bits: np.ndarray,
    perms: np.ndarray,
    constellation: Constellation,
    code: ConvCode = ConvCode(),
) -> np.ndarray:
    """Per-stream encode -> interleave -> modulate.

    ``info_bits`` is (n_streams, k); ``perms`` is (n_streams, n_coded) with
    ``n_coded = n_outputs * (k + memory)``, which must be a multiple of the
    constellation's bits per symbol.  Returns the (n_streams, q) symbol block.
    """
    info_bits = np.asarray(info_bits, dtype=int)
    if info_bits.ndim != 2:
        raise ValueError("info bits must be (n_streams, k)")
    coded = np.stack([conv_encode(row, code) for row in info_bits])
    return modulate(interleave(coded, perms), constellation)


# ---------------------------------------------------------------------------
# Gaussian output model
# ---------------------------------------------------------------------------

@dataclass
class GaussianOutputModel:
    """Scalar model ``z = v * s + xi`` fitted to detector soft outputs.

    ``v`` and ``xi_var`` carry one entry per fitted sequence (any leading
    shape); ``xi_var`` is floored to stay positive.
    """

    v: np.ndarray
    xi_var: np.ndarray


def estimate_output_model(
    z,
    reference,
    sigma_s2: float = 1.0,
    min_samples: int = MIN_MODEL_SAMPLES,
    previous: GaussianOutputModel | None = None,
) -> GaussianOutputModel:
    """Fit (v, xi_var) by sample averages over the trailing axis.

    ``v = mean(conj(reference) * z) / sigma_s2`` and ``xi_var`` is the mean
    squared residual.  Below ``min_samples`` the previous model is returned
    unchanged (an error if there is none).
    """
    z = np.asarray(z, dtype=complex)
    ref = np.asarray(reference, dtype=complex)
    if z.shape != ref.shape:
        raise ValueError("samples and reference symbols must share a shape")
    if z.shape[-1] < min_samples:
        if previous is None:
            raise ValueError(
                f"{z.shape[-1]} samples is below the floor of {min_samples} "
                "and no previous model was given"
            )
        return previous
    v = (ref.conj() * z).mean(axis=-1) / sigma_s2
    resid = z - v[..., None] * ref
    xi = np.maximum((np.abs(resid) ** 2).mean(axis=-1), VARIANCE_FLOOR)
    return GaussianOutputModel(np.asarray(v), np.asarray(xi))


# ---------------------------------------------------------------------------
# Demapping
# ---------------------------------------------------------------------------

def extrinsic_llr(
    z,
    model: GaussianOutputModel,
    priors,
    constellation: Constellation,
    mode: str = "exact",
    include_priors: bool = True,
) -> np.ndarray:
    """Per-bit extrinsic LLRs of one soft-output sequence.

    Args:
        z: (n,) complex samples.
        model: scalar ``v`` / ``xi_var`` (or per-sample arrays of length n).
        priors: (n, C) a-priori LLRs of the bits of each symbol, or None.
        mode: ``"exact"`` log-sum-exp over the point sets, or ``"maxlog"``.
        include_priors: fold the priors of a symbol's other bits into the
            sums and subtract the bit's own prior (extrinsic convention).
            When False the literal prior-free form is computed.

    Returns:
        (n, C) clamped LLRs, positive favoring binary 0.
    """
    if mode not in ("exact", "maxlog"):
        raise ValueError(f"unknown demapper mode {mode!r} (use 'exact' or 'maxlog')")
    z = np.asarray(z, dtype=complex).ravel()
    n = z.size
    c_bits = constellation.bits_per_symbol
    if priors is None:
        priors = np.zeros((n, c_bits))
    priors = np.asarray(priors, dtype=float)
    if priors.shape != (n, c_bits):
        raise ValueError(f"priors must be ({n}, {c_bits}), got {priors.shape}")
    v = np.broadcast_to(np.asarray(model.v), (n,))
    xi = np.maximum(np.broadcast_to(np.asarray(model.xi_var, dtype=float), (n,)), VARIANCE_FLOOR)
    labels = bit_labels(constellation)  # (M, C)
    bipolar = 1 - 2 * labels
    # Gaussian log-metric of every point, (n, M)
    metric = -np.abs(z[:, None] - v[:, None] * constellation.points[None, :]) ** 2
    metric = metric / (2.0 * xi[:, None])
    if include_priors:
        metric = metric + 0.5 * priors @ bipolar.T
    out = np.empty((n, c_bits))
    for c in range(c_bits):
        on = metric[:, labels[:, c] == 0]
        off = metric[:, labels[:, c] == 1]
        if mode == "maxlog":
            post = on.max(axis=1) - off.max(axis=1)
        else:
            post = _logsumexp(on) - _logsumexp(off)
        out[:, c] = post - priors[:, c] if include_priors else post
    return np.clip(out, -LLR_CLAMP, LLR_CLAMP)


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """Log-sum-exp over the last axis, safe against overflow."""
    peak = a.max(axis=-1)
    return peak + np.log(np.exp(a - peak[..., None]).sum(axis=-1))


def select_llr(per_branch, mode: str = "literal") -> tuple[np.ndarray, np.ndarray]:
    """Keep one branch's LLR for every bit position.

    ``per_branch`` stacks the branch values on axis 0.  The default
    ``"literal"`` mode takes the signed argmax (ties -> lowest branch
    index); ``"magnitude"`` picks the largest absolute value, keeping its
    sign.  Returns (selected values, branch indices).
    """
    vals = np.asarray(per_branch)
    if vals.ndim < 1 or vals.shape[0] < 1:
        raise ValueError("need at least one branch of LLRs")
    if mode == "literal":
        idx = np.argmax(vals, axis=0)
    elif mode == "magnitude":
        idx = np.argmax(np.abs(vals), axis=0)
    else:
        raise ValueError(f"unknown selection mode {mode!r}")
    chosen = np.take_along_axis(vals, idx[None], axis=0)[0]
    return chosen, idx


# ---------------------------------------------------------------------------
# BCJR decoding
# ---------------------------------------------------------------------------

@dataclass
class BcjrResult:
    """Log-domain forward-backward output; leading axes index sequences."""

    posterior: np.ndarray  # a-posteriori LLR per coded bit
    extrinsic: np.ndarray  # posterior minus the input prior
    info_llrs: np.ndarray  # a-posteriori LLR per information bit
    info_bits: np.ndarray  # hard decisions on the information bits


def bcjr_decode(llr_in, code: ConvCode = ConvCode()) -> BcjrResult:
    """Exact log-MAP decoding of terminated convolutional sequences.

    The trailing axis of ``llr_in`` is one sequence, one LLR per coded bit
    (channel plus any prior); any leading axes index independent sequences,
    decoded together and kept in the result.  The trellis starts and ends in
    the zero state; the final ``memory`` steps carry the flush zeros, so
    information LLRs cover only the leading ``n_coded / n_outputs - memory``
    steps.  Non-finite LLRs are rejected.
    """
    llr_in = np.atleast_1d(np.asarray(llr_in, dtype=float))
    lead, n_coded = llr_in.shape[:-1], llr_in.shape[-1]
    n_out = code.n_outputs
    if n_coded % n_out:
        raise ValueError("coded length is not a multiple of the output count")
    steps = n_coded // n_out
    k = steps - code.memory
    if k < 1:
        raise ValueError("sequence too short to carry information bits")
    if not np.isfinite(llr_in).all():
        raise ValueError("input LLRs must be finite")
    nxt, out, pred, split = _trellis(code)
    n_s = code.n_states
    half = 0.5 * llr_in.reshape(-1, steps, n_out).transpose(1, 0, 2)  # (T, B, g)
    n_b = half.shape[1]
    # branch metrics gamma[t, b, s, u] = sum_g bipolar * half-prior; the
    # flush steps force input 0
    gamma = (half[:, :, None, None, :] * (1 - 2 * out)).sum(axis=-1)
    gamma[k:, :, :, 1] = NEG_INF
    alpha = np.full((steps + 1, n_b, n_s), NEG_INF)
    beta = np.full((steps + 1, n_b, n_s), NEG_INF)
    alpha[0, :, 0] = 0.0
    beta[steps, :, 0] = 0.0
    for t in range(steps):
        into = (alpha[t][:, :, None] + gamma[t]).reshape(n_b, 2 * n_s)[:, pred]
        alpha[t + 1] = np.logaddexp(into[..., 0], into[..., 1])
    for t in range(steps - 1, -1, -1):
        leave = gamma[t] + beta[t + 1][:, nxt]
        beta[t] = np.logaddexp(leave[..., 0], leave[..., 1])
    # joint log-weight of every transition, (T, B, 2 * n_s)
    weights = (alpha[:-1, :, :, None] + gamma + beta[1:][:, :, nxt]).reshape(
        steps, n_b, 2 * n_s
    )
    sums = _logsumexp(weights[..., split])  # (T, B, 1 + n_out, 2)
    llrs = sums[..., 0] - sums[..., 1]  # (T, B, 1 + n_out)
    posterior = llrs[:, :, 1:].transpose(1, 0, 2).reshape(llr_in.shape)
    info_llrs = llrs[:k, :, 0].T.reshape(*lead, k)
    return BcjrResult(
        posterior, posterior - llr_in, info_llrs, (info_llrs < 0).astype(int)
    )


# ---------------------------------------------------------------------------
# Soft symbols
# ---------------------------------------------------------------------------

def soft_symbol_estimate(priors, constellation: Constellation) -> np.ndarray:
    """Expected symbol under the prior-induced bit distribution.

    ``priors`` is (..., C); bits are independent with
    ``P(bit = 0) = 1 / (1 + exp(-llr))``.  Returns the complex mean symbol
    for each leading index.
    """
    priors = np.asarray(priors, dtype=float)
    c_bits = constellation.bits_per_symbol
    if priors.shape[-1] != c_bits:
        raise ValueError(f"priors must have {c_bits} trailing entries")
    bipolar = (1 - 2 * bit_labels(constellation)).astype(float)  # (M, C)
    # log P(point) = sum_c -log(1 + exp(-bipolar * llr)), stable via logaddexp
    logp = -np.logaddexp(0.0, -priors[..., None, :] * bipolar).sum(axis=-1)
    return np.exp(logp) @ constellation.points


# ---------------------------------------------------------------------------
# Iterative receiver
# ---------------------------------------------------------------------------

@dataclass
class TurboResult:
    """Outcome of the iterative detection-decoding loop."""

    info_bits: np.ndarray  # (n_streams, k) final hard decisions
    info_llrs: np.ndarray  # matching a-posteriori LLRs
    iteration_bits: list  # per-iteration hard decisions
    ber_trace: np.ndarray | None  # per-iteration BER when truth is given
    branch_choices: np.ndarray  # last-iteration per-bit branch indices
    op_counts: OpCounter = field(default_factory=OpCounter)


def turbo_receive(
    r,
    bank: FilterBank,
    constellation: Constellation,
    perms,
    code: ConvCode = ConvCode(),
    iterations: int = 5,
    demap_mode: str = "exact",
    select_mode: str = "literal",
    metric: str = "full",
    selection: str = "joint",
    min_samples: int = MIN_MODEL_SAMPLES,
    channel=None,
    true_bits: np.ndarray | None = None,
) -> TurboResult:
    """Iteratively detect and decode one coded packet.

    The first pass runs the hard multi-branch detector and keeps its
    per-branch soft outputs (feedback built from hard slices).  Every pass
    fits the scalar Gaussian model per (stream, branch), demaps to extrinsic
    LLRs with the decoder's interleaved extrinsics as priors (zero on the
    first pass), keeps the strongest branch per bit, deinterleaves, and MAP
    decodes all streams in one batched call.  Later passes rebuild the
    detector soft outputs by subtracting soft-symbol feedback — posterior
    symbol means from the decoders — through the feedback filters.

    The filters the later passes use depend on ``channel``.  When it is
    given, the bank is re-derived each pass for the measured power of the
    soft symbols (:func:`~mbdf.filters.design_soft_feedback`), so streams the
    decoders are still unsure about stay spatially suppressed instead of
    being trusted in cancellation; this keeps the loop stable even when the
    first pass is poor, which matters for dense constellations.  Without the
    channel the fixed ideal-decision bank is reused as-is — adequate when
    first-pass decisions are already good, unstable otherwise.

    Args:
        r: (n_rx, q) received block of one packet.
        perms: (n_streams, n_coded) per-stream interleaver permutations.
        channel: optional channel realization (with its noise variance);
            enables the per-pass filter refit.
        true_bits: optional (n_streams, k) transmitted information bits;
            when given, the result carries a per-iteration BER trace.

    Returns:
        :class:`TurboResult`; ``iteration_bits[i]`` holds the hard decisions
        after iteration i.
    """
    if iterations < 1:
        raise ValueError("need at least one iteration")
    n_br, n_t, n_rx = bank.w.shape
    r2d = np.asarray(r, dtype=complex)
    if r2d.ndim != 2 or r2d.shape[0] != n_rx:
        raise ValueError(f"received block must be ({n_rx}, q)")
    q = r2d.shape[1]
    c_bits = constellation.bits_per_symbol
    n_coded = q * c_bits
    perms = np.asarray(perms, dtype=int)
    if perms.shape != (n_t, n_coded):
        raise ValueError(f"interleavers must be ({n_t}, {n_coded})")
    counter = OpCounter()
    priors = np.zeros((n_t, q, c_bits))
    model: GaussianOutputModel | None = None
    soft = None
    live = bank
    symbol_power = float(np.mean(np.abs(constellation.points) ** 2))
    iteration_bits: list[np.ndarray] = []
    ber_trace = [] if true_bits is not None else None
    branch_idx = np.zeros((n_t, q, c_bits), dtype=int)
    for it in range(iterations):
        if it == 0:
            assert not priors.any()  # first-pass priors are zero by design
            det = detect_mb_mmse_df(
                r2d, bank, constellation, metric=metric, selection=selection
            )
            z = det.soft_outputs  # (L, n_t, q)
            counter.merge(det.op_counts)
        else:
            if channel is not None:
                fed_power = np.mean(np.abs(soft) ** 2, axis=1)
                live = design_soft_feedback(
                    channel, bank.branches, fed_power, sigma_s2=symbol_power
                )
                counter.add(
                    mults=n_br * n_t * (n_t * n_rx**2 + n_rx**3 + 2 * n_rx * n_t),
                    adds=n_br * n_t * (n_t * n_rx**2 + n_rx**3),
                )
            z = np.einsum("lja,aq->ljq", live.w.conj(), r2d)
            z -= np.einsum("lja,aq->ljq", live.f.conj(), soft)
            counter.add(
                mults=n_br * n_t * q * (n_rx + n_t),
                adds=n_br * n_t * q * (n_rx + n_t - 1),
            )
        # scalar model per (branch, stream), referenced to per-branch slices
        model = estimate_output_model(
            z, slice_symbols(z, constellation), min_samples=min_samples, previous=model
        )
        # one demap over every (branch, stream) sequence, each with its own model
        lam1 = extrinsic_llr(
            z.ravel(),
            GaussianOutputModel(np.repeat(model.v, q), np.repeat(model.xi_var, q)),
            np.broadcast_to(priors, (n_br, n_t, q, c_bits)).reshape(-1, c_bits),
            constellation,
            mode=demap_mode,
        ).reshape(n_br, n_t, q, c_bits)
        selected, branch_idx = select_llr(lam1, mode=select_mode)
        dec = bcjr_decode(deinterleave(selected.reshape(n_t, n_coded), perms), code)
        priors = interleave(dec.extrinsic, perms).reshape(n_t, q, c_bits)
        posteriors = interleave(dec.posterior, perms).reshape(n_t, q, c_bits)
        soft = soft_symbol_estimate(posteriors, constellation)
        iteration_bits.append(dec.info_bits)
        if ber_trace is not None:
            ber_trace.append(np.mean(dec.info_bits != true_bits))
    return TurboResult(
        dec.info_bits,
        dec.info_llrs,
        iteration_bits,
        None if ber_trace is None else np.array(ber_trace),
        branch_idx,
        counter,
    )
