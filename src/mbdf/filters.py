"""Constrained MMSE filter design for multi-branch decision-feedback receivers.

Each detection branch applies, per stream j, a feedforward filter ``w`` on the
received vector and a feedback filter ``f`` on already-made symbol decisions,

    z_j = w^H r - f^H s_dec.

Each branch carries a boolean tap mask: ``mask[j, k]`` is True iff tap k of
stream j's feedback filter is free, and every other tap is held at zero.
Different branches use different masks (the successive-cancellation pattern
of their own detection order, or the parallel-cancellation pattern),
producing distinct candidate decisions that a detector can choose among.

The design solves, per (stream, branch),

    min E|s_j - w^H r + f^H s_hat|^2   s.t.   f_k = 0 wherever not mask[j, k],

with the feedback magnitude throttled by a scalar ``beta`` in [0, 1]
(0 = pure linear MMSE, 1 = full decision feedback).  Four design routes are
provided:

- :func:`design_statistical`: an alternating (coupled) update sharing a
  single covariance inverse across all streams and branches;
- :func:`design_closed_form`: the exact closed form, used as the oracle;
- :func:`design_perfect_feedback`: the channel-matrix form of the
  alternating update under the ideal-decision model;
- :func:`design_soft_feedback`: exact filters when the fed-back symbols are
  only partly reliable, used by the iterative receiver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sysmodel import ChannelRealization

__all__ = [
    "BranchSpec",
    "SecondOrderStats",
    "FilterBank",
    "make_branch",
    "perfect_feedback_stats",
    "design_statistical",
    "design_closed_form",
    "design_perfect_feedback",
    "mse_objective",
    "mmse_value",
    "mmse_linear",
    "branch_mmse",
]

# condition number beyond which a "numerical" design input is rejected
COND_LIMIT = 1e14


# ---------------------------------------------------------------------------
# Branches and tap masks
# ---------------------------------------------------------------------------

@dataclass
class BranchSpec:
    """One detection branch: an ordering plus per-stream feedback tap masks.

    Attributes:
        index: branch number l.
        ordering: detection order; ``ordering[q]`` is the stream detected at
            step q.
        mask: (n_t, n_t) bool; ``mask[j, k]`` is True iff tap k of stream
            j's feedback filter is free.  Every other tap is held at zero, and
            a stream's own tap is never free.
        beta: feedback-magnitude knob in [0, 1].
    """

    index: int
    ordering: np.ndarray
    mask: np.ndarray
    beta: float

    def __post_init__(self):
        self.ordering = np.asarray(self.ordering, dtype=int)
        mask = np.asarray(self.mask)
        if mask.ndim != 2 or mask.shape[0] != mask.shape[1]:
            raise ValueError("tap mask must be square")
        if mask.dtype != bool:
            raise ValueError(f"tap mask must be boolean, got {mask.dtype}")
        if np.any(np.diagonal(mask)):
            raise ValueError("a stream's own feedback tap cannot be free")
        if sorted(self.ordering.tolist()) != list(range(mask.shape[0])):
            raise ValueError("branch ordering must be a permutation of the streams")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")
        self.mask = mask

    @property
    def n_streams(self) -> int:
        return self.mask.shape[0]


def make_branch(
    n_t: int,
    ordering,
    beta: float,
    index: int = 0,
    pattern: str = "sic",
) -> BranchSpec:
    """Assemble a branch with successive (default) or parallel tap masks.

    In the successive pattern the stream detected at step q has free feedback
    taps exactly on the streams decided at steps before q, so cancellation
    follows this branch's detection order.  The parallel pattern frees every
    tap except the stream's own and is ordering-independent.
    """
    ordering = np.asarray(ordering, dtype=int)
    if pattern == "sic":
        if sorted(ordering.tolist()) != list(range(n_t)):
            raise ValueError(
                f"ordering must be a permutation of 0..{n_t - 1}, got {ordering}"
            )
        mask = np.zeros((n_t, n_t), dtype=bool)
        for step, stream in enumerate(ordering):
            mask[stream, ordering[:step]] = True
    elif pattern == "pic":
        mask = ~np.eye(n_t, dtype=bool)
    else:
        raise ValueError(f"unknown tap pattern {pattern!r} (use 'sic' or 'pic')")
    return BranchSpec(index, ordering, mask, float(beta))


# ---------------------------------------------------------------------------
# Second-order statistics
# ---------------------------------------------------------------------------

@dataclass
class SecondOrderStats:
    """Second-order quantities consumed by the filter design.

    Attributes:
        r_cov: (n_rx, n_rx) input covariance E[r r^H].
        cross: (n_rx, n_tx) cross-correlation E[r s_dec^H] with the fed-back
            decision vector.
        p_mat: (n_rx, n_tx); column j is E[r s_j^*].
        t_mat: (n_tx, n_tx); column j is E[s_dec s_j^*] (zero under the
            model that the feedback vector never contains the stream being
            detected).
        sigma_s2, sigma_n2: symbol and noise powers.
    """

    r_cov: np.ndarray
    cross: np.ndarray
    p_mat: np.ndarray
    t_mat: np.ndarray
    sigma_s2: float = 1.0
    sigma_n2: float = 0.0

    @property
    def n_rx(self) -> int:
        return self.r_cov.shape[0]

    @property
    def n_tx(self) -> int:
        return self.cross.shape[1]


def perfect_feedback_stats(
    channel: ChannelRealization, sigma_s2: float = 1.0
) -> SecondOrderStats:
    """Exact statistics under ideal decisions: R = sigma_s2 H H^H + sigma_n2 I,
    cross = sigma_s2 H, p_j = sigma_s2 H e_j, t_j = 0."""
    h = np.asarray(channel.gains, dtype=complex)
    n_rx, n_tx = h.shape
    r = sigma_s2 * (h @ h.conj().T) + channel.noise_variance * np.eye(n_rx)
    q = sigma_s2 * h
    return SecondOrderStats(
        r, q, q.copy(), np.zeros((n_tx, n_tx)), sigma_s2, channel.noise_variance
    )


@dataclass
class FilterBank:
    """Feedforward/feedback filters for every (branch, stream) pair.

    ``w[l, j]`` is the length-n_rx feedforward filter and ``f[l, j]`` the
    length-n_tx feedback filter of stream j on branch l.  ``w`` and ``f`` may
    carry an optional leading per-column axis, (q, L, n_t, ·): ``w[c]`` and
    ``f[c]`` are then the bank that column c of a received block is detected
    with (:func:`~mbdf.detectors.detect_mb_mmse_df`), under the one set of
    ``branches``.
    """

    w: np.ndarray
    f: np.ndarray
    branches: list

    @property
    def n_branches(self) -> int:
        return self.w.shape[-3]

    @property
    def n_streams(self) -> int:
        return self.w.shape[-2]

    def entry(self, j: int, l: int = 0):
        return self.w[..., l, j, :], self.f[..., l, j, :]


# ---------------------------------------------------------------------------
# Design routes
# ---------------------------------------------------------------------------

def _as_branch_list(branches):
    return [branches] if isinstance(branches, BranchSpec) else list(branches)


def _checked_inverse(mat: np.ndarray, what: str) -> np.ndarray:
    cond = np.linalg.cond(mat)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise np.linalg.LinAlgError(
            f"{what} is numerically singular (condition number {cond:.3e})"
        )
    return np.linalg.inv(mat)


def design_statistical(
    stats: SecondOrderStats,
    branches,
    iterations: int = 2,
    tol: float | None = None,
    max_iterations: int = 500,
    r_inv: np.ndarray | None = None,
) -> FilterBank:
    """Coupled (alternating) design sharing one covariance inverse.

    Starting from f = 0, alternates

        w <- R^{-1} (p_j + Q f)
        f <- (beta / sigma_s2) * m_j o (Q^H w - t_j)

    (m_j the branch's tap mask for stream j) for ``iterations`` sweeps (default two).  Passing ``tol`` switches to
    fixed-point mode: the alternation runs until the feedback update moves by
    less than ``tol`` relatively, up to ``max_iterations`` sweeps, which
    recovers the exact closed-form pair.  The single R^{-1} is computed once
    (or supplied) and reused for every stream and branch.
    """
    branch_list = _as_branch_list(branches)
    if r_inv is None:
        r_inv = _checked_inverse(stats.r_cov, "input covariance")
    q = stats.cross
    n_tx = stats.n_tx
    w = np.zeros((len(branch_list), n_tx, stats.n_rx), dtype=complex)
    f = np.zeros((len(branch_list), n_tx, n_tx), dtype=complex)
    n_sweeps = max_iterations if tol is not None else iterations
    for li, br in enumerate(branch_list):
        for j in range(n_tx):
            pj = stats.p_mat[:, j]
            tj = stats.t_mat[:, j]
            mask = br.mask[j]
            fj = np.zeros(n_tx, dtype=complex)
            wj = r_inv @ pj
            for _ in range(n_sweeps):
                wj = r_inv @ (pj + q @ fj)
                f_new = (br.beta / stats.sigma_s2) * (mask * (q.conj().T @ wj - tj))
                step = np.linalg.norm(f_new - fj)
                fj = f_new
                if tol is not None and step <= tol * max(np.linalg.norm(fj), 1.0):
                    wj = r_inv @ (pj + q @ fj)
                    break
            w[li, j] = wj
            f[li, j] = fj
    return FilterBank(w, f, branch_list)


def design_closed_form(stats: SecondOrderStats, branches) -> FilterBank:
    """Exact joint solution of the coupled equations (the design oracle).

    Per (stream, branch):

        w = (R - (beta/sigma_s2) Q M_j Q^H)^{-1} (p_j - (beta/sigma_s2) Q M_j t_j)
        f = (beta / sigma_s2) * M_j (Q^H w - t_j)

    with ``M_j = diag(m_j)`` built from the branch's tap mask.  One matrix inversion per (stream, branch) pair, so this is the slow
    reference route.
    """
    branch_list = _as_branch_list(branches)
    q = stats.cross
    n_tx = stats.n_tx
    w = np.zeros((len(branch_list), n_tx, stats.n_rx), dtype=complex)
    f = np.zeros((len(branch_list), n_tx, n_tx), dtype=complex)
    for li, br in enumerate(branch_list):
        scale = br.beta / stats.sigma_s2
        for j in range(n_tx):
            mask = br.mask[j]
            core = stats.r_cov - scale * ((q * mask) @ q.conj().T)
            cond = np.linalg.cond(core)
            if not np.isfinite(cond) or cond > COND_LIMIT:
                raise np.linalg.LinAlgError(
                    f"feedback-reduced covariance is numerically singular "
                    f"(condition number {cond:.3e})"
                )
            pj = stats.p_mat[:, j]
            tj = stats.t_mat[:, j]
            wj = np.linalg.solve(core, pj - scale * (q @ (mask * tj)))
            w[li, j] = wj
            f[li, j] = scale * (mask * (q.conj().T @ wj - tj))
    return FilterBank(w, f, branch_list)


def design_perfect_feedback(
    channel: ChannelRealization,
    branches,
    sigma_s2: float = 1.0,
    iterations: int = 2,
    tol: float | None = None,
    max_iterations: int = 500,
) -> FilterBank:
    """Channel-matrix shortcut of the coupled design under ideal decisions.

    Alternates

        w <- (H H^H + (sigma_n2/sigma_s2) I)^{-1} H (e_j + f)
        f <- beta * m_j o H^H w

    from f = 0, matching :func:`design_statistical` fed with the
    perfect-feedback statistics sweep for sweep.  The ridge term keeps the
    inverse well defined whenever the noise power is positive.
    """
    branch_list = _as_branch_list(branches)
    h = np.asarray(channel.gains, dtype=complex)
    n_rx, n_tx = h.shape
    a = h @ h.conj().T + (channel.noise_variance / sigma_s2) * np.eye(n_rx)
    a_inv = _checked_inverse(a, "regularized channel Gram matrix")
    w = np.zeros((len(branch_list), n_tx, n_rx), dtype=complex)
    f = np.zeros((len(branch_list), n_tx, n_tx), dtype=complex)
    n_sweeps = max_iterations if tol is not None else iterations
    eye = np.eye(n_tx)
    for li, br in enumerate(branch_list):
        for j in range(n_tx):
            mask = br.mask[j]
            fj = np.zeros(n_tx, dtype=complex)
            wj = a_inv @ (h @ eye[j])
            for _ in range(n_sweeps):
                wj = a_inv @ (h @ (eye[j] + fj))
                f_new = br.beta * (mask * (h.conj().T @ wj))
                step = np.linalg.norm(f_new - fj)
                fj = f_new
                if tol is not None and step <= tol * max(np.linalg.norm(fj), 1.0):
                    wj = a_inv @ (h @ (eye[j] + fj))
                    break
            w[li, j] = wj
            f[li, j] = fj
    return FilterBank(w, f, branch_list)


def design_soft_feedback(
    channel: ChannelRealization,
    branches,
    fed_power,
    sigma_s2: float = 1.0,
) -> FilterBank:
    """Exact filter pairs when the feedback symbols are only partly reliable.

    ``fed_power[t]`` is the mean squared magnitude of the feedback estimate
    for stream t (0 = uninformative, full symbol power = confident
    decisions).  After cancellation a fed-back stream then leaves a residual
    power of ``sigma_s2 - beta (2 - beta) fed_power[t]`` (floored at zero),
    and the feedforward filter is the exact MMSE solution against those
    residuals:

        w = sigma_s2 (H D H^H + sigma_n2 I)^{-1} h_j
        f = beta * m o (H^H w)

    where D carries the per-stream residual powers (full power off the
    feedback support) and m is the branch's tap mask for stream j.  With
    ``fed_power = sigma_s2`` and beta = 1 this reproduces the converged
    ideal-decision design; with ``fed_power = 0`` the feedforward filter
    collapses to plain linear MMSE and the feedback taps only remove a zero
    mean.  Used by the iterative receiver, which re-derives the bank each
    pass from the measured reliability of the decoder feedback.
    """
    branch_list = _as_branch_list(branches)
    h = np.asarray(channel.gains, dtype=complex)
    n_rx, n_tx = h.shape
    rho = np.broadcast_to(np.asarray(fed_power, dtype=float), (n_tx,)).copy()
    if np.any(rho < 0.0):
        raise ValueError("fed_power entries must be nonnegative")
    w = np.zeros((len(branch_list), n_tx, n_rx), dtype=complex)
    f = np.zeros((len(branch_list), n_tx, n_tx), dtype=complex)
    eye = np.eye(n_rx)
    for li, br in enumerate(branch_list):
        cancel = br.beta * (2.0 - br.beta)
        for j in range(n_tx):
            mask = br.mask[j]
            d = np.full(n_tx, sigma_s2)
            d[mask] = np.clip(sigma_s2 - cancel * rho[mask], 0.0, None)
            core = (h * d) @ h.conj().T + channel.noise_variance * eye
            cond = np.linalg.cond(core)
            if not np.isfinite(cond) or cond > COND_LIMIT:
                raise np.linalg.LinAlgError(
                    f"residual-interference covariance is numerically singular "
                    f"(condition number {cond:.3e})"
                )
            wj = sigma_s2 * np.linalg.solve(core, h[:, j])
            w[li, j] = wj
            f[li, j] = br.beta * mask * (h.conj().T @ wj)
    return FilterBank(w, f, branch_list)


# ---------------------------------------------------------------------------
# Error measures
# ---------------------------------------------------------------------------

def mse_objective(w, f, stats: SecondOrderStats, j: int) -> float:
    """Mean squared error of an arbitrary filter pair for stream j.

    Full quadratic form, valid away from the optimum (used to verify that the
    designed filters actually minimize it over the feasible set).
    """
    pj = stats.p_mat[:, j]
    tj = stats.t_mat[:, j]
    val = (
        stats.sigma_s2
        - 2.0 * np.real(np.vdot(w, pj))
        + np.real(np.vdot(w, stats.r_cov @ w))
        - 2.0 * np.real(np.vdot(w, stats.cross @ f))
        + 2.0 * np.real(np.vdot(f, tj))
        + stats.sigma_s2 * np.real(np.vdot(f, f))
    )
    return float(val)


def mmse_value(w, f, stats: SecondOrderStats, j: int) -> float:
    """Residual MMSE of a designed pair.

    Collapsed form ``sigma_s2 - w^H R w + t_j^H f + f^H t_j + sigma_s2 f^H f``;
    it equals :func:`mse_objective` when w is MMSE-consistent with f.
    """
    tj = stats.t_mat[:, j]
    return float(
        stats.sigma_s2
        - np.real(np.vdot(w, stats.r_cov @ w))
        + 2.0 * np.real(np.vdot(tj, f))
        + stats.sigma_s2 * np.real(np.vdot(f, f))
    )


def mmse_linear(stats: SecondOrderStats, r_inv: np.ndarray | None = None) -> np.ndarray:
    """Per-stream MMSE of the plain linear receiver, sigma_s2 - p_j^H R^{-1} p_j."""
    if r_inv is None:
        r_inv = _checked_inverse(stats.r_cov, "input covariance")
    quad = np.real(np.sum(stats.p_mat.conj() * (r_inv @ stats.p_mat), axis=0))
    return stats.sigma_s2 - quad


def branch_mmse(stats: SecondOrderStats, branch: BranchSpec) -> np.ndarray:
    """Per-stream residual MMSE of one branch's exact (closed-form) filters."""
    bank = design_closed_form(stats, branch)
    return np.array(
        [mmse_value(bank.w[0, j], bank.f[0, j], stats, j) for j in range(stats.n_tx)]
    )
