"""Adaptive tracking of the multi-branch decision-feedback receiver.

Recursive least squares keeps two exponentially weighted statistics — the
input covariance inverse (via the matrix inversion lemma) and the
input/decision cross matrix, whose column j is stream j's steering vector —
and refreshes every branch's filter pair once per received symbol in an
alternating fashion.  The covariance inverse is computed once per symbol and
shared by all branches and streams.  A companion RLS channel estimator supplies the channel-based filter
refresh and the decision-directed mode of the packet driver.

Scale conventions: the raw statistics carry the data mass
m_i = (1-lam^i)/(1-lam) and the decayed initialization ridge.  Filter
refreshes that mix raw statistics with the (true-scale) channel estimate must
normalize accordingly; see :func:`adaptive_filter_update` for the three
provided pairings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .counters import OpCounter
from .detectors import detect_mb_mmse_df, order_suboptimal
from .filters import BranchSpec, FilterBank, make_branch
from .sysmodel import Constellation

__all__ = [
    "RlsState",
    "init_rls",
    "rls_covariance_update",
    "rls_stats_update",
    "adaptive_filter_update",
    "rls_channel_estimate",
    "channel_estimator_ops",
    "effective_mass",
    "adaptive_packet",
]

_FORMS = ("mixed", "statistics", "channel")


@dataclass
class RlsState:
    """Everything the adaptive receiver carries between symbols.

    Attributes:
        r_inv: (n_rx, n_rx) tracked inverse of the exponentially weighted
            input covariance (initialization ridge included).
        q_hat: (n_rx, n_tx) weighted cross matrix of inputs and fed-back
            decisions; column j is the weighted steering vector of stream j.
        lam: forgetting factor, 0 < lam < 1 (lam = 1 allowed for the
            growing-window special case used by oracle tests).
        filters: the current FilterBank (w, f and the branch specs).
        h_hat: (n_rx, n_tx) RLS channel estimate, or None until the
            estimator has been fed.
        phi_inv: (n_tx, n_tx) inverse input-kernel of the channel estimator.
        init_ridge: the covariance the inverse was initialized with,
            init_ridge * I (so r_inv[0] = I / init_ridge).
        step: number of covariance updates absorbed so far.
        sigma_s2: symbol energy assumed by the filter refresh.
        op_counts: running multiply/add tally of all update work.
        cond_fallbacks: ill-conditioned ridge removals (``_debiased_r_inv``).
    """

    r_inv: np.ndarray
    q_hat: np.ndarray
    lam: float
    filters: FilterBank
    h_hat: np.ndarray | None = None
    phi_inv: np.ndarray | None = None
    init_ridge: float = 100.0
    step: int = 0
    sigma_s2: float = 1.0
    op_counts: OpCounter = field(default_factory=OpCounter)
    cond_fallbacks: int = 0

    @property
    def n_rx(self) -> int:
        return self.r_inv.shape[0]

    @property
    def n_tx(self) -> int:
        return self.q_hat.shape[1]


def init_rls(
    branches,
    n_rx: int,
    lam: float = 0.998,
    delta_inv: float = 1e-2,
    sigma_s2: float = 1.0,
    channel_ridge: float = 1e-6,
) -> RlsState:
    """Fresh state: r_inv = delta_inv * I, zero statistics, zero filters.

    ``branches`` is a BranchSpec list fixing L, the orderings and the tap
    constraints; the filter arrays start at zero and take shape from it.
    ``channel_ridge`` regularizes the channel estimator's input kernel.
    """
    branches = list(branches)
    if not branches:
        raise ValueError("need at least one branch")
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"forgetting factor must lie in (0, 1], got {lam}")
    if delta_inv <= 0:
        raise ValueError("delta_inv must be positive")
    n_tx = branches[0].n_streams
    l_count = len(branches)
    bank = FilterBank(
        np.zeros((l_count, n_tx, n_rx), dtype=complex),
        np.zeros((l_count, n_tx, n_tx), dtype=complex),
        branches,
    )
    return RlsState(
        r_inv=delta_inv * np.eye(n_rx, dtype=complex),
        q_hat=np.zeros((n_rx, n_tx), dtype=complex),
        lam=lam,
        filters=bank,
        phi_inv=(1.0 / channel_ridge) * np.eye(n_tx, dtype=complex),
        init_ridge=1.0 / delta_inv,
        sigma_s2=sigma_s2,
    )


def effective_mass(lam: float, step: int) -> float:
    """Sum of the exponential weights after ``step`` updates."""
    if lam == 1.0:
        return float(step)
    return (1.0 - lam**step) / (1.0 - lam)


def rls_covariance_update(state: RlsState, r: np.ndarray) -> RlsState:
    """Rank-1 inversion-lemma update of the tracked covariance inverse.

        k = lam^-1 R^-1 r / (1 + lam^-1 r^H R^-1 r)
        R^-1 <- lam^-1 R^-1 - lam^-1 k r^H R^-1

    The result is re-symmetrized to keep the Hermitian invariant from
    drifting.  One call per received symbol serves every branch.
    """
    r = np.asarray(r, dtype=complex).reshape(-1)
    n_rx = state.n_rx
    if r.shape[0] != n_rx:
        raise ValueError(f"received vector length {r.shape[0]} != {n_rx}")
    ilam = 1.0 / state.lam
    v = state.r_inv @ r                       # R^-1 r  (Hermitian: r^H R^-1 = v^H)
    denom = 1.0 + ilam * float(np.real(r.conj() @ v))
    k = (ilam / denom) * v
    state.r_inv = ilam * (state.r_inv - np.outer(k, v.conj()))
    state.r_inv = 0.5 * (state.r_inv + state.r_inv.conj().T)
    state.step += 1
    state.op_counts.add(
        mults=3 * n_rx * n_rx + 2 * n_rx + 2,
        adds=n_rx * n_rx + 2 * n_rx,
    )
    return state


def rls_stats_update(state: RlsState, r: np.ndarray, decisions: np.ndarray) -> RlsState:
    """Exponentially weighted refresh of the cross statistic.

        Q <- lam Q + r s^H        (column j is stream j's steering vector p_j)

    ``decisions`` is the full selected decision vector for this symbol
    (training symbols during the training phase).
    """
    r = np.asarray(r, dtype=complex).reshape(-1)
    s = np.asarray(decisions, dtype=complex).reshape(-1)
    if s.shape[0] != state.n_tx:
        raise ValueError(f"decision vector length {s.shape[0]} != {state.n_tx}")
    state.q_hat = state.lam * state.q_hat + np.outer(r, s.conj())
    state.op_counts.add(
        mults=2 * r.shape[0] * s.shape[0],
        adds=r.shape[0] * s.shape[0],
    )
    return state


def _debiased_r_inv(state: RlsState) -> np.ndarray:
    """Inverse of the weighted covariance with the decayed init ridge removed.

    The tracked inverse corresponds to (sum of weighted outer products
    + lam^step * init_ridge * I); once the accumulated data mass exceeds the
    remaining ridge mass the ridge is subtracted at use time via
    (R - c I)^-1 = (I - c R^-1)^-1 R^-1.  Before that point the raw inverse
    is returned unchanged — early on the ridge IS the conditioning — as it is,
    counted in ``state.cond_fallbacks``, when cond(I - c R^-1) exceeds 1e12.
    """
    c = state.lam**state.step * state.init_ridge
    if effective_mass(state.lam, state.step) < c:
        return state.r_inv
    n = state.n_rx
    core = np.eye(n) - c * state.r_inv
    # core is Hermitian, so its singular values are |eigenvalues|
    ev = np.abs(np.linalg.eigvalsh(core))
    if ev.max() > 1e12 * ev.min():
        state.cond_fallbacks += 1
        return state.r_inv
    state.op_counts.add(mults=n**3, adds=n**3)
    return np.linalg.solve(core, state.r_inv)


def adaptive_filter_update(state: RlsState, form: str = "mixed") -> FilterBank:
    """One alternating refresh of every (branch, stream) filter pair.

    Three pairings of the feedforward/feedback update are provided; all
    converge to the same fixed point on static channels, differing in which
    statistic each line consumes and hence in scale handling:

        mixed (default): w = R^-1 (p_j + Q f_prev);  f = beta m_j o H_hat^H w,
            where p_j = Q e_j is stream j's steering vector.
            The w-line uses raw statistics whose masses cancel exactly; the
            f-line uses the true-scale channel estimate.  Needs h_hat.
        statistics: w as above; f = beta m_j o Q^H w / (mass * sigma_s2).
            No channel estimate needed; the cross matrix is de-scaled
            explicitly.
        channel: w = mass * sigma_s2 * R_deb^-1 H_hat (delta_j + f_prev);
            f as in mixed.  Both lines run off the channel estimate; the
            covariance inverse is de-biased and re-scaled to true scale.

    ``m_j o`` keeps the taps that the branch's mask frees for stream j.  All
    L·n_t pairs are refreshed in one stacked product: with F (L, n_t, n_t) the
    previous feedback filters, W = (Q^T + F Q^T) R^-T and f = beta o m o (W H_hat^*)
    in the mixed form.  Updates ``state.filters`` in place and returns it.
    """
    if form not in _FORMS:
        raise ValueError(f"unknown update form {form!r} (use one of {_FORMS})")
    if form in ("mixed", "channel") and state.h_hat is None:
        raise ValueError(f"form {form!r} needs a channel estimate in the state")
    bank = state.filters
    n_tx, n_rx = state.n_tx, state.n_rx
    mass = effective_mass(state.lam, state.step)
    if mass <= 0:
        raise ValueError("cannot refresh filters before any covariance update")
    # all forms solve against the pure-data covariance: the decayed
    # initialization ridge would otherwise act as an extra noise floor
    # (~12% of the data mass at lam=0.998 after 500 symbols)
    r_inv = _debiased_r_inv(state)
    if form == "channel":
        target = state.h_hat.T + bank.f @ state.h_hat.T
        w = mass * state.sigma_s2 * (target @ r_inv.T)
    else:
        w = (state.q_hat.T + bank.f @ state.q_hat.T) @ r_inv.T
    if form == "statistics":
        raw = w @ state.q_hat.conj() / (mass * state.sigma_s2)
    else:
        raw = w @ state.h_hat.conj()
    masks = np.array([br.mask for br in bank.branches])
    betas = np.array([br.beta for br in bank.branches])[:, None, None]
    bank.w[:] = w
    bank.f[:] = betas * (masks * raw)
    per_pair = n_rx * n_rx + n_rx * n_tx + n_tx * n_rx + n_tx * n_tx + n_tx
    n_pairs = len(bank.branches) * n_tx
    state.op_counts.add(mults=n_pairs * per_pair, adds=n_pairs * per_pair)
    return bank


def channel_estimator_ops(n_tx: int, n_rx: int) -> int:
    """Analytic multiply count per channel-estimator update."""
    return n_rx * n_tx**2 + 4 * n_tx**2 + 2 * n_tx * n_rx + 2 * n_tx + 2


def rls_channel_estimate(state: RlsState, r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Exponentially weighted RLS refresh of the channel estimate.

    ``s`` is the transmitted symbol vector (training) or the decision vector
    (decision-directed).  Maintains the inverse input kernel phi_inv shared
    by all receive antennas and applies the a-priori error correction

        k = lam^-1 phi_inv s / (1 + lam^-1 s^H phi_inv s)
        H <- H + (r - H s) k^H
        phi_inv <- lam^-1 (phi_inv - k (s^H phi_inv))

    Returns the updated estimate (also stored in ``state.h_hat``).
    """
    r = np.asarray(r, dtype=complex).reshape(-1)
    s = np.asarray(s, dtype=complex).reshape(-1)
    n_rx, n_tx = r.shape[0], s.shape[0]
    if state.phi_inv is None or state.phi_inv.shape[0] != n_tx:
        raise ValueError("state carries no channel-estimator kernel of matching size")
    if state.h_hat is None:
        state.h_hat = np.zeros((n_rx, n_tx), dtype=complex)
    ilam = 1.0 / state.lam
    v = state.phi_inv @ s                     # phi_inv Hermitian: s^H phi_inv = v^H
    denom = 1.0 + ilam * float(np.real(s.conj() @ v))
    k = (ilam / denom) * v
    err = r - state.h_hat @ s
    state.h_hat = state.h_hat + np.outer(err, k.conj())
    state.phi_inv = ilam * (state.phi_inv - np.outer(k, v.conj()))
    state.phi_inv = 0.5 * (state.phi_inv + state.phi_inv.conj().T)
    state.op_counts.add(
        mults=3 * n_tx * n_tx + 2 * n_rx * n_tx + 2 * n_tx + 2,
        adds=2 * n_tx * n_tx + 2 * n_rx * n_tx + n_tx + n_rx,
    )
    return state.h_hat


def _stream_mmse_estimates(state: RlsState) -> np.ndarray:
    """Per-stream linear MMSE estimates from the tracked statistics.

    Used by the periodic reordering hook: mmse_j = sigma_s2 -
    p_j^H R^-1 p_j / mass (raw scales cancel to first order)."""
    mass = effective_mass(state.lam, state.step)
    vals = np.empty(state.n_tx)
    for j in range(state.n_tx):
        pj = state.q_hat[:, j]
        vals[j] = state.sigma_s2 - float(np.real(pj.conj() @ state.r_inv @ pj)) / mass
    return vals


def adaptive_packet(
    received: np.ndarray,
    training: np.ndarray,
    constellation: Constellation,
    branches,
    lam: float = 0.998,
    delta_inv: float = 1e-2,
    sigma_s2: float = 1.0,
    form: str = "mixed",
    metric: str = "full",
    selection: str = "joint",
    reorder_every: int = 50,
    state: RlsState | None = None,
    oracle_decisions: np.ndarray | None = None,
) -> tuple[np.ndarray, RlsState]:
    """Run the adaptive receiver over one packet.

    ``received`` is (n_rx, Q); the first ``training.shape[1]`` symbols are
    pilots whose true values feed the statistic updates, after which the
    receiver switches to decision-directed operation.  The state trajectory
    runs symbol by symbol: one covariance update, decisions with the previous
    instant's filters to feed the cross statistic, a channel-estimator
    refresh and one alternating filter refresh.  Every ``reorder_every`` data
    symbols (0 disables) the branch orderings are recomputed from the tracked
    per-stream MMSE estimates.  The output decisions feed nothing back, so
    they run once per ordering segment (up to each reorder, and to the end
    of the packet): one detection over the segment's columns, each column
    with the filters refreshed at its own symbol and the orderings of the
    segment.

    ``oracle_decisions`` (n_tx, Q) replaces detected decisions in the
    statistic/estimator updates — the controlled-convergence mode used by
    oracle tests.  Returns (decisions (n_tx, Q), final state).
    """
    r_block = np.asarray(received, dtype=complex)
    if r_block.ndim != 2:
        raise ValueError("received block must be (n_rx, Q)")
    if not np.all(np.isfinite(r_block)):
        raise ValueError("received block must be finite")
    if reorder_every < 0:
        raise ValueError(f"reorder_every must be non-negative, got {reorder_every}")
    n_rx, q_len = r_block.shape
    if state is None:
        state = init_rls(branches, n_rx, lam=lam, delta_inv=delta_inv, sigma_s2=sigma_s2)
    bank = state.filters
    n_tx = state.n_tx
    train = np.asarray(training, dtype=complex)
    if train.ndim != 2 or train.shape[0] != n_tx or train.shape[1] > q_len:
        raise ValueError(f"training must be ({n_tx}, at most {q_len}), got {train.shape}")
    n_train = train.shape[1]
    if oracle_decisions is not None and np.shape(oracle_decisions) != (n_tx, q_len):
        raise ValueError(f"oracle decisions must be (n_tx, Q) = {(n_tx, q_len)}")
    decisions = np.empty((n_tx, q_len), dtype=complex)
    betas = [br.beta for br in bank.branches]
    # the first segment holds the training symbols and reorder_every data symbols
    longest = min(q_len, n_train + reorder_every) if reorder_every else q_len
    seg_w = np.empty((longest,) + bank.w.shape, dtype=complex)
    seg_f = np.empty((longest,) + bank.f.shape, dtype=complex)

    def detect_segment(start, stop):
        n = stop - start
        out = detect_mb_mmse_df(
            r_block[:, start:stop], FilterBank(seg_w[:n], seg_f[:n], bank.branches),
            constellation, metric=metric, selection=selection,
        )
        decisions[:, start:stop] = out.symbols
        state.op_counts.merge(out.op_counts)

    start = 0
    for i in range(q_len):
        r = r_block[:, i]
        rls_covariance_update(state, r)
        if oracle_decisions is not None:
            fed = oracle_decisions[:, i]
        elif i < n_train:
            fed = train[:, i]
        else:
            prev = detect_mb_mmse_df(
                r, bank, constellation, metric=metric, selection=selection
            )
            fed = prev.symbols
        rls_stats_update(state, r, fed)
        rls_channel_estimate(state, r, fed)
        adaptive_filter_update(state, form=form)
        seg_w[i - start] = bank.w
        seg_f[i - start] = bank.f
        data_idx = i - n_train
        if reorder_every and data_idx >= 0 and (data_idx + 1) % reorder_every == 0:
            detect_segment(start, i + 1)
            start = i + 1
            orders = order_suboptimal(_stream_mmse_estimates(state), len(betas))
            bank.branches = [
                make_branch(n_tx, orders[li], b, index=li)
                for li, b in enumerate(betas)
            ]
    if start < q_len:
        detect_segment(start, q_len)
    return decisions, state
