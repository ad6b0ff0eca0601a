"""Hard-decision MIMO detectors.

The centerpiece is the multi-branch MMSE decision-feedback detector: L
parallel branches, each detecting all streams successively with its own
ordering and feedback tap pattern, followed by a per-stream selection of the
branch whose instantaneous error metric is smallest.  The suboptimal
baselines are bank recipes for the same kernel, :func:`detect_mb_mmse_df`:
linear MMSE is one natural-order branch with beta = 0, and MMSE-SIC or
single-branch DF is one natural-order branch with feedback.  Exhaustive ML
(:func:`detect_ml`), the multi-stage refinement and the branch orderings
live here as well.

Every detector accepts either a single received vector (n_rx,) or a block
(n_rx, q) and returns a :class:`DetectionResult`.  Detection is vectorized
over columns and over branches: the decision-feedback sweep takes n_t steps,
each detecting one stream on all L branches and q columns at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, permutations
from math import factorial

import numpy as np

from .counters import OpCounter
from .filters import (
    BranchSpec,
    FilterBank,
    branch_mmse,
    make_branch,
    mmse_linear,
    perfect_feedback_stats,
)
from .sysmodel import ChannelRealization, Constellation, slice_to_index

__all__ = [
    "DetectorConfig",
    "DetectionResult",
    "fixed_orderings",
    "build_branches",
    "order_optimal",
    "order_suboptimal",
    "detect_mb_mmse_df",
    "detect_ml",
    "multi_stage",
]

_KINDS = ("ml", "linear", "sic", "df", "mbdf")
_ORDERINGS = ("fixed", "optimal", "suboptimal")
ML_BIT_GUARD = 24


@dataclass
class DetectorConfig:
    """Which detector to run and with what knobs."""

    kind: str = "mbdf"
    branches: int = 4
    stages: int = 1
    ordering: str = "fixed"
    beta: float = 1.0
    metric: str = "full"
    selection: str = "joint"

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown detector kind {self.kind!r} (use one of {_KINDS})")
        if self.branches < 1:
            raise ValueError("branch count must be at least 1")
        if self.stages < 1:
            raise ValueError("stage count must be at least 1")
        if self.kind != "mbdf" and self.branches != 1:
            raise ValueError(f"detector kind {self.kind!r} is single-branch; got L={self.branches}")
        if self.ordering not in _ORDERINGS:
            raise ValueError(f"unknown ordering {self.ordering!r} (use one of {_ORDERINGS})")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        if self.selection not in ("per_stream", "joint"):
            raise ValueError(
                f"unknown selection {self.selection!r} (use 'per_stream' or 'joint')"
            )


@dataclass
class DetectionResult:
    """Output of one detection call.

    Attributes:
        symbols: hard decisions, (n_t,) or (n_t, q).
        chosen_branch: per-stream index of the winning branch (0-based
            position in the bank), same shape as symbols.
        soft_outputs: pre-decision statistics z for every branch,
            (L, n_t[, q]).
        metrics: selection-metric values aligned with soft_outputs.
        op_counts: tally of complex multiplies/adds spent.
    """

    symbols: np.ndarray
    chosen_branch: np.ndarray
    soft_outputs: np.ndarray
    metrics: np.ndarray
    op_counts: OpCounter = field(default_factory=OpCounter)


# ---------------------------------------------------------------------------
# Branch orderings
# ---------------------------------------------------------------------------

def fixed_orderings(n_t: int, l_count: int) -> list[np.ndarray]:
    """Deterministic default ordering family: cyclic shifts of the natural
    order, then cyclic shifts of the reversed order, then remaining
    permutations in lexicographic order."""
    if l_count < 1:
        raise ValueError("need at least one branch")
    if l_count > factorial(n_t):
        raise ValueError(f"cannot build {l_count} distinct orderings of {n_t} streams")
    base = np.arange(n_t)
    family: list[np.ndarray] = []
    seen = set()

    def push(cand):
        key = tuple(int(x) for x in cand)
        if key not in seen:
            seen.add(key)
            family.append(np.array(key, dtype=int))

    for l in range(n_t):
        push(np.roll(base, -l))
    for l in range(n_t):
        push(np.roll(base[::-1], -l))
    if len(family) < l_count:
        for perm in permutations(range(n_t)):
            push(perm)
            if len(family) >= l_count:
                break
    return family[:l_count]


def order_optimal(
    channel: ChannelRealization,
    l_count: int,
    sigma_n2: float | None = None,
    beta: float = 1.0,
    sigma_s2: float = 1.0,
    joint: bool = False,
) -> list[BranchSpec]:
    """Exhaustive MMSE-based ordering search.

    Evaluates every stream permutation's summed per-stream residual MMSE
    (computed from that permutation's exact filters) and keeps the
    ``l_count`` distinct best.  Because the per-ordering sums do not interact,
    picking the L smallest is also the joint optimum over ordering sets;
    ``joint=True`` runs the explicit set search (tiny n_t only) as a
    cross-check.
    """
    n_t = channel.n_tx
    if n_t > 5:
        raise ValueError(f"ordering search over {n_t}! permutations refused (n_t > 5)")
    if l_count > factorial(n_t):
        raise ValueError(f"cannot pick {l_count} distinct orderings of {n_t} streams")
    if joint and n_t > 3:
        raise ValueError("joint ordering-set search is limited to n_t <= 3")
    noise = channel.noise_variance if sigma_n2 is None else float(sigma_n2)
    stats = perfect_feedback_stats(ChannelRealization(channel.gains, noise), sigma_s2)
    perms = list(permutations(range(n_t)))
    total = {
        p: float(np.sum(branch_mmse(stats, make_branch(n_t, p, beta))))
        for p in perms
    }
    if joint:
        best_set = min(
            combinations(perms, l_count), key=lambda group: (sum(total[p] for p in group), group)
        )
        chosen = list(best_set)
    else:
        chosen = sorted(perms, key=lambda p: (total[p], p))[:l_count]
    return [make_branch(n_t, p, beta, index=l) for l, p in enumerate(chosen)]


def _greedy_difference_order(mmse: np.ndarray, first: int) -> np.ndarray:
    # grow the ordering by always taking the stream whose MMSE is farthest
    # (in summed absolute difference) from everything already picked
    n_t = mmse.size
    picked = [first]
    while len(picked) < n_t:
        best_n, best_score = -1, -1.0
        for n in range(n_t):
            if n in picked:
                continue
            score = float(np.sum(np.abs(mmse[n] - mmse[picked])))
            if score > best_score + 1e-15:
                best_n, best_score = n, score
        picked.append(best_n)
    return np.array(picked, dtype=int)


def order_suboptimal(mmse_per_stream, l_count: int) -> list[np.ndarray]:
    """Difference-maximizing ordering heuristic.

    Branch 1 sorts streams by increasing MMSE.  Later branches pick, at each
    step, the stream maximizing the summed absolute MMSE difference to the
    streams already picked on that branch.  The first pick of each later
    branch (where that sum is empty) walks down from the worst stream on even
    branches and up from the second-best on odd ones; any ordering that
    still collides with an earlier branch is cyclically rotated until
    distinct.  Ties always resolve to the lowest stream index.
    """
    mmse = np.asarray(mmse_per_stream, dtype=float)
    n_t = mmse.size
    if l_count < 1:
        raise ValueError("need at least one branch")
    if l_count > factorial(n_t):
        raise ValueError(f"cannot build {l_count} distinct orderings of {n_t} streams")
    asc = np.argsort(mmse, kind="stable")
    desc = asc[::-1]
    orders = [asc.copy()]
    for l in range(2, l_count + 1):
        if l % 2 == 0:
            first = int(desc[((l - 2) // 2) % n_t])
        else:
            first = int(asc[(1 + (l - 3) // 2) % n_t])
        order = _greedy_difference_order(mmse, first)
        tries = 0
        while any(np.array_equal(order, o) for o in orders) and tries < n_t:
            order = np.roll(order, -1)
            tries += 1
        if any(np.array_equal(order, o) for o in orders):
            # rotations exhausted (tiny n_t): fall back to the first unused
            # permutation in lexicographic order
            used = {tuple(o.tolist()) for o in orders}
            for perm in permutations(range(n_t)):
                if perm not in used:
                    order = np.array(perm, dtype=int)
                    break
        orders.append(order)
    return orders


def build_branches(
    n_t: int,
    l_count: int,
    beta: float,
    ordering: str = "fixed",
    channel: ChannelRealization | None = None,
    sigma_n2: float | None = None,
    sigma_s2: float = 1.0,
    pattern: str = "sic",
) -> list[BranchSpec]:
    """Assemble the L branch specifications for a detector.

    ``ordering`` picks the family: ``"fixed"`` needs no channel knowledge,
    ``"optimal"`` and ``"suboptimal"`` require ``channel`` (and use
    ``sigma_n2`` or the channel's own noise level).
    """
    if ordering == "fixed":
        orders = fixed_orderings(n_t, l_count)
    elif ordering == "optimal":
        if channel is None:
            raise ValueError("optimal ordering requires the channel")
        return order_optimal(
            channel, l_count, sigma_n2=sigma_n2, beta=beta, sigma_s2=sigma_s2
        )
    elif ordering == "suboptimal":
        if channel is None:
            raise ValueError("suboptimal ordering requires the channel")
        noise = channel.noise_variance if sigma_n2 is None else float(sigma_n2)
        stats = perfect_feedback_stats(ChannelRealization(channel.gains, noise), sigma_s2)
        orders = order_suboptimal(mmse_linear(stats), l_count)
    else:
        raise ValueError(f"unknown ordering mode {ordering!r}")
    return [
        make_branch(n_t, o, beta, index=l, pattern=pattern)
        for l, o in enumerate(orders)
    ]


# ---------------------------------------------------------------------------
# Detection cores
# ---------------------------------------------------------------------------

def _as_block(r, n_rx):
    r = np.asarray(r, dtype=complex)
    if r.ndim == 1:
        if r.size != n_rx:
            raise ValueError(f"received vector has length {r.size}, expected {n_rx}")
        return r[:, None], True
    if r.ndim != 2 or r.shape[0] != n_rx:
        raise ValueError(f"received block must be ({n_rx}, q), got {r.shape}")
    return r, False


def _finish(result: DetectionResult, squeeze: bool) -> DetectionResult:
    if squeeze:
        result.symbols = result.symbols[:, 0]
        result.chosen_branch = result.chosen_branch[:, 0]
        result.soft_outputs = result.soft_outputs[..., 0]
        result.metrics = result.metrics[..., 0]
    return result


def _sweep(r2d, w, f, orders, constellation, s_init=None):
    """Successive detection over a block on all L branches at once.

    ``w``/``f`` are one bank, (L, n_t, ·), shared by every column of
    ``r2d``, or carry a leading per-column axis, (q, L, n_t, ·), so that
    column c is detected with bank c.  Both run the same products: a shared
    bank keeps the columns in the matmul's column dimension, a per-column
    bank makes each column a batch of its own.  Each branch's working
    decision vector starts at its own feedforward-only slices, or at
    ``s_init``; step k refines stream ``orders[l, k]`` of every branch l.
    ``f`` is None for a bank without feedback taps: the feedforward slices
    are then the decisions and the n_t steps are skipped.  Returns the
    decisions, the pre-decision statistics z and the feedback products
    f^H s, each (L, n_t, q).
    """
    per_column = w.ndim == 4
    points = constellation.points
    rows = np.arange(orders.shape[0])
    # (n_rx, q) -> (q, 1, n_rx, 1): one column per batch entry
    z_ff = w.conj() @ (r2d.T[:, None, :, None] if per_column else r2d)
    if s_init is None or f is None:
        s_work = points[slice_to_index(z_ff, constellation)]
    else:
        seed = s_init.T[:, None, :, None] if per_column else s_init
        s_work = np.broadcast_to(seed, z_ff.shape).astype(complex)
    z_fb = np.zeros(z_ff.shape, dtype=complex)
    if f is not None:
        f_h = f.conj()
        for j in orders.T:
            # every stream is written once, so s_work ends as the decisions
            fb = (f_h[..., rows, j, :][..., None, :] @ s_work)[..., 0, :]
            zj = z_ff[..., rows, j, :] - fb
            s_work[..., rows, j, :] = points[slice_to_index(zj, constellation)]
            z_fb[..., rows, j, :] = fb
    out = s_work, z_ff - z_fb, z_fb
    if per_column:
        return tuple(np.moveaxis(x[..., 0], 0, -1) for x in out)
    return out


def detect_mb_mmse_df(
    r,
    bank: FilterBank,
    constellation: Constellation,
    metric: str = "full",
    initial_decisions: np.ndarray | None = None,
    reverse_sweep: bool = False,
    selection: str = "joint",
) -> DetectionResult:
    """Multi-branch decision-feedback detection with branch selection.

    Every branch seeds its feedback vector with its own feedforward-only
    slices (the tap patterns allocate feedback connections to streams
    detected later in the sweep, so the filters expect every interferer to
    be present in the feedback vector), then detects the streams in its own
    order, replacing entries with refined hard slices as it goes.  The
    branch with the smallest instantaneous metric wins:

        full (default): |s_cand - (w^H r - f^H s_dec)|^2
        reduced:         |s_cand|^2 - |w^H r|^2 + |f^H s_dec|^2

    ``full`` is the exact squared slicing residual of the branch output;
    ``reduced`` is a cheaper rank-one surrogate that drops the cross terms.
    Only the exact form separates the branches reliably: in large-sample
    runs the surrogate's error rate is flat (or slightly worse) in the
    branch count, while the residual gives the monotone improvement the
    extra orderings exist to provide.

    ``selection`` decides the granularity of that choice.  ``"joint"``
    (default) sums the metric over the streams of each branch and keeps the
    single best branch's whole decision vector, which preserves the internal
    consistency of that branch's cancellation path.  ``"per_stream"`` picks
    a possibly different branch for every stream; the output vector then
    mixes candidates and need not correspond to any branch's actual sweep,
    which costs roughly a factor of two in error rate at moderate SNR but
    matches the per-stream form of the selection rule.

    ``initial_decisions``, (n_t,) or (n_t, q), overrides the seed and
    ``reverse_sweep`` runs each branch's ordering backwards; the multi-stage
    detector uses both.

    The suboptimal receivers are recipes for this one kernel: linear MMSE
    is a bank whose feedback filters are all zero (beta = 0 or empty tap
    masks), which is detected by one slice of w^H r, and MMSE-SIC/DF is a
    single branch in natural order.  A single branch has nothing to select,
    so it is charged no metric or selection arithmetic; ``metrics`` is
    still returned.

    ``bank`` may carry a leading per-column axis (see :class:`FilterBank`):
    column c of the block is then detected with bank c, and every column
    still uses the branch orderings of ``bank.branches``.
    """
    n_br, n_t, n_rx = bank.w.shape[-3:]
    r2d, squeeze = _as_block(r, n_rx)
    q = r2d.shape[1]
    if len(bank.branches) != n_br:
        raise ValueError("filter bank and branch list sizes disagree")
    if bank.w.ndim == 4 and bank.w.shape[0] != q:
        raise ValueError(f"per-column bank has {bank.w.shape[0]} columns, block has {q}")
    if initial_decisions is not None:
        init = np.asarray(initial_decisions, dtype=complex)
        initial_decisions = np.broadcast_to(init[:, None] if init.ndim == 1 else init, (n_t, q))
    if metric not in ("reduced", "full"):
        raise ValueError(f"unknown metric {metric!r} (use 'reduced' or 'full')")
    if selection not in ("per_stream", "joint"):
        raise ValueError(f"unknown selection {selection!r} (use 'per_stream' or 'joint')")
    if any(br.n_streams != n_t for br in bank.branches):
        raise ValueError("branch stream count does not match the filter bank")
    orders = np.array([br.ordering for br in bank.branches])
    feedback = np.count_nonzero(bank.f) > 0
    cands, zs, z_fb = _sweep(
        r2d, bank.w, bank.f if feedback else None,
        orders[:, ::-1] if reverse_sweep else orders, constellation, initial_decisions,
    )
    if metric == "reduced":
        mets = np.abs(cands) ** 2 - np.abs(zs + z_fb) ** 2 + np.abs(z_fb) ** 2
    else:
        mets = np.abs(cands - zs) ** 2
    # per (branch, stream, column): the feedforward product, the feedback
    # product and its subtraction, and the metric when there is a choice
    terms = (n_t if feedback else 0) + (0 if n_br == 1 else 3 if metric == "reduced" else 1)
    counter = OpCounter()
    counter.add(mults=n_br * q * n_t * (n_rx + terms), adds=n_br * q * n_t * (n_rx - 1 + terms))
    if selection == "joint":
        best = np.argmin(mets.sum(axis=1), axis=0)
        chosen = np.broadcast_to(best, (n_t, q)).copy()
        if n_br > 1:
            counter.add(adds=n_br * (n_t - 1) * q)
    else:
        chosen = np.argmin(mets, axis=0)
    symbols = np.take_along_axis(cands, chosen[None], axis=0)[0]
    result = DetectionResult(symbols, chosen, zs, mets, counter)
    return _finish(result, squeeze)


def detect_ml(
    r, channel: ChannelRealization, constellation: Constellation, chunk: int = 1 << 14
) -> DetectionResult:
    """Exhaustive maximum-likelihood detection (argmin ||r - H s||^2).

    Refuses search spaces beyond 24 bits per vector; enumeration is chunked
    so memory stays bounded.
    """
    n_rx, n_t = channel.gains.shape
    bits = n_t * constellation.bits_per_symbol
    if bits > ML_BIT_GUARD:
        raise ValueError(
            f"ML search space of {bits} bits exceeds the {ML_BIT_GUARD}-bit guard"
        )
    r2d, squeeze = _as_block(r, n_rx)
    q = r2d.shape[1]
    m = constellation.size
    n_cand = m**n_t
    counter = OpCounter()
    best_cost = np.full(q, np.inf)
    best_idx = np.zeros(q, dtype=np.int64)
    # lexicographic enumeration, stream 0 most significant
    for start in range(0, n_cand, chunk):
        stop = min(start + chunk, n_cand)
        flat = np.arange(start, stop)
        digits = np.empty((n_t, stop - start), dtype=np.int64)
        rem = flat
        for j in range(n_t - 1, -1, -1):
            digits[j] = rem % m
            rem = rem // m
        s_chunk = constellation.points[digits]
        clean = channel.gains @ s_chunk  # (n_rx, k)
        counter.add(mults=n_rx * n_t * (stop - start), adds=n_rx * (n_t - 1) * (stop - start))
        diff = r2d[:, :, None] - clean[:, None, :]
        cost = np.sum(np.abs(diff) ** 2, axis=0)  # (q, k)
        counter.add(mults=cost.size * n_rx, adds=cost.size * (2 * n_rx - 1))
        local = np.argmin(cost, axis=1)
        local_cost = cost[np.arange(q), local]
        better = local_cost < best_cost
        best_cost[better] = local_cost[better]
        best_idx[better] = flat[local[better]]
    digits = np.empty((n_t, q), dtype=np.int64)
    rem = best_idx.copy()
    for j in range(n_t - 1, -1, -1):
        digits[j] = rem % m
        rem = rem // m
    symbols = constellation.points[digits]
    result = DetectionResult(
        symbols,
        np.zeros((n_t, q), dtype=int),
        symbols[None].copy(),
        np.broadcast_to(best_cost, (1, n_t, q)).copy(),
        counter,
    )
    return _finish(result, squeeze)


def multi_stage(
    r,
    bank: FilterBank,
    constellation: Constellation,
    stages: int = 2,
    metric: str = "full",
    selection: str = "per_stream",
) -> DetectionResult:
    """Iterative refinement: re-detect with previous-stage decisions fed back.

    A single stage is exactly the plain multi-branch detector (whose first
    sweep already refines feedforward-only initial decisions).  Every later
    stage seeds the feedback with the previous stage's selected decisions
    and sweeps the streams in reverse detection order, refining in place;
    the reversal evens out the late-detected streams' advantage.

    Refinement measurably helps mixed per-stream selections (the default
    here) but perturbs the internally consistent vectors that joint
    selection returns and makes them worse; leave ``stages=1`` when
    selecting jointly.
    """
    if stages < 1:
        raise ValueError("stage count must be at least 1")
    result = detect_mb_mmse_df(r, bank, constellation, metric=metric, selection=selection)
    total = result.op_counts
    for _ in range(stages - 1):
        result = detect_mb_mmse_df(
            r,
            bank,
            constellation,
            metric=metric,
            initial_decisions=result.symbols,
            reverse_sweep=True,
            selection=selection,
        )
        total.merge(result.op_counts)
        result.op_counts = total
    return result
