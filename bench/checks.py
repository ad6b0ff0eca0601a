"""Correctness checks on sweep records: determinism and a BER band.

Packets are the sample unit: a sweep draws them independently, while the bits
of one packet share a channel and can fail together.  Each SNR point is
checked against the reference by up to three tests, each of which fails a
correct program with probability at most ALPHA:

* packet error rate, by Fisher's exact test.  Under a correct program the
  run's and the reference's packets are independent draws from one
  distribution, so given the pooled count of packets with any bit error, the
  run's count is hypergeometric.  It has power against a receiver that fails
  packets the reference mostly gets right.
* bit error rate: the run's interval for the mean per-packet error fraction
  must overlap the reference's.  Each interval comes from the
  Chernoff-Hoeffding bound for the mean of n independent variables in [0, 1]
  (Hoeffding 1963, Theorem 1), whose worst case is all-or-nothing packets, so
  it stays honest however errors cluster within a packet.  It needs the
  totals only, and so sees a large shift only.
* bit error rate, by the run's per-packet error fractions where
  ``packets.py`` could record them.  Under a correct program the run's and
  the reference's packets are exchangeable, so given the pooled fractions,
  the run's are a random subset drawn without replacement.  The tails of
  their mean are at most the Chernoff bounds for draws with replacement
  (Hoeffding 1963, Theorem 4), taken from the pooled fractions' moment
  generating function.  This bound follows how the fractions actually
  spread, so it sees shifts of a few times the reference BER.

None collapses at zero errors, as a Wald interval does.  An empirical
Bernstein interval would, like these, follow the spread, but its range term
alone exceeds 1 at this packet count and ALPHA.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

# two-sided miss probability of one test, or of one interval
ALPHA = 1e-6
COUNT_FIELDS = ("snr_db", "bits", "bit_errors", "frames", "frame_errors")


def _kl(x: float, p: float) -> float:
    """KL divergence between Bernoulli(x) and Bernoulli(p)."""
    out = 0.0
    if x > 0.0:
        out += x * math.log(x / p) if p > 0.0 else math.inf
    if x < 1.0:
        out += (1.0 - x) * math.log((1.0 - x) / (1.0 - p)) if p < 1.0 else math.inf
    return out


def mean_interval(mean: float, n: int, alpha: float = ALPHA) -> tuple[float, float]:
    """Interval for the true mean of ``n`` independent [0, 1] variables.

    It holds every p with n * KL(mean || p) <= log(2 / alpha), so each side
    misses with probability at most alpha / 2.
    """
    limit = math.log(2.0 / alpha) / n

    def edge(inside: float, outside: float) -> float:
        # bisect the boundary, ending on its outer side
        for _ in range(100):
            mid = 0.5 * (inside + outside)
            if _kl(mean, mid) <= limit:
                inside = mid
            else:
                outside = mid
        return outside

    low = 0.0 if mean <= 0.0 else edge(mean, 0.0)
    high = 1.0 if mean >= 1.0 else edge(mean, 1.0)
    return low, high


def ber_interval(point: dict) -> tuple[float, float]:
    return mean_interval(point["bit_errors"] / point["bits"], point["frames"])


def _log_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def fisher_tails(k: int, n: int, k_ref: int, n_ref: int) -> tuple[float, float]:
    """P(X <= k) and P(X >= k) for X the run's count of failed packets.

    X is hypergeometric: ``n`` packets drawn from the pooled ``n + n_ref``,
    of which ``k + k_ref`` failed.
    """
    total, bad = n + n_ref, k + k_ref
    norm = _log_comb(total, n)
    pmf = {
        x: math.exp(_log_comb(bad, x) + _log_comb(total - bad, n - x) - norm)
        for x in range(max(0, n - (total - bad)), min(n, bad) + 1)
    }
    return (math.fsum(p for x, p in pmf.items() if x <= k),
            math.fsum(p for x, p in pmf.items() if x >= k))


def _chernoff_rate(pool: np.ndarray, mean: float) -> float:
    """sup over lam >= 0 of lam * mean - log E exp(lam * X), X drawn from pool."""

    def gain(lam: float) -> float:
        a = lam * pool
        top = a.max()
        return lam * mean - top - math.log(np.mean(np.exp(a - top)))

    # gain is concave with gain(0) = 0: bracket its maximum, then bisect it
    # by golden section; past 2**24 the terms left out are below exp(-4000)
    high = 1.0
    while high < 2.0**24 and gain(2.0 * high) > gain(high):
        high *= 2.0
    low, high = 0.0, 2.0 * high
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(100):
        a, b = high - ratio * (high - low), low + ratio * (high - low)
        if gain(a) < gain(b):
            low = a
        else:
            high = b
    return max(gain(0.5 * (low + high)), 0.0)


def pooled_tails(run: list, ref: list) -> tuple[float, float]:
    """Bounds on P(M <= m) and P(M >= m), m the mean of ``run``.

    M is the mean of ``len(run)`` values drawn without replacement from the
    pooled ``run + ref``, as the run's are under a correct program.
    """
    pool = np.asarray(run + ref, dtype=float)
    mean = float(np.mean(run))
    n = len(run)
    return (math.exp(-n * _chernoff_rate(-pool, -mean)),
            math.exp(-n * _chernoff_rate(pool, mean)))


def band_failures(points: list, reference: list,
                  packet_errors: list | None = None) -> list:
    """The tests each SNR point fails, as "<snr> dB: <test>" strings.

    ``packet_errors`` holds the run's per-packet error counts for each point,
    or None where they were not recorded; ``reference`` points give theirs as
    [count, packets] pairs.
    """
    failed = []
    for i, (got, ref) in enumerate(zip(points, reference, strict=True)):
        if got["snr_db"] != ref["snr_db"]:
            raise ValueError(f"SNR grid {got['snr_db']} != reference {ref['snr_db']}")
        tails = fisher_tails(got["frame_errors"], got["frames"],
                             ref["frame_errors"], ref["frames"])
        if min(tails) <= ALPHA / 2:
            failed.append(f"{got['snr_db']} dB: packet error rate")
        # both intervals cover the true BER with probability 1 - ALPHA each
        lo, hi = ber_interval(got)
        ref_lo, ref_hi = ber_interval(ref)
        if hi < ref_lo or lo > ref_hi:
            failed.append(f"{got['snr_db']} dB: bit error rate")
        if packet_errors is not None:
            bits = got["bits"] / got["frames"]
            run = [e / bits for e in packet_errors[i]]
            pooled = [e / bits for e, times in ref["packet_errors"]
                      for _ in range(times)]
            if min(pooled_tails(run, pooled)) <= ALPHA / 2:
                failed.append(f"{got['snr_db']} dB: per-packet bit error rate")
    return failed


def signature(points: list) -> tuple:
    return tuple(tuple(p[k] for k in COUNT_FIELDS) for p in points)


def nondeterministic(records: list) -> list:
    """Indices of records whose counts differ from the most common counts.

    Every record ran the same config, so all counts must match exactly.
    """
    sigs = [signature(r["points"]) for r in records]
    if not sigs:
        return []
    common, _ = Counter(sigs).most_common(1)[0]
    return [i for i, s in enumerate(sigs) if s != common]
