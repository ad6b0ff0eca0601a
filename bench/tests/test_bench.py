"""Tests of the benchmark itself: its checks must catch what they claim to.

    python3 -m pytest bench/tests
"""

from dataclasses import replace

import numpy as np
import pytest

import child
import mbdf.filters
import mbdf.harness
import workloads
from checks import band_failures, fisher_tails, mean_interval, pooled_tails
from run import load_reference, summarize


@pytest.fixture
def small(monkeypatch):
    """uncoded_long cut to 2 packets per point: fast, with errors at 8 dB."""
    name = "uncoded_long"
    monkeypatch.setitem(
        workloads.WORKLOADS, name, replace(workloads.WORKLOADS[name], packets_per_point=2)
    )
    return name


def test_interval_is_honest_for_all_or_nothing_packets():
    # worst case clustering: each packet is wholly right or wholly wrong
    rng = np.random.default_rng(7)
    p, n, trials, alpha = 0.05, 30, 4000, 0.1
    means = rng.binomial(n, p, size=trials) / n
    misses = sum(not lo <= p <= hi for lo, hi in (mean_interval(m, n, alpha) for m in means))
    assert misses / trials <= alpha


def test_interval_stays_open_at_zero_errors():
    lo, hi = mean_interval(0.0, 20)
    assert lo == 0.0 and hi > 0.1


def test_pooled_bound_is_honest_for_exchangeable_packets():
    # a correct program: the run's and the reference's packets are one sample
    rng = np.random.default_rng(5)
    fractions = np.where(rng.random(330) < 0.3, rng.exponential(0.05, 330), 0.0)
    alpha, trials = 0.1, 300
    misses = 0
    for _ in range(trials):
        shuffled = list(rng.permutation(fractions.clip(0.0, 1.0)))
        misses += min(pooled_tails(shuffled[:30], shuffled[30:])) <= alpha / 2
    assert misses / trials <= alpha


def _break_receiver(monkeypatch, decide):
    """Pass the bits every receiver path of the harness decides through ``decide``."""
    demap, turbo = mbdf.harness.demap_hard, mbdf.harness.turbo_receive

    def demap_hard(*args, **kwargs):
        return decide(demap(*args, **kwargs))

    def turbo_receive(*args, **kwargs):
        res = turbo(*args, **kwargs)
        res.info_bits = decide(res.info_bits)
        return res

    monkeypatch.setattr(mbdf.harness, "demap_hard", demap_hard)
    monkeypatch.setattr(mbdf.harness, "turbo_receive", turbo_receive)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_real_receiver_passes_and_constant_receiver_fails_band(monkeypatch, name):
    reference = load_reference(name)
    record = child.measure(name, 11)
    assert record["packet_errors"] is not None
    assert band_failures(record["points"], reference, record["packet_errors"]) == []

    # constant decided bits: the symbols of a detector stuck on one point
    _break_receiver(monkeypatch, np.zeros_like)
    record = child.measure(name, 11)
    assert record["packet_errors"] is not None
    # the totals alone must catch it, for runs whose packets were not recorded
    assert band_failures(record["points"], reference)
    _, result = summarize(name, 11, 1.0, False, [record])
    assert not result["correct"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_per_packet_band_catches_a_fivefold_ber(monkeypatch, name):
    reference = load_reference(name)
    worst = max(p["bit_errors"] / p["bits"] for p in reference)
    rng = np.random.default_rng(0)
    flip = 4 * worst
    _break_receiver(monkeypatch, lambda bits: bits ^ (rng.random(bits.shape) < flip))
    record = child.measure(name, 11)
    assert band_failures(record["points"], reference, record["packet_errors"])


def test_fisher_tails_at_the_extremes():
    lo, hi = fisher_tails(3, 30, 40, 900)
    assert lo > 0.5 > hi > 0.0
    assert fisher_tails(0, 40, 0, 1200) == (1.0, 1.0)
    # a run failing every packet, where the reference fails one in twenty
    assert fisher_tails(30, 30, 45, 900)[1] < 1e-30


def test_raising_sweep_fails_every_packet(monkeypatch, small):
    def boom(*args, **kwargs):
        raise FloatingPointError("injected")

    monkeypatch.setattr(mbdf.harness, "_run_point", boom)
    records = [child.measure(small, 3) for _ in range(2)]
    assert all("FloatingPointError" in r["error"] for r in records)
    report, result = summarize(small, 3, 1.0, False, records)
    assert report["failed_frac"] == 1.0
    assert result["failed"] == result["attempted"] > 0
    assert not result["correct"]


def test_perturbed_seed_fails_determinism(small):
    records = [child.measure(small, 5), child.measure(small, 5, "traced"),
               child.measure(small, 6)]
    report, result = summarize(small, 5, 1.0, True, records)
    assert [f["sweep"] for f in report["failures"]] == [2]
    assert report["failures"][0]["reason"] == "nondeterministic"
    assert not result["correct"]


def test_tracer_is_transparent_and_restores_functions(small):
    originals = {name: getattr(mbdf.harness, name) for name in mbdf.harness.__all__}
    plain = child.measure(small, 9)
    traced = child.measure(small, 9, "traced")
    assert traced["points"] == plain["points"]
    assert {name: getattr(mbdf.harness, name) for name in originals} == originals
    layers = traced["trace"]["layers"]
    assert layers["harness"]["calls"] >= 1 and layers["filters"]["calls"] > 0
    assert traced["trace"]["coverage"] >= 0.98
    assert traced["trace"]["sampled_s"]["matched"] > 0.0
    report, result = summarize(small, 9, 1.0, True, [plain, traced])
    assert result["correct"]
    # every per-layer metric BENCHMARK.json names is measured, none defaulted
    assert set(report["metrics"]) == set(result["metrics"])



def test_coverage_counts_time_that_escapes_its_span(monkeypatch, small):
    # the harness calls the unwrapped design, so filters time runs under a
    # harness span: spans charge it to the harness, the sampled stack does not
    real = mbdf.filters.design_perfect_feedback
    install = child.Tracer.install

    def install_then_unwrap(self):
        install(self)
        monkeypatch.setattr(mbdf.harness, "design_perfect_feedback", real)

    monkeypatch.setattr(child.Tracer, "install", install_then_unwrap)
    traced = child.measure(small, 9, "traced")
    assert traced["trace"]["coverage"] < 0.5
