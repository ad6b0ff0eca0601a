"""Benchmark of mbdf's Monte Carlo BER sweeps.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository.  Each measured sweep is a fresh
interpreter (``child.py``) calling ``mbdf.harness.run_ber_sweep`` with
``workers=1`` and BLAS pinned to one thread; sweeps run one after another
until ``--seconds`` are spent (at least three untraced, or one untraced and
one traced pair with ``--trace 1``).  ``setup_s`` is the median over the
untraced sweeps of the time from interpreter start to the first channel draw.

Every sweep of a run uses the same config, so the checks are:

* determinism: every sweep, traced or not, gives identical bits, bit errors,
  frames and failed frames per SNR point;
* BER band: each point's packet and bit error rates agree with those of
  ``reference.json`` (see ``checks.py``).

A sweep that raises or fails a check counts all its packets as failed.  The
last output line is the JSON result; the line before it is the full report
with provenance.  ``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import band_failures, nondeterministic
from tracer import LAYERS
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# the whole run, children included, must end well inside three minutes
HARD_LIMIT_S = 150.0
MIN_UNTRACED_SWEEPS = 3


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # time set-up against cached bytecode, as an installed package runs;
    # only the first sweep in a fresh checkout compiles
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(workload: str, seed: int, mode: str, timeout: float) -> dict:
    """Run ``child.py`` in a fresh interpreter and return its record."""
    traced = mode == "traced"
    spawned_at = time.time()
    cmd = [sys.executable, str(BENCH / "child.py"), workload, str(seed), mode,
           repr(spawned_at)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"traced": traced, "error": f"timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
    except json.JSONDecodeError:
        pass
    return {"traced": traced, "error": proc.stderr[-4000:] or f"exit code {proc.returncode}"}


def collect(workload: str, seed: int, seconds: float, trace: bool) -> list:
    """Sweep records, one sweep after another until ``seconds`` are spent."""
    plan = ["sweep", "traced"] if trace else ["sweep"]
    min_rounds = 1 if trace else MIN_UNTRACED_SWEEPS
    records: list = []
    start = time.perf_counter()
    while True:
        for mode in plan:
            left = HARD_LIMIT_S - (time.perf_counter() - start)
            records.append(spawn(workload, seed, mode, left))
        rounds = len(records) // len(plan)
        elapsed = time.perf_counter() - start
        per_round = elapsed / rounds
        # stop within half a round of ``seconds``
        if elapsed + per_round > HARD_LIMIT_S or (
            rounds >= min_rounds and elapsed + per_round / 2 > seconds
        ):
            break
    return records


def judge(records: list, reference: list) -> list:
    """Why each record failed, or None for a record that passed."""
    reasons = [r.get("error") and "raised" for r in records]
    ran = [i for i, r in enumerate(records) if reasons[i] is None]
    for k in nondeterministic([records[i] for i in ran]):
        reasons[ran[k]] = "nondeterministic"
    for i in ran:
        if reasons[i] is None:
            missed = band_failures(records[i]["points"], reference,
                                   records[i]["packet_errors"])
            if missed:
                reasons[i] = "outside the reference band at " + ", ".join(missed)
    return reasons


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(untraced: list) -> dict:
    return {
        "pkt_per_s": _median([r["pkt_per_s"] for r in untraced]),
        "setup_s": _median([r["setup_s"] for r in untraced]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in untraced]),
    }


def per_layer(untraced: list, traced: list) -> dict:
    metrics: dict = {}
    if not traced:
        return metrics
    first = traced[0]
    for layer in LAYERS:
        metrics[f"{layer}.self_s_per_pkt"] = _median(
            [r["trace"]["layers"][layer]["self_s"] / r["packets"] for r in traced]
        )
        metrics[f"{layer}.calls_per_pkt"] = (
            first["trace"]["layers"][layer]["calls"] / first["packets"]
        )
    metrics["trace.coverage"] = _median([r["trace"]["coverage"] for r in traced])
    metrics["trace.overhead"] = (
        _median([r["pkt_per_s"] for r in untraced])
        / _median([r["pkt_per_s"] for r in traced]) - 1.0
    ) if untraced else 0.0
    # None where nothing was measured: no design, or no adaptive receiver
    metrics["filters.design_rel_err_max"] = first["trace"]["design_rel_err_max"]
    frames = sum(p["frames"] for p in first["points"])
    mults = sum(p["mults_per_vector"] * p["frames"] for p in first["points"]) / frames
    metrics["detectors.mults_per_vector"] = mults
    metrics["adaptive.mults_vs_analytic"] = (
        mults / first["analytic_mults"] if first["adaptive"] else None
    )
    return metrics


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def load_reference(name: str) -> list:
    return json.loads((BENCH / "reference.json").read_text())[name]["points"]


def summarize(name: str, seed: int, seconds: float, trace: bool,
              records: list) -> tuple[dict, dict]:
    """Check and reduce a workload's sweep records to (report, result line)."""
    workload = WORKLOADS[name]
    reasons = judge(records, load_reference(name))
    timed = [r for r in records if "error" not in r]
    untraced = [r for r in timed if not r["traced"]]
    traced = [r for r in timed if r["traced"]]
    metrics = per_layer(untraced, traced) if trace else end_to_end(untraced)
    attempted = workload.packets * len(records)
    failed = workload.packets * sum(reason is not None for reason in reasons)
    first = timed[0] if timed else {}
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "provenance": {
            "config_hash": first.get("config_hash"),
            "git_sha": git_sha(),
            "src_sha256": src_sha256(),
            "numpy": first.get("numpy"),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "blas_threads": first.get("blas_threads"),
        },
        "sweeps": len(records),
        "packets_per_sweep": workload.packets,
        # whether the band could use per-packet error counts (packets.py)
        "per_packet_band": bool(timed)
        and all(r["packet_errors"] is not None for r in timed),
        "failed_frac": failed / attempted,
        "failures": [
            {"sweep": i, "traced": r.get("traced"), "reason": reason,
             "error": r.get("error")}
            for i, (r, reason) in enumerate(zip(records, reasons)) if reason
        ],
        "points": first.get("points"),
        "per_sweep": [
            {k: r[k] for k in ("traced", "pkt_per_s", "setup_s", "peak_rss_mb")}
            for r in timed
        ],
        "functions": traced[0]["trace"]["functions"] if traced else None,
        "metrics": metrics,
    }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        # every metric BENCHMARK.json names; 0 where it was not measured,
        # which the report above gives as null
        "metrics": {
            m["name"]: {"value": metrics.get(m["name"]) or 0.0, "unit": m["unit"]}
            for m in spec["per_layer" if trace else "end_to_end"]
        },
    }
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mbdf" / "harness.py").is_file():
        print(f"error: no mbdf sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    reports, results = [], []
    for name in names:
        records = collect(name, args.seed, args.seconds, bool(args.trace))
        report, result = summarize(name, args.seed, args.seconds, bool(args.trace), records)
        reports.append(report)
        results.append(result)
        for metric, entry in result["metrics"].items():
            value = report["metrics"].get(metric)
            shown = "n/a" if value is None else f"{value:.6g} {entry['unit']}"
            print(f"{name:15s} {metric:28s} {shown}")
        print(f"{name:15s} {'failed_frac':28s} {report['failed_frac']:.6g}")
    for report in reports:
        print(json.dumps(report))
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{n}.{k}": v for n, r in zip(names, results)
                        for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
