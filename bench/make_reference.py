"""Regenerate ``reference.json``, the BER each workload is checked against.

    python3 bench/make_reference.py [--workload NAME ...]

Runs each workload's sweep with SCALE times its packets per point, in this
process, and stores the per-point counts with each packet's bit error count
(as [errors, packets] pairs).  The band check in ``checks.py`` turns them
into intervals and tail bounds, so the reference needs no error floor.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from checks import COUNT_FIELDS  # noqa: E402
from packets import PacketRecorder, split_by_point  # noqa: E402
from workloads import WORKLOADS, make_config  # noqa: E402

SCALE = 30
SEED = 20261017


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="*", choices=list(WORKLOADS))
    args = parser.parse_args(argv)
    from mbdf.harness import run_ber_sweep

    path = BENCH / "reference.json"
    doc = json.loads(path.read_text()) if path.exists() else {}
    for name in args.workload or WORKLOADS:
        workload = WORKLOADS[name]
        long_run = replace(workload, packets_per_point=SCALE * workload.packets_per_point)
        recorder = PacketRecorder()
        recorder.install()
        try:
            report = run_ber_sweep(make_config(long_run, SEED))
        finally:
            recorder.uninstall()
        points = [asdict(p) for p in report.points]
        per_packet = split_by_point(recorder.errors, points)
        if per_packet is None:
            raise SystemExit(f"{name}: packet error counts do not add up to the totals")
        doc[name] = {
            "seed": SEED,
            "config_hash": report.config_hash,
            "points": [
                {**{k: p[k] for k in COUNT_FIELDS},
                 "packet_errors": sorted(Counter(counts).items())}
                for p, counts in zip(points, per_packet)
            ],
        }
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(name, [p["bit_errors"] for p in points], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
