"""One measured sweep in a fresh interpreter.

    python bench/child.py WORKLOAD SEED MODE SPAWNED_AT

``run.py`` starts this script with ``src`` on ``PYTHONPATH`` and BLAS pinned
to one thread, and reads the JSON record on the last line of its output.
``SPAWNED_AT`` is the parent's ``time.time()`` just before the start, so
``setup_s`` covers interpreter start, imports, config validation and the
sweep's own set-up up to the first channel draw, which begins the first
packet.  MODE is ``sweep`` or ``traced`` (the sweep under the span tracer).
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import os
import resource
import sys
import time
import traceback
from dataclasses import asdict

from packets import PacketRecorder, split_by_point
from tracer import Tracer, replace_everywhere, restore
from workloads import WORKLOADS, make_config

# the draws that start every packet: block fading and the Jakes process
CHANNEL_DRAWS = ("rayleigh_channel", "jakes_sequence")


def blas_threads() -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, if it has one."""
    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _on_first_call(fns, callback) -> list:
    """Patch ``fns`` so the first call to any of them runs ``callback`` once."""
    undo: list = []

    def make(fn):
        def first(*args, **kwargs):
            restore(undo)
            callback()
            return fn(*args, **kwargs)

        return first

    for fn in fns:
        undo += replace_everywhere(fn, make(fn))
    return undo


def design_rel_err_max(samples) -> float:
    """Largest relative error in ``w`` of recorded designs vs the closed form."""
    import numpy as np
    from mbdf.filters import design_closed_form, perfect_feedback_stats

    worst = 0.0
    for channel, branches, bank in samples:
        ref = design_closed_form(perfect_feedback_stats(channel), branches)
        err = np.linalg.norm(bank.w - ref.w, axis=-1)
        worst = max(worst, float(np.max(err / np.linalg.norm(ref.w, axis=-1))))
    return worst


def measure(workload_name: str, seed: int, mode: str = "sweep",
            spawned_at: float | None = None) -> dict:
    """Run one sweep of the workload and return its record.

    An exception from the program is caught and returned as ``error``.
    """
    started = time.time() if spawned_at is None else spawned_at
    traced = mode == "traced"
    record: dict = {"workload": workload_name, "seed": seed, "traced": traced}
    tracer = Tracer() if traced else None
    recorder = PacketRecorder()
    samples: list = []
    first: list = []
    undo: list = []
    try:
        import numpy as np
        from mbdf import filters, harness, sysmodel

        record["numpy"] = np.__version__
        cfg = make_config(WORKLOADS[workload_name], seed)
        record["config_hash"] = harness.config_hash(cfg)
        if tracer is not None:
            tracer.install()
            traced_design = filters.design_perfect_feedback

            def sampled_design(channel, branches, *args, **kwargs):
                bank = traced_design(channel, branches, *args, **kwargs)
                samples.append((channel, branches, bank))
                return bank

            undo += replace_everywhere(traced_design, sampled_design)

        def at_first_draw():
            first.append((time.time(), time.perf_counter()))

        draws = [getattr(sysmodel, name) for name in CHANNEL_DRAWS]
        undo += _on_first_call(draws, at_first_draw)
        recorder.install()
        with tracer.sampling() if tracer else contextlib.nullcontext():
            report = harness.run_ber_sweep(cfg)
        end = time.perf_counter()
    except Exception:
        record["error"] = traceback.format_exc()
        return record
    finally:
        recorder.uninstall()
        restore(undo)
        if tracer is not None:
            tracer.uninstall()
    if not first:
        record["error"] = f"the sweep made no channel draw ({', '.join(CHANNEL_DRAWS)})"
        return record
    first_wall, first_perf = first[0]
    points = [asdict(p) for p in report.points]
    packets = sum(p.frames for p in report.points)
    record.update(
        points=points,
        packet_errors=split_by_point(recorder.errors, points),
        packets=packets,
        setup_s=first_wall - started,
        sweep_s=end - first_perf,
        pkt_per_s=packets / (end - first_perf),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        blas_threads=blas_threads(),
    )
    if tracer is not None:
        record["adaptive"] = cfg.csi == "adaptive"
        record["analytic_mults"] = harness.complexity_table(
            cfg.n_t, cfg.n_r, cfg.detector.branches
        )["mb_mmse_df_rls"]["mults"]
        record["trace"] = tracer.summary()
        # no design to compare where the receiver does not design filters
        record["trace"]["design_rel_err_max"] = (
            design_rel_err_max(samples) if samples else None
        )
        record["trace"]["designs_compared"] = len(samples)
    return record


if __name__ == "__main__":
    import json

    name, seed, mode, spawned_at = sys.argv[1:5]
    print(json.dumps(measure(name, int(seed), mode, float(spawned_at))))
