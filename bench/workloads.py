"""The benchmark's workloads: seeded BER sweeps of the 4x4 QPSK, L=4 receiver.

Each workload fixes the packets per SNR point, so a sweep simulates the same
number of packets whatever its error counts: the error stop rule is set out
of reach and the bit budget is exactly ``packets`` packets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

N_T = N_R = 4
BRANCHES = 4
BETA = 1.0
BITS_PER_SYMBOL = 2  # QPSK
UNREACHABLE_ERRORS = 10**15


@dataclass(frozen=True)
class Workload:
    name: str
    packets_per_point: int
    sim: dict = field(default_factory=dict)
    ordering: str = "fixed"

    @property
    def bits_per_packet(self) -> int:
        q = self.sim["packet_len"]
        if self.sim.get("coded"):
            return N_T * (q * BITS_PER_SYMBOL // 2 - 2)
        return N_T * q * BITS_PER_SYMBOL

    @property
    def packets(self) -> int:
        return self.packets_per_point * len(self.sim["snr_grid"])


# Why each workload is here (BENCHMARK.json has the one-line form):
# - uncoded_long amortizes one filter design over 500 symbols.  The
#   fixed-point design dominates today; once it is exact, the block detection
#   sweep does.  Batching trials should leave it unchanged.
# - uncoded_short shares nothing between packets: every 1-symbol packet pays
#   for the channel draw, ordering, branch build, design and the harness loop,
#   which is what batching trials removes.
# - adaptive_jakes runs detectors, adaptive and sysmodel one vector at a time
#   (900 detections per packet); filters only rebuild branches at reorders.
# - coded_turbo spends its time in BCJR decoding and never runs the adaptive
#   receiver.
# Packet counts make one sweep take about 4 s on a 2-core x86 host.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "uncoded_long",
            packets_per_point=40,
            sim=dict(snr_grid=(8.0, 16.0, 24.0), packet_len=500),
        ),
        Workload(
            "uncoded_short",
            packets_per_point=40,
            sim=dict(snr_grid=(8.0, 16.0, 24.0), packet_len=1),
            ordering="suboptimal",
        ),
        Workload(
            "adaptive_jakes",
            packets_per_point=24,
            sim=dict(
                snr_grid=(12.0,), packet_len=400, training_len=100,
                channel_mode="jakes", doppler=3e-4, csi="adaptive",
            ),
            ordering="suboptimal",
        ),
        Workload(
            "coded_turbo",
            packets_per_point=30,
            sim=dict(snr_grid=(6.0,), packet_len=200, coded=True, iterations=3),
        ),
    )
}


def make_config(workload: Workload, seed: int):
    """The SimConfig the program receives for ``workload`` under ``seed``."""
    from mbdf.detectors import DetectorConfig
    from mbdf.harness import SimConfig

    return SimConfig(
        n_t=N_T,
        n_r=N_R,
        constellation="qpsk",
        detector=DetectorConfig(
            kind="mbdf", branches=BRANCHES, beta=BETA, ordering=workload.ordering
        ),
        seed=seed,
        min_errors=UNREACHABLE_ERRORS,
        max_bits=workload.packets_per_point * workload.bits_per_packet,
        workers=1,
        **workload.sim,
    )
