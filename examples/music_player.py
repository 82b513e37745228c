#!/usr/bin/env python3
"""The Music Player use case, end to end, with a full cost breakdown.

Walks the paper's §4 scenario explicitly — register with the Rights
Issuer, buy a license for a protected track, install it, listen five
times — and prints where every millisecond goes, per phase and per
algorithm, under each architecture variant.

The DRM protocol runs functionally (real AES/SHA-1/RSA on real bytes) at
the 2048-octet calibration size, and the trace is exactly rescaled to the
paper's 3.5 MB.

Usage::

    python examples/music_player.py
"""

from repro.analysis.formatting import format_ms, format_table
from repro.core.architecture import PAPER_PROFILES, SW_PROFILE
from repro.core.model import PerformanceModel
from repro.core.trace import Phase
from repro.usecases.catalog import music_player
from repro.usecases.workload import DEFAULT_CALIBRATION_OCTETS, WorkloadScaler


def main():
    use_case = music_player()
    print("Use case: %s — %.1f MB DCF, %d playbacks"
          % (use_case.name, use_case.content_octets / 2 ** 20,
             use_case.accesses))

    trace = WorkloadScaler(use_case).trace()
    print("Protocol executed functionally at %d octets; trace rescaled "
          "to %d octets.\n" % (DEFAULT_CALIBRATION_OCTETS,
                               use_case.content_octets))

    model = PerformanceModel()

    # Per-phase breakdown under the pure-software architecture.
    breakdown = model.evaluate(trace, SW_PROFILE)
    rows = [
        (str(phase), format_ms(ms))
        for phase, ms in sorted(breakdown.ms_by_phase().items(),
                                key=lambda kv: list(Phase).index(kv[0]))
    ]
    rows.append(("TOTAL", format_ms(breakdown.total_ms)))
    print(format_table(("phase", "time [ms]"), rows,
                       title="Software architecture, by phase"))
    print()

    # Per-algorithm breakdown.
    rows = [
        (str(algorithm), format_ms(ms),
         "%.1f%%" % (100 * share))
        for (algorithm, ms), share in zip(
            sorted(breakdown.ms_by_algorithm().items(),
                   key=lambda kv: -kv[1]),
            sorted(breakdown.share_by_algorithm().values(),
                   reverse=True))
    ]
    print(format_table(("algorithm", "time [ms]", "share"), rows,
                       title="Software architecture, by algorithm"))
    print()

    # The Figure 6 comparison.
    rows = []
    for profile in PAPER_PROFILES:
        b = model.evaluate(trace, profile)
        rows.append((profile.name, format_ms(b.total_ms),
                     "%.1fx" % (breakdown.total_ms / b.total_ms)))
    print(format_table(("architecture", "time [ms]", "speedup vs SW"),
                       rows, title="Architecture comparison (Figure 6)"))


if __name__ == "__main__":
    main()
