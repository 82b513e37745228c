#!/usr/bin/env python3
"""Battery-life impact of DRM: the paper's motivation, quantified.

The paper's opening frames battery lifetime as a first-class performance
dimension. This example answers the product question directly: with an
850 mAh phone battery, how much charge does DRM protection itself draw
per use case under each architecture, and what is the "DRM tax" relative
to simply playing the media?

Usage::

    python examples/battery_life.py [--capacity-mah N]
"""

import argparse

from repro.analysis.formatting import format_table
from repro.core.architecture import PAPER_PROFILES
from repro.core.battery import Battery, battery_impact, drm_tax_percent
from repro.core.energy import WeightedEnergyModel
from repro.core.model import PerformanceModel
from repro.usecases.catalog import music_player, ringtone
from repro.usecases.workload import WorkloadScaler

#: Rest-of-system playback power and rendering time per use case:
#: ~3.5 minutes of music x 5 listens at ~100 mW; 25 rings of ~15 s at
#: ~150 mW (speaker louder than headphones). Illustrative figures.
PLAYBACK = {
    "Music Player": (0.100, 5 * 210.0),
    "Ringtone": (0.150, 25 * 15.0),
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--capacity-mah", type=float, default=850.0)
    args = parser.parse_args()

    battery = Battery(capacity_mah=args.capacity_mah)
    model = PerformanceModel()
    energy_model = WeightedEnergyModel()

    print("Battery: %.0f mAh @ %.1f V (%.0f J)\n"
          % (battery.capacity_mah, battery.nominal_volts,
             battery.capacity_joules))

    for use_case in (ringtone(), music_player()):
        trace = WorkloadScaler(use_case).trace()
        watts, seconds = PLAYBACK[use_case.name]
        rows = []
        for profile in PAPER_PROFILES:
            breakdown = model.evaluate(trace, profile)
            impact = battery_impact(breakdown, energy_model, battery)
            tax = drm_tax_percent(breakdown, watts, seconds,
                                  energy_model)
            rows.append((
                profile.name,
                "%.2f" % impact.millijoules,
                "%.3f" % impact.microamp_hours,
                "%.0f" % impact.runs_per_charge(),
                "%.3f%%" % tax,
            ))
        print(format_table(
            ("arch", "DRM energy [mJ]", "charge [uAh]",
             "workloads/charge", "DRM tax vs playback"),
            rows, title=use_case.name))
        print()

    print("Reading: in software, unlocking a 3.5 MB track five times "
          "costs real battery;\nwith hardware macros the DRM energy "
          "footprint all but disappears — the paper's\nfuture-work "
          "observation that the hardware gap is even wider for energy.")


if __name__ == "__main__":
    main()
