#!/usr/bin/env python3
"""The Ringtone use case, executed fully functionally.

Unlike the music player (whose 3.5 MB payload needs the rescaling path),
the 30 KB ringtone is small enough to run end to end with real
cryptography at paper scale: real AES-CBC ringtone bytes, a real ROAP
registration, 25 real accesses with MAC + DCF-hash verification on every
ring — exactly the point the paper makes about small files.

Usage::

    python examples/ringtone.py [--calls N]
"""

import argparse
import time

from repro.analysis.formatting import format_ms, format_table
from repro.core.architecture import PAPER_PROFILES
from repro.core.model import PerformanceModel
from repro.core.trace import Algorithm
from repro.usecases.catalog import ringtone
from repro.usecases.runner import run_functional


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--calls", type=int, default=25,
                        help="number of incoming calls (accesses)")
    args = parser.parse_args()

    use_case = ringtone().scaled(ringtone().content_octets,
                                 accesses=args.calls)
    print("Use case: %s — %d KB DCF, %d calls (fully functional run)"
          % (use_case.name, use_case.content_octets // 1024,
             use_case.accesses))

    started = time.perf_counter()
    run = run_functional(use_case)
    host_seconds = time.perf_counter() - started
    print("Functional run completed in %.1f s of host time.\n"
          % host_seconds)

    totals = run.trace.totals_by_algorithm()
    rows = [
        (str(algorithm), str(invocations), str(blocks))
        for algorithm, (invocations, blocks) in sorted(
            totals.items(), key=lambda kv: kv[0].value)
    ]
    print(format_table(("algorithm", "invocations", "128/1024-bit blocks"),
                       rows, title="Recorded cryptographic operations"))
    print()

    model = PerformanceModel()
    rows = []
    for profile in PAPER_PROFILES:
        breakdown = model.evaluate(run.trace, profile)
        rows.append((profile.name, format_ms(breakdown.total_ms)))
    print(format_table(("architecture", "modeled time [ms]"), rows,
                       title="Modeled terminal cost at 200 MHz "
                             "(Figure 7)"))
    print()
    private = totals[Algorithm.RSA_PRIVATE][0]
    public = totals[Algorithm.RSA_PUBLIC][0]
    print("PKI operations at the terminal: %d private, %d public "
          "(paper: 3 + 4)" % (private, public))


if __name__ == "__main__":
    main()
