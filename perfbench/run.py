"""Host-time benchmark of the OMA DRM 2 reproduction's own stack.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ringtone --seed 1 --seconds 45 --trace 0

Workloads: ``ringtone``, ``music``, ``ri-saturation`` and
``paper-report`` (see README.md). With ``--trace 0`` the last line of
standard output is one JSON object carrying the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run,
whose spans are written to ``perfbench/out/``. A timed run does whole
items until ``--seconds`` have passed; a traced run does the workload's
fixed ``trace_items``, so its work counters repeat exactly for a seed.
Every output is checked; any mismatch makes the command exit 1.
"""

import argparse
import json
import pathlib
import resource
import statistics
import sys
import time

import calibrate
import layers
from calibrate import Calibration
from tracing import Recorder

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Untraced/traced probe pairs behind ``trace.overhead_ratio``.
PROBE_PAIRS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_percentile(samples):
    """Highest whole percentile with at least ten samples beyond it."""
    if len(samples) < 20:
        return None
    percentile = int(100 * (1 - 10.0 / len(samples)))
    ordered = sorted(samples)
    rank = max(0, -(-percentile * len(ordered) // 100) - 1)
    return percentile, ordered[rank]


class Run:
    """Outcome of one invocation: counts, timings, problems."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.setup_seconds = []
        self.item_seconds = []
        self.units = 0.0
        self.op_seconds = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        #: Kernels beside the set-ups scale ``setup_s``; kernels after
        #: the items scale the item times. Each phase has its own, as the
        #: host can change speed between them.
        self.setup_calibration = Calibration()
        self.calibration = Calibration()

    def timed_setup(self, setup) -> None:
        """Run ``setup()`` between calibration kernels and record it."""
        self.setup_calibration.sample(2)
        start = time.perf_counter()
        setup()
        self.setup_seconds.append(time.perf_counter() - start)
        self.setup_calibration.sample(2)

    def fail(self, message: str) -> None:
        self.problems.append(message)
        print("CHECK FAILED: %s" % message, file=sys.stderr)

    def raw_times(self):
        """Median set-up, work per second and median item, host seconds."""
        busy = sum(self.item_seconds)
        return (statistics.median(self.setup_seconds),
                self.units / busy if busy else 0.0,
                statistics.median(self.item_seconds)
                if self.item_seconds else 0.0)

    def end_to_end(self, rss_mib: float):
        """The timed metrics in reference-host seconds (see calibrate)."""
        setup, rate, item = self.raw_times()
        scale = self.calibration.scale
        return {
            "setup_s": (setup * self.setup_calibration.scale, "s"),
            "items_per_s": (rate / scale, "1/s"),
            "item_s_p50": (item * scale, "s"),
            "peak_rss_mib": (rss_mib, "MiB"),
        }


def run_items(run, workload, seconds, items, recorder=None):
    """The closed loop: one item after another until time is up."""
    start = time.perf_counter()
    index = 0
    while (index < items if items is not None
           else (index == 0 or time.perf_counter() - start < seconds)):
        run.attempted += 1
        item_start = time.perf_counter()
        try:
            result = workload.item(index)
        except Exception as error:  # boundary: count it and go on
            run.failed += 1
            run.fail("%s %d raised %r" % (workload.item_name, index, error))
            index += 1
            continue
        run.item_seconds.append(time.perf_counter() - item_start)
        if recorder is None:
            run.calibration.sample()
        run.units += result.units
        run.op_seconds.extend(result.op_seconds)
        problems = workload.check(result)
        if problems:
            run.failed += 1
            for problem in problems:
                run.fail(problem)
        elif recorder is not None and result.cycles:
            for name, cycles in result.cycles.items():
                key = "model.cycles." + layers.PROFILE_KEYS[name]
                recorder.totals[key] = cycles
        index += 1


def calibrated_probe(workload) -> float:
    """Probe time in units of the calibration kernels beside it."""
    before = Calibration().sample(1)[0]
    start = time.perf_counter()
    workload.probe()
    elapsed = time.perf_counter() - start
    after = Calibration().sample(1)[0]
    return 2 * elapsed / (before + after)


def run_in_process(args, workload):
    import workloads
    run = Run(workload)
    recorder = patch = None

    def traced(target):
        installed = layers.install(target)
        escaped = installed.unwrapped_references()
        if escaped:
            run.fail("unwrapped references survive: %s" % "; ".join(escaped))
        return installed

    if args.trace:
        recorder = Recorder()
        patch = traced(recorder)

    for repeat in range(workload.setup_repeats):
        try:
            run.timed_setup(lambda: workload.setup(repeat))
        except Exception as error:  # boundary: report and stop
            run.attempted = run.failed = 1
            run.fail("set-up raised %r" % error)
            if patch is not None:
                patch.restore()
            return run, {}

    ratios = []
    if args.trace:
        # Identical probe work, alternately untraced and traced (into a
        # throwaway recorder so the run's counters stay clean). Each
        # probe is scaled by the calibration kernels beside it, and the
        # median of the per-pair ratios is reported.
        patch.restore()
        for _ in range(PROBE_PAIRS):
            untraced = calibrated_probe(workload)
            probe_patch = traced(Recorder())
            ratios.append(calibrated_probe(workload) / untraced)
            probe_patch.restore()
        patch = traced(recorder)

    run_items(run, workload, args.seconds,
              workload.trace_items if args.trace else None, recorder)
    if patch is not None:
        patch.restore()
    else:
        run.calibration.sample(3)
    for leak in workloads.cache_leaks():
        run.fail("cold-start: " + leak)

    if args.trace:
        metrics = layers.layer_metrics(recorder)
        metrics["trace.overhead_ratio"] = statistics.median(ratios) - 1.0
        metrics["trace.spans"] = len(recorder.spans)
        print("tracing overhead per probe pair: %s" % ", ".join(
            "%+.1f%%" % (100 * (ratio - 1.0)) for ratio in ratios))
        OUT.mkdir(exist_ok=True)
        recorder.dump(OUT / ("%s-seed%d.spans.jsonl"
                             % (workload.name, args.seed)))
        return run, {name: (value, layers.layer_unit(name))
                     for name, value in metrics.items()}
    return run, run.end_to_end(peak_rss_mib())


def summarize(run, metrics, trace):
    workload = run.workload
    print("workload %s: %d %s(s) attempted, %d failed"
          % (workload.name, run.attempted, workload.item_name, run.failed))
    print("failed_ratio = %.4f" % (run.failed / max(run.attempted, 1)))
    if trace:
        if "trace.overhead_ratio" in metrics:
            print("tracing overhead: %+.1f%%"
                  % (100 * metrics["trace.overhead_ratio"][0]))
        return
    if not metrics:
        return
    names = dict(zip(("items_per_s", "item_s_p50"), workload.aliases))
    raw = dict(zip(("setup_s", "items_per_s", "item_s_p50"),
                   run.raw_times()))
    print("host speed: calibration kernel median %.4f s, scale %.4f "
          "(set-up %.4f)" % (calibrate.REFERENCE_S / run.calibration.scale,
                             run.calibration.scale,
                             run.setup_calibration.scale))
    for name, (value, unit) in metrics.items():
        line = "%s = %.6g %s" % (names.get(name, name), value, unit)
        if name in raw:
            line += " (%.6g host)" % raw[name]
        print(line)
    tail = tail_percentile(run.op_seconds)
    if tail is not None:
        print("%s_s_p%d = %.6g s (%.6g host; n=%d)" % (
            workload.op_name, tail[0], tail[1] * run.calibration.scale,
            tail[1], len(run.op_seconds)))


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print("perfbench: no program sources at %s" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    if args.workload == "paper-report":
        import paper_report
        run, metrics = paper_report.run(args, Run)
    else:
        if args.workload not in workloads.WORKLOADS:
            print("perfbench: unknown workload %r" % args.workload,
                  file=sys.stderr)
            return 2
        workload = workloads.WORKLOADS[args.workload](args.seed)
        run, metrics = run_in_process(args, workload)

    summarize(run, metrics, args.trace)
    correct = not run.problems and run.failed == 0 and run.attempted > 0
    print(json.dumps({
        "correct": correct, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
