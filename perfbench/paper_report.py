"""The ``paper-report`` workload: what users run, cold every time.

Each sample is a fresh interpreter running ``report_sample.py``, so no
sample can be served from an earlier sample's ``lru_cache``s or keys.
Set-up is the cold import of ``repro.analysis.report``. Seed 0 means the
published ``DEFAULT_SEED``, whose report must equal the committed
golden; at any seed every sample, traced or not, must render the same
report. In a traced run the first sample runs untraced (the overhead
baseline) and the rest traced; the traced samples must agree on every
deterministic counter.
"""

import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
GOLDEN = HERE.parent / "tests" / "analysis" / "golden" / "report.md"
SAMPLE = HERE / "report_sample.py"

#: A cold report takes about 90 s on a 2-vCPU host; this bounds a hang.
SAMPLE_TIMEOUT_S = 900


class PaperReport:
    name = "paper-report"
    item_name = "report"
    aliases = ("reports_per_s", "report_s")
    op_name = "report"
    #: A traced run: one untraced sample (the overhead baseline) and two
    #: traced ones, which must agree on every deterministic counter.
    trace_items = 3


def _sample(seed: int, traced: bool) -> dict:
    command = [sys.executable, str(SAMPLE), "--seed", str(seed),
               "--trace", "1" if traced else "0"]
    if seed == 0:
        command += ["--golden", str(GOLDEN)]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=SAMPLE_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError("report sample failed: %s"
                           % done.stderr.strip()[-2000:])
    return json.loads(done.stdout.strip().splitlines()[-1])


def _cold_import() -> None:
    subprocess.run([sys.executable, "-c",
                    "import sys; sys.path.insert(0, %r); "
                    "import repro.analysis.report" % str(SRC)],
                   check=True, timeout=SAMPLE_TIMEOUT_S)


def run(args, Run):
    """Run the samples; returns ``(run, metrics)`` like the others."""
    from layers import DETERMINISTIC, layer_unit
    run = Run(PaperReport())
    for _ in range(3):
        run.timed_setup(_cold_import)

    start = time.perf_counter()
    samples = []
    while True:
        index = len(samples)
        if args.trace:
            if index >= PaperReport.trace_items:
                break
        elif index and time.perf_counter() - start >= args.seconds:
            break
        traced = bool(args.trace) and index > 0
        run.attempted += 1
        try:
            sample = _sample(args.seed, traced)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as error:
            run.failed += 1
            run.fail("report sample %d: %s" % (index, error))
            samples.append(None)
            continue
        samples.append(sample)
        if not args.trace:
            run.calibration.sample()
        run.item_seconds.append(sample["report_s"])
        run.units += 1
        problems = list(sample["problems"])
        if sample["digest"] != next(s for s in samples if s)["digest"]:
            problems.append("sample %d rendered a different report" % index)
        if problems:
            run.failed += 1
            for problem in problems:
                run.fail(problem)

    rss = max((s["peak_rss_mib"] for s in samples if s), default=0.0)
    if not args.trace:
        run.calibration.sample(3)
        return run, run.end_to_end(rss)

    traced = [s for s in samples[1:] if s]
    untraced = samples[0]
    if not traced or untraced is None:
        run.fail("a traced run needs an untraced and a traced sample")
        return run, {}
    first = traced[0]["layers"]
    for other in traced[1:]:
        for name, value in other["layers"].items():
            deterministic = (name in DETERMINISTIC
                             or name.endswith((".world_builds", ".keygens")))
            if deterministic and value != first[name]:
                run.fail("cold-start: %s differs between samples (%r, %r)"
                         % (name, first[name], value))
    metrics = dict(first)
    # Each sample's time is in units of the calibration kernels its own
    # process ran just before and after the report.
    metrics["trace.overhead_ratio"] = (
        statistics.median(s["report_s"] / s["calibration_s"]
                          for s in traced)
        / (untraced["report_s"] / untraced["calibration_s"]) - 1.0)
    return run, {name: (value, layer_unit(name))
                 for name, value in metrics.items()}
