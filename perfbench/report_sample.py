"""One cold ``paper-report`` sample; run by ``paper_report.py``.

Prints one JSON line: host seconds of ``report.generate``, the median
of calibration kernels run just before and after it, a digest of the
normalized report, peak RSS, problems found and, when traced, the
per-layer and per-section metrics.
"""

import argparse
import hashlib
import json
import pathlib
import resource
import statistics
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def normalize(text: str) -> str:
    """Content-only form, as ``tests/analysis/test_report_golden.py``."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    stripped = [line.rstrip() for line in lines]
    while stripped and not stripped[-1]:
        stripped.pop()
    return "\n".join(stripped) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--golden", default=None)
    args = parser.parse_args()

    from repro.analysis import report
    from repro.analysis.common import DEFAULT_SEED
    import layers
    import workloads
    from calibrate import Calibration
    from tracing import Recorder

    problems = ["cold-start: " + leak for leak in workloads.cache_leaks()]
    recorder = patch = None
    if args.trace:
        recorder = Recorder()
        patch = layers.install(recorder)
        problems += ["unwrapped reference: " + where
                     for where in patch.unwrapped_references()]

    seed = DEFAULT_SEED if args.seed == 0 else "perfbench-%d" % args.seed
    calibration = Calibration()
    calibration.sample(2)
    start = time.perf_counter()
    markdown = normalize(report.generate(seed).markdown)
    elapsed = time.perf_counter() - start
    calibration.sample(2)
    if patch is not None:
        patch.restore()

    if args.golden is not None:
        golden = normalize(pathlib.Path(args.golden).read_text("utf-8"))
        if markdown != golden:
            problems.append("report differs from the golden at %s" % seed)

    sample = {
        "report_s": elapsed,
        "calibration_s": statistics.median(calibration.samples),
        "digest": hashlib.sha256(markdown.encode("utf-8")).hexdigest(),
        "peak_rss_mib":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "problems": problems,
        "layers": None,
    }
    if recorder is not None:
        metrics = layers.layer_metrics(recorder)
        metrics.update(layers.section_metrics(recorder))
        metrics["trace.spans"] = len(recorder.spans)
        sample["layers"] = metrics
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        recorder.dump(out / ("paper-report-seed%d.spans.jsonl" % args.seed))
    print(json.dumps(sample))
    return 0


if __name__ == "__main__":
    sys.exit(main())
