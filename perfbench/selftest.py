"""Self-test of the benchmark itself.

Run from the root of a checkout (takes about ten minutes on a 2-vCPU
host, half of it in three cold paper reports)::

    python3 perfbench/selftest.py

It checks that:

* ``BENCHMARK.json`` declares exactly the metrics the runs print;
* after the traced run's wrappers are installed, no ``repro.*`` module
  still holds an unwrapped reference to a wrapped function, and that
  the check does catch a planted alias;
* two traced runs at one seed give identical deterministic counters
  (SHA-1 and DRBG bytes, keygens, prime candidates, world builds,
  kernel events, served/refused, modeled cycles) on every workload, and
  ``ri-saturation`` makes no crypto call at all;
* ringtone device names are fixed-width and never repeat;
* a wrong output (here: a pinned cycle count that no longer matches)
  makes the command exit non-zero;
* two cold ``paper-report`` samples agree on world builds and keygens,
  and the report equals the committed golden.
"""

import importlib
import json
import pathlib
import pkgutil
import subprocess
import sys
import types

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from tracing import Recorder  # noqa: E402

FAILURES = []


def expect(condition: bool, message: str) -> None:
    print("%s  %s" % ("ok  " if condition else "FAIL", message))
    if not condition:
        FAILURES.append(message)


def traced_run(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=1800)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["exit"] = done.returncode
    return result


def check_wrapper_completeness() -> None:
    import repro
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)
    from repro.crypto import rsa
    planted = types.ModuleType("repro._planted_alias")
    planted.keygen = rsa.generate_keypair
    patch = layers.install(Recorder())
    try:
        escaped = patch.unwrapped_references()
        expect(escaped == [], "no unwrapped alias in repro.* (%s)"
               % "; ".join(escaped))
        sys.modules[planted.__name__] = planted
        caught = patch.unwrapped_references()
        expect(any("_planted_alias.keygen" in where for where in caught),
               "a planted alias is reported")
    finally:
        sys.modules.pop(planted.__name__, None)
        patch.restore()


def check_exact_repeat() -> None:
    for workload in ("ringtone", "music", "ri-saturation"):
        first = traced_run(workload, 7)
        second = traced_run(workload, 7)
        expect(first["exit"] == 0 and second["exit"] == 0,
               "%s traced runs pass their checks" % workload)
        differing = [name for name in layers.DETERMINISTIC
                     if first["metrics"][name] != second["metrics"][name]]
        expect(not differing, "%s counters repeat exactly (differ: %s)"
               % (workload, ", ".join(differing) or "none"))
        if workload == "ri-saturation":
            crypto = {name: value["value"]
                      for name, value in first["metrics"].items()
                      if name.startswith("crypto.") and value["value"]}
            expect(not crypto, "ri-saturation makes no crypto call %r"
                   % crypto)


def check_declared_metrics() -> None:
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = [metric["name"] for metric in declared["per_layer"]]
    printed = layers.metric_names() + ["trace.overhead_ratio",
                                       "trace.spans"]
    expect(per_layer == printed,
           "BENCHMARK.json per_layer lists what a traced run prints")
    end_to_end = [metric["name"] for metric in declared["end_to_end"]]
    expect(end_to_end == ["setup_s", "items_per_s", "item_s_p50",
                          "peak_rss_mib"],
           "BENCHMARK.json end_to_end lists what a timed run prints")
    listed = [workload["name"] for workload in declared["workloads"]]
    expect(set(listed) <= set(workloads.WORKLOADS),
           "BENCHMARK.json lists only in-process workloads")


def check_device_names() -> None:
    ringtone = workloads.RingtoneWorkload(12345)
    names = [ringtone.device_name(index) for index in range(20000)]
    expect(len(set(names)) == len(names), "device names never repeat")
    expect(len({len(name) for name in names}) == 1,
           "device names have one width")


def check_mismatch_fails() -> None:
    pinned = workloads.pinned_cycles

    def wrong(key):
        cycles = dict(pinned(key))
        cycles["HW"] += 1
        return cycles
    workloads.pinned_cycles = wrong
    try:
        # ``--seconds 0`` runs exactly one item.
        code = bench.main(["--workload", "music", "--seed", "1",
                           "--seconds", "0"])
    finally:
        workloads.pinned_cycles = pinned
    expect(code != 0, "a wrong modeled cycle count fails the run")


def check_paper_report() -> None:
    result = traced_run("paper-report", 0)
    expect(result["exit"] == 0 and result["correct"],
           "paper-report matches the golden; two cold traced samples "
           "agree on builds and keygens")


def main() -> int:
    check_declared_metrics()
    check_wrapper_completeness()
    check_device_names()
    check_mismatch_fails()
    check_exact_repeat()
    check_paper_report()
    print("%d failure(s)" % len(FAILURES))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
