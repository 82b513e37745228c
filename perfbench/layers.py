"""Where the traced run hooks into each layer, and what it reports.

The layers are the program's own modules. :func:`install` wraps their
public entry points (see :mod:`tracing`); :func:`layer_metrics` turns
the recorded spans and counters into the ``per_layer`` metrics named in
``BENCHMARK.json``. Which end-to-end metric each layer metric should
move is written down in ``perfbench/README.md``.
"""

import importlib
from typing import Dict, List

from tracing import (Patcher, Recorder, counter_wrapper,
                     outermost_span_wrapper, span_wrapper)

#: Crypto provider methods (``repro.core.meter``) traced as meter spans.
METER_METHODS = ("random_bytes", "sha1", "hmac_sha1", "hmac_verify",
                 "aes_cbc_encrypt", "aes_cbc_decrypt", "aes_cbc_decrypt_raw",
                 "aes_wrap", "aes_unwrap", "pss_sign", "pss_verify",
                 "kem_encrypt", "kem_decrypt")

AGENT_OPS = ("register", "acquire", "install", "consume")

#: Profile names as metric-name suffixes ("/" is not allowed in names).
PROFILE_KEYS = {"SW": "SW", "SW/HW": "SW-HW", "HW": "HW"}

#: ``repro.analysis`` modules whose ``generate`` is one report section.
REPORT_SECTIONS = ("table1", "figure5", "figure6", "figure7", "claims",
                   "messages", "resilience", "durability", "fleet",
                   "saturation", "overload", "adversary", "observability")

#: Counters that are pure functions of (workload, seed, item count):
#: two traced runs with the same inputs must report them identically.
DETERMINISTIC = (
    "crypto.sha1.calls", "crypto.sha1.bytes", "crypto.hmac.calls",
    "crypto.drbg.bytes", "crypto.aes_cbc.bytes", "crypto.keywrap.calls",
    "crypto.rsa.keygens", "crypto.rsa.private_ops", "crypto.rsa.public_ops",
    "crypto.primes.candidates", "meter.records", "world.builds",
    "world.distinct_builds", "world.devices_added", "model.evaluations",
    "model.cycles.SW", "model.cycles.SW-HW", "model.cycles.HW",
    "kernel.events", "ri.served", "ri.refused", "ri.serve_request.calls",
    "slo.observe.calls",
) + tuple("agent.%s.calls" % op for op in AGENT_OPS) + tuple(
    "meter.%s.calls" % method for method in METER_METHODS)


def install(recorder: Recorder) -> Patcher:
    """Wrap every traced entry point; the caller must ``restore()``."""
    # By dotted name: some package namespaces re-export a function
    # under its module's name (``repro.crypto.sha1`` is one).
    (saturation, meter, model, trace, hmac, keywrap, modes, primes, rng,
     rsa, sha1, agent, content_issuer, rights_issuer, slo, fleet, kernel,
     ri, world) = (importlib.import_module("repro." + name) for name in (
         "analysis.saturation", "core.meter", "core.model", "core.trace",
         "crypto.hmac", "crypto.keywrap", "crypto.modes", "crypto.primes",
         "crypto.rng", "crypto.rsa", "crypto.sha1", "drm.agent",
         "drm.content_issuer", "drm.rights_issuer", "obs.slo", "sim.fleet",
         "sim.kernel", "sim.ri", "usecases.world"))

    patch = Patcher()
    count = recorder.count

    # -- repro.crypto: counters only, folded into the enclosing span.
    # SHA-1 is counted at its class, so every importer alias is covered.
    patch.method(sha1.SHA1, "update", counter_wrapper(
        recorder, busy="crypto.sha1.busy_ns",
        octets=lambda args, result: len(args[1]),
        octets_key="crypto.sha1.bytes"))
    patch.method(sha1.SHA1, "digest", counter_wrapper(
        recorder, calls="crypto.sha1.calls", busy="crypto.sha1.busy_ns"))
    patch.method(hmac.HMACSHA1, "digest", counter_wrapper(
        recorder, calls="crypto.hmac.calls"))
    patch.method(rng.HmacDrbg, "random_bytes", counter_wrapper(
        recorder, octets=lambda args, result: len(result),
        octets_key="crypto.drbg.bytes"))
    cbc_depth = [0]
    for name in ("cbc_encrypt", "cbc_decrypt", "cbc_encrypt_raw",
                 "cbc_decrypt_raw"):
        patch.function(modes, name, counter_wrapper(
            recorder, busy="crypto.aes_cbc.busy_ns",
            octets=lambda args, result: len(args[2]),
            octets_key="crypto.aes_cbc.bytes", depth=cbc_depth))
    for name in ("wrap", "unwrap"):
        patch.function(keywrap, name, counter_wrapper(
            recorder, calls="crypto.keywrap.calls",
            busy="crypto.keywrap.busy_ns"))
    patch.function(rsa, "generate_keypair", counter_wrapper(
        recorder, calls="crypto.rsa.keygens", busy="crypto.rsa.keygen_ns"))
    for name, kind in (("rsadp", "private"), ("rsasp1", "private"),
                       ("rsaep", "public"), ("rsavp1", "public")):
        patch.function(rsa, name, counter_wrapper(
            recorder, calls="crypto.rsa.%s_ops" % kind,
            busy="crypto.rsa.busy_ns"))
    patch.function(primes, "is_probable_prime", counter_wrapper(
        recorder, calls="crypto.primes.candidates"))
    patch.function(primes, "generate_prime", counter_wrapper(
        recorder, calls="crypto.primes.primes"))

    # -- repro.core.meter: one span per outermost provider call.
    meter_depth = [0]
    for method in METER_METHODS:
        for cls in (meter.PlainCrypto, meter.MeteredCrypto):
            if method in cls.__dict__:
                patch.method(cls, method, outermost_span_wrapper(
                    recorder, "meter." + method, meter_depth))
    patch.method(trace.OperationTrace, "append", counter_wrapper(
        recorder, calls="meter.records"))

    # -- repro.drm: agent operations and the servers they call.
    for op in AGENT_OPS:
        patch.method(agent.DRMAgent, op,
                     span_wrapper(recorder, "agent." + op))
    for op in ("register", "request_ro"):
        patch.method(rights_issuer.RightsIssuer, op,
                     span_wrapper(recorder, "ri." + op))
    patch.method(content_issuer.ContentIssuer, "publish",
                 span_wrapper(recorder, "ci.publish"))

    # -- repro.usecases: world provisioning.
    def world_built(span, result, args, kwargs):
        options = dict(kwargs)
        seed = options.pop("seed", args[1] if len(args) > 1 else None)
        recorder.world_keys.add(
            (seed, options.pop("rsa_bits", world.RSA_BITS),
             repr(sorted(options.items()))))
    patch.method(world.DRMWorld, "create", span_wrapper(
        recorder, "world.create", after=world_built))
    patch.method(world.DRMWorld, "add_device",
                 span_wrapper(recorder, "world.add_device"))

    # -- repro.core.model: trace pricing.
    patch.method(model.PerformanceModel, "evaluate",
                 span_wrapper(recorder, "model.evaluate"))

    # -- repro.sim: kernel runs, RI requests, SLO observations.
    def kernel_run(original):
        def wrapper(self, *args, **kwargs):
            before = self.events_executed
            span = recorder.open("kernel.run")
            try:
                return original(self, *args, **kwargs)
            finally:
                recorder.close(span)
                count("kernel.events", self.events_executed - before)
        wrapper.__wrapped__ = original
        return wrapper
    patch.method(kernel.Kernel, "run", kernel_run)
    patch.method(ri.RIServer, "serve_request", counter_wrapper(
        recorder, calls="ri.serve_request.calls"))
    patch.method(slo.SLOMonitor, "observe", counter_wrapper(
        recorder, calls="slo.observe.calls"))

    def load_done(span, result, args, kwargs):
        count("ri.served", result.load.served)
        count("ri.refused", result.load.refused)
    patch.function(fleet, "run_open_load", span_wrapper(
        recorder, "sim.open_load", new_group=True, after=load_done))

    # -- repro.analysis: the sweep and the report sections.
    patch.function(saturation, "sweep",
                   span_wrapper(recorder, "analysis.sweep"))
    for section in REPORT_SECTIONS:
        module = importlib.import_module("repro.analysis." + section)
        patch.function(module, "generate", span_wrapper(
            recorder, "report." + section, new_group=True))
    return patch


def _seconds(nanoseconds: int) -> float:
    return nanoseconds / 1e9


def layer_metrics(recorder: Recorder) -> Dict[str, float]:
    """Every per-layer metric, in ``BENCHMARK.json`` order."""
    totals = recorder.totals
    metrics: Dict[str, float] = {}
    for key in ("crypto.sha1.calls", "crypto.sha1.bytes"):
        metrics[key] = totals[key]
    metrics["crypto.sha1.busy_s"] = _seconds(totals["crypto.sha1.busy_ns"])
    for key in ("crypto.hmac.calls", "crypto.drbg.bytes",
                "crypto.aes_cbc.bytes"):
        metrics[key] = totals[key]
    metrics["crypto.aes_cbc.busy_s"] = _seconds(
        totals["crypto.aes_cbc.busy_ns"])
    metrics["crypto.keywrap.calls"] = totals["crypto.keywrap.calls"]
    metrics["crypto.rsa.keygens"] = totals["crypto.rsa.keygens"]
    metrics["crypto.rsa.keygen_s"] = _seconds(totals["crypto.rsa.keygen_ns"])
    metrics["crypto.rsa.private_ops"] = totals["crypto.rsa.private_ops"]
    metrics["crypto.rsa.public_ops"] = totals["crypto.rsa.public_ops"]
    metrics["crypto.rsa.busy_s"] = _seconds(totals["crypto.rsa.busy_ns"])
    metrics["crypto.primes.candidates"] = totals["crypto.primes.candidates"]
    primes_found = totals["crypto.primes.primes"]
    metrics["crypto.primes.candidates_per_prime"] = (
        totals["crypto.primes.candidates"] / primes_found
        if primes_found else 0.0)

    meter_busy = 0
    for method in METER_METHODS:
        calls, busy, _ = recorder.span_stats("meter." + method)
        metrics["meter.%s.calls" % method] = calls
        metrics["meter.%s.busy_s" % method] = _seconds(busy)
        meter_busy += busy
    metrics["meter.records"] = totals["meter.records"]
    metrics["meter.busy_s"] = _seconds(meter_busy)
    # Busy time of the timed primitives (SHA-1, AES-CBC, key wrap, RSA)
    # inside meter spans. The rest of the meter span time is the
    # provider's bookkeeping plus the glue around the primitives (PSS
    # and KEM encoding, byte handling); none of them nest in another.
    inside = 0
    for span in recorder.spans:
        if span.name.startswith("meter."):
            inside += sum(span.counters.get(key, 0) for key in (
                "crypto.sha1.busy_ns", "crypto.aes_cbc.busy_ns",
                "crypto.keywrap.busy_ns", "crypto.rsa.busy_ns"))
    metrics["meter.overhead_s"] = _seconds(meter_busy - inside)

    for op in AGENT_OPS:
        calls, busy, own = recorder.span_stats("agent." + op)
        metrics["agent.%s.calls" % op] = calls
        metrics["agent.%s.busy_s" % op] = _seconds(busy)
        metrics["agent.%s.self_s" % op] = _seconds(own)
    for name in ("ri.register", "ri.request_ro", "ci.publish"):
        metrics[name + ".busy_s"] = _seconds(recorder.span_stats(name)[1])

    builds, build_ns, _ = recorder.span_stats("world.create")
    metrics["world.builds"] = builds
    metrics["world.distinct_builds"] = len(recorder.world_keys)
    metrics["world.build_s"] = _seconds(build_ns)
    metrics["world.devices_added"] = recorder.span_stats(
        "world.add_device")[0]

    evaluations, evaluate_ns, _ = recorder.span_stats("model.evaluate")
    metrics["model.evaluations"] = evaluations
    metrics["model.evaluate_s"] = _seconds(evaluate_ns)
    for key in PROFILE_KEYS.values():
        metrics["model.cycles." + key] = totals["model.cycles." + key]

    _, run_ns, _ = recorder.span_stats("kernel.run")
    events = totals["kernel.events"]
    metrics["kernel.events"] = events
    metrics["kernel.run_s"] = _seconds(run_ns)
    metrics["kernel.events_per_s"] = (events / _seconds(run_ns)
                                      if run_ns else 0.0)
    metrics["ri.served"] = totals["ri.served"]
    metrics["ri.refused"] = totals["ri.refused"]
    metrics["ri.serve_request.calls"] = totals["ri.serve_request.calls"]
    metrics["slo.observe.calls"] = totals["slo.observe.calls"]
    metrics["kernel.events_per_served"] = (
        events / totals["ri.served"] if totals["ri.served"] else 0.0)
    sweeps, sweep_ns, _ = recorder.span_stats("analysis.sweep")
    metrics["analysis.sweep.calls"] = sweeps
    metrics["analysis.sweep.busy_s"] = _seconds(sweep_ns)
    return metrics


def section_metrics(recorder: Recorder) -> Dict[str, float]:
    """Per report section: host seconds, world builds and keygens."""
    rolled = recorder.subtree_counters("report.")
    metrics: Dict[str, float] = {}
    for section in REPORT_SECTIONS:
        name = "report." + section
        metrics[name + "_s"] = _seconds(recorder.span_stats(name)[1])
        metrics[name + ".world_builds"] = rolled[name]["spans.world.create"]
        metrics[name + ".keygens"] = rolled[name]["crypto.rsa.keygens"]
    return metrics


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_per_prime", "_per_served")):
        return "ratio"
    if name.startswith("model.cycles."):
        return "cycles"
    return "count"


def metric_names() -> List[str]:
    """Names :func:`layer_metrics` reports, in order."""
    return list(layer_metrics(Recorder()))
