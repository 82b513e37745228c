"""Named traced scenarios for ``python -m repro trace``.

Each scenario builds a fresh, fully seeded world with a
:class:`~repro.obs.tracer.Tracer` attached to the terminal's crypto
provider, drives one well-defined protocol workload, and hands back the
world — the caller reads the populated tracer (spans, events, metrics)
and the metered :class:`~repro.core.trace.OperationTrace` off it. Fresh
worlds only: the analysis layer's memoized runs must never observe a
tracer, so traced runs share nothing with them.

Scenario timestamps live on the virtual cycle timeline of the
architecture profile the tracer prices under; no wall-clock anywhere, so
the same seed always produces byte-identical exports.
"""

from typing import Callable, Dict, List, Tuple

from ..core.trace import OperationTrace, Phase
from ..drm.rel import play_count
from ..drm.roap.faults import FaultPlan, FaultyChannel
from ..drm.session import RetryPolicy, RoapSession
from ..obs.tracer import Tracer
from .catalog import music_player, ringtone
from .scenario import KIB, UseCase
from .workload import WorkloadScaler
from .world import DRMWorld, RSA_BITS

#: Content the scenarios publish: ringtone-class, deterministic bytes.
CONTENT_ID = "cid:trace"
CONTENT_OCTETS = 30 * KIB
RO_ID = "ro:trace"

#: Loss rate the ``lossy-registration`` scenario injects.
LOSSY_RATE = 0.4

#: Accesses the ``full`` and ``durable`` scenarios perform.
FULL_ACCESSES = 3


def _seeded_world(tracer: Tracer, seed: str, rsa_bits: int,
                  **kwargs) -> Tuple[DRMWorld, object]:
    world = DRMWorld.create(seed=seed, rsa_bits=rsa_bits, tracer=tracer,
                            **kwargs)
    dcf = world.ci.publish(CONTENT_ID, "audio/mpeg",
                           b"\x5a" * CONTENT_OCTETS,
                           "http://ri.example/shop")
    world.ri.add_offer(RO_ID, world.ci.negotiate_license(CONTENT_ID),
                       play_count(1_000))
    return world, dcf


def _registration(tracer: Tracer, seed: str, rsa_bits: int) -> DRMWorld:
    world, _ = _seeded_world(tracer, seed, rsa_bits)
    world.agent.register(world.ri)
    return world


def _acquisition(tracer: Tracer, seed: str, rsa_bits: int) -> DRMWorld:
    world, _ = _seeded_world(tracer, seed, rsa_bits)
    world.agent.register(world.ri)
    world.agent.acquire(world.ri, RO_ID)
    return world


def _install(tracer: Tracer, seed: str, rsa_bits: int) -> DRMWorld:
    world, dcf = _seeded_world(tracer, seed, rsa_bits)
    world.agent.register(world.ri)
    protected = world.agent.acquire(world.ri, RO_ID)
    world.agent.install(protected, dcf)
    return world


def _consume(tracer: Tracer, seed: str, rsa_bits: int) -> DRMWorld:
    world = _install(tracer, seed, rsa_bits)
    world.agent.consume(CONTENT_ID)
    return world


def _full(tracer: Tracer, seed: str, rsa_bits: int) -> DRMWorld:
    world = _install(tracer, seed, rsa_bits)
    for _ in range(FULL_ACCESSES):
        world.agent.consume(CONTENT_ID)
    return world


def _lossy_registration(tracer: Tracer, seed: str,
                        rsa_bits: int) -> DRMWorld:
    world, _ = _seeded_world(tracer, seed, rsa_bits)
    plan = FaultPlan.lossy("%s/lossy" % seed, LOSSY_RATE)
    channel = FaultyChannel(world.ri, plan, clock=world.clock)
    session = RoapSession(world.agent, channel,
                          RetryPolicy(max_attempts=8),
                          name="%s/session" % seed)
    session.register()
    return world


def _durable(tracer: Tracer, seed: str, rsa_bits: int) -> DRMWorld:
    world, dcf = _seeded_world(tracer, seed, rsa_bits, durable=True)
    world.agent.register(world.ri)
    protected = world.agent.acquire(world.ri, RO_ID)
    world.agent.install(protected, dcf)
    for _ in range(FULL_ACCESSES):
        world.agent.consume(CONTENT_ID)
    world.agent.recover_storage()
    return world


#: Scenario name -> runner; ordering is the CLI help ordering.
SCENARIOS: Dict[str, Callable[[Tracer, str, int], DRMWorld]] = {
    "registration": _registration,
    "acquisition": _acquisition,
    "install": _install,
    "consume": _consume,
    "full": _full,
    "lossy-registration": _lossy_registration,
    "durable": _durable,
}


#: Paper-scale modeled scenarios: the trace comes from the exact
#: rescaling engine (:class:`~repro.usecases.workload.WorkloadScaler`) and
#: is *replayed* through the tracer with one structural span per
#: contiguous protocol-phase segment — full 3.5 MB Music Player
#: profiles in milliseconds instead of a functional run's minutes,
#: bit-identical in cycle attribution either way.
MODELED_SCENARIOS: Dict[str, Callable[[], UseCase]] = {
    "music": music_player,
    "ringtone": ringtone,
}

#: Every name ``run_profile_scenario`` accepts, in CLI help order.
PROFILE_SCENARIOS: Tuple[str, ...] = (tuple(SCENARIOS)
                                      + tuple(MODELED_SCENARIOS))


def replay_modeled(name: str, tracer: Tracer,
                   seed: str = "repro-trace") -> OperationTrace:
    """Replay a paper-scale modeled use case through ``tracer``.

    The modeled trace's records are priced through
    :meth:`~repro.obs.tracer.Tracer.on_record` — exactly the records
    :class:`~repro.core.model.PerformanceModel` prices — nested inside
    one structural span per contiguous phase segment, under one root
    span named after the scenario. The profiler's tree therefore
    reconciles bit-exactly with the use case's
    :class:`~repro.core.model.CostBreakdown`.
    """
    try:
        use_case = MODELED_SCENARIOS[name]()
    except KeyError:
        raise ValueError(
            "unknown modeled scenario %r (expected one of %s)"
            % (name, ", ".join(sorted(MODELED_SCENARIOS)))) from None
    trace = WorkloadScaler(use_case, seed=seed).trace()
    segments: List[Tuple[Phase, List]] = []
    for record in trace:
        if not segments or segments[-1][0] is not record.phase:
            segments.append((record.phase, []))
        segments[-1][1].append(record)
    with tracer.span(name, track="modeled", use_case=use_case.name,
                     content_octets=use_case.content_octets,
                     accesses=use_case.accesses):
        for phase, records in segments:
            with tracer.span(phase.value, track=phase.value):
                for record in records:
                    tracer.on_record(record)
    return trace


def run_profile_scenario(name: str, tracer: Tracer,
                         seed: str = "repro-trace",
                         rsa_bits: int = RSA_BITS) -> OperationTrace:
    """Trace any profiling scenario; returns the metered trace.

    Modeled names (:data:`MODELED_SCENARIOS`) replay a rescaled
    paper-scale trace; every other name runs the real protocol stack
    via :func:`run_scenario`. Either way the returned
    :class:`~repro.core.trace.OperationTrace` prices to exactly the
    cycles the tracer recorded.
    """
    if name in MODELED_SCENARIOS:
        return replay_modeled(name, tracer, seed=seed)
    world = run_scenario(name, tracer, seed=seed, rsa_bits=rsa_bits)
    return world.agent_crypto.trace


def run_scenario(name: str, tracer: Tracer,
                 seed: str = "repro-trace",
                 rsa_bits: int = RSA_BITS) -> DRMWorld:
    """Run one named scenario against ``tracer``; returns its world.

    Raises ``ValueError`` for unknown names so the CLI can report a
    usage error instead of a traceback.
    """
    try:
        runner = SCENARIOS[name]
    except KeyError:
        raise ValueError(
            "unknown scenario %r (expected one of %s)"
            % (name, ", ".join(sorted(SCENARIOS)))) from None
    return runner(tracer, seed, rsa_bits)
