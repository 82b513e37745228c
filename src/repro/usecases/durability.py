"""Measuring what power-loss-atomic storage costs the terminal.

The journal (:mod:`repro.store`) HMAC-frames every storage mutation
through the agent's crypto provider, so durability is priced exactly
like the protocol itself: run the same consumption process twice —
once on volatile storage, once journaled — under metered crypto, and
the per-phase cycle difference *is* the journal overhead. A final
metered :meth:`~repro.drm.agent.DRMAgent.recover_storage` prices the
replay a device pays after power loss.

Everything is measured at calibration scale from one seed, mirroring
:func:`repro.usecases.fleet.build_cost_templates`; the resulting
:class:`DurabilityTemplates` is integer-valued so fleet-scale
accounting stays exact and shard-order independent.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict

from ..core.architecture import PAPER_PROFILES
from ..core.model import PerformanceModel
from ..core.trace import Phase
from ..drm.identifiers import content_id as make_content_id
from ..drm.identifiers import rights_object_id
from ..drm.rel import play_count
from .runner import synthetic_content
from .workload import DEFAULT_CALIBRATION_OCTETS
from .world import RSA_BITS, DRMWorld

#: Accesses the calibration run consumes (rights are minted to match).
CALIBRATION_ACCESSES = 2


@dataclass(frozen=True)
class DurabilityTemplates:
    """Pre-priced journal costs, keyed by architecture name.

    ``*_overhead_cycles`` are the extra cycles journaling adds to one
    registration, one installation and one content access; the record
    and octet counts describe how fast the journal grows. Recovery is
    priced as a measured replay over ``recovery_records`` records —
    scale by the actual journal length to price any crash point.
    """

    registration_overhead_cycles: Dict[str, int]
    installation_overhead_cycles: Dict[str, int]
    access_overhead_cycles: Dict[str, int]
    registration_records: int
    install_records: int
    access_records: int
    registration_octets: int
    install_octets: int
    access_octets: int
    recovery_cycles: Dict[str, int]
    recovery_records: int

    def recovery_cycles_for(self, architecture: str,
                            records: int) -> int:
        """Replay cost for a journal of ``records`` records (integer)."""
        if records < 0:
            raise ValueError("record count must be non-negative")
        per = self.recovery_cycles[architecture]
        return per * records // max(1, self.recovery_records)


@dataclass(frozen=True)
class DurabilityMeasurement:
    """One full durability calibration: overheads plus baselines.

    The volatile baselines let reports express the overhead as a share
    of the work the paper already prices.
    """

    seed: str
    rsa_bits: int
    templates: DurabilityTemplates
    baseline_registration_cycles: Dict[str, int]
    baseline_installation_cycles: Dict[str, int]
    baseline_access_cycles: Dict[str, int]
    recovery_transactions_applied: int


def _run_consumption_process(world: DRMWorld):
    """Register, acquire, install, consume — the measured sequence.

    Returns per-step journal growth as ((records, octets), ...) for
    registration, installation and one access; zeros on volatile
    storage (which has no journal).
    """
    cid = make_content_id("durability-probe")
    clear = synthetic_content(DEFAULT_CALIBRATION_OCTETS)
    dcf = world.ci.publish(
        content_id=cid, content_type="audio/midi", clear_content=clear,
        rights_issuer_url="http://ri.example/shop",
    )
    ro_id = rights_object_id(cid + "-license")
    world.ri.add_offer(ro_id, world.ci.negotiate_license(cid),
                       play_count(CALIBRATION_ACCESSES))

    journal = getattr(world.agent.storage, "journal", None)

    def counters():
        if journal is None:
            return 0, 0
        return journal.records_appended, len(journal.flash)

    world.agent.register(world.ri)
    after_register = counters()
    protected_ro = world.agent.acquire(world.ri, ro_id)
    world.agent.install(protected_ro, dcf)
    after_install = counters()
    world.agent.consume(cid)
    after_access = counters()
    for _ in range(CALIBRATION_ACCESSES - 1):
        world.agent.consume(cid)

    registration = after_register
    install = tuple(b - a for a, b in zip(after_register, after_install))
    access = tuple(b - a for a, b in zip(after_install, after_access))
    return registration, install, access


def _phase_cycles(trace, phase: Phase,
                  model: PerformanceModel) -> Dict[str, int]:
    sub = trace.filter(phase=phase)
    return {profile.name: model.evaluate(sub, profile).total_cycles
            for profile in PAPER_PROFILES}


def measure_durability(seed: str, rsa_bits: int = RSA_BITS
                       ) -> DurabilityMeasurement:
    """Price journal and recovery overhead from one calibration seed."""
    return _cached_measurement(seed, rsa_bits)


def build_durability_templates(seed: str, rsa_bits: int = RSA_BITS
                               ) -> DurabilityTemplates:
    """Just the fleet-facing templates of :func:`measure_durability`."""
    return measure_durability(seed, rsa_bits).templates


@lru_cache(maxsize=8)
def _cached_measurement(seed: str, rsa_bits: int) -> DurabilityMeasurement:
    model = PerformanceModel()

    # Identical protocol sequence, volatile vs. journaled: same seed,
    # same keys, same messages — the trace difference is the journal.
    volatile = DRMWorld.create(seed=seed + "/durability", metered=True,
                               rsa_bits=rsa_bits, durable=False)
    _run_consumption_process(volatile)
    volatile_trace = volatile.agent_crypto.reset_trace()

    durable = DRMWorld.create(seed=seed + "/durability", metered=True,
                              rsa_bits=rsa_bits, durable=True)
    registration, install, access = _run_consumption_process(durable)
    durable_trace = durable.agent_crypto.reset_trace()

    def overhead(phase: Phase, divisor: int = 1) -> Dict[str, int]:
        with_journal = _phase_cycles(durable_trace, phase, model)
        baseline = _phase_cycles(volatile_trace, phase, model)
        return {name: (with_journal[name] - baseline[name]) // divisor
                for name in with_journal}

    # The consumption phase covers CALIBRATION_ACCESSES identical
    # accesses; dividing yields the exact per-access journal overhead.
    access_overhead = overhead(Phase.CONSUMPTION, CALIBRATION_ACCESSES)

    # Power loss after the full run, then a metered reboot replay.
    report = durable.agent.recover_storage()
    recovery_trace = durable.agent_crypto.reset_trace()
    recovery_cycles = {
        profile.name: model.evaluate(recovery_trace,
                                     profile).total_cycles
        for profile in PAPER_PROFILES
    }

    templates = DurabilityTemplates(
        registration_overhead_cycles=overhead(Phase.REGISTRATION),
        installation_overhead_cycles=overhead(Phase.INSTALLATION),
        access_overhead_cycles=access_overhead,
        registration_records=registration[0],
        install_records=install[0],
        access_records=access[0],
        registration_octets=registration[1],
        install_octets=install[1],
        access_octets=access[1],
        recovery_cycles=recovery_cycles,
        recovery_records=report.records_scanned,
    )
    return DurabilityMeasurement(
        seed=seed, rsa_bits=rsa_bits, templates=templates,
        baseline_registration_cycles=_phase_cycles(
            volatile_trace, Phase.REGISTRATION, model),
        baseline_installation_cycles=_phase_cycles(
            volatile_trace, Phase.INSTALLATION, model),
        baseline_access_cycles={
            name: cycles // CALIBRATION_ACCESSES
            for name, cycles in _phase_cycles(
                volatile_trace, Phase.CONSUMPTION, model).items()},
        recovery_transactions_applied=report.transactions_applied,
    )
