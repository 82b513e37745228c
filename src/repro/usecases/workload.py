"""Exact trace rescaling: paper-scale workloads from calibration runs.

The paper's figures need traces for a 3.5 MB DCF consumed five times —
workloads whose *structure* is content-size independent (the protocol
phases perform the same operations regardless of payload size) while only
two operations scale with content:

* the per-access **DCF hash** (SHA-1 over the whole DCF), and
* the per-access **content decryption** (AES-CBC over the payload).

:class:`WorkloadScaler` therefore executes the full protocol functionally at
a small calibration size with a single consumption, then rewrites exactly
those records to the target size and replicates the consumption phase per
access. The rewrite uses the *real* serializer on a same-shape DCF, so the
scaled trace is bit-identical to what a full functional run would record —
a property the test suite verifies at sizes where both paths are feasible.
"""

import dataclasses
from typing import Optional

from ..core.costs import CostOptions
from ..core.meter import units_128
from ..core.trace import OperationTrace, Phase
from ..drm.dcf import DCF
from .runner import ScenarioRun, run_functional
from .scenario import UseCase
from .world import DRMWorld

#: Content size used for the functional calibration pass.
DEFAULT_CALIBRATION_OCTETS = 2048

#: Trace labels whose block counts depend on the content size.
_DCF_HASH_LABEL = "dcf-hash"
_CONTENT_DECRYPT_LABEL = "content-decrypt"


def padded_payload_octets(content_octets: int) -> int:
    """AES-CBC ciphertext size for ``content_octets`` of plaintext.

    PKCS#7 always appends at least one octet, so the ciphertext is the
    next block multiple *above* the plaintext length.
    """
    return (content_octets // 16 + 1) * 16


def dcf_octets_for_content(reference_dcf: DCF, content_octets: int) -> int:
    """Exact canonical DCF size for a same-shape DCF with new content.

    Rebuilds the reference DCF with a placeholder payload of the target
    (padded) length and measures the real serializer output — no
    hand-maintained size formula to drift out of sync.
    """
    placeholder = bytes(padded_payload_octets(content_octets))
    resized = dataclasses.replace(reference_dcf,
                                  encrypted_data=placeholder)
    return len(resized.to_bytes())


def scale_trace(trace: OperationTrace, target_dcf_octets: int,
                target_payload_octets: int,
                accesses: int) -> OperationTrace:
    """Rescale a single-access calibration trace to the target workload.

    Non-consumption records pass through (with DCF-hash blocks rewritten
    where installation verifies the DCF too); the consumption group is
    rewritten to the target sizes and multiplied by ``accesses`` — and
    dropped when there are none, as a run that never consumes records
    nothing for it.
    """
    scaled = OperationTrace()
    consumption = []
    for record in trace:
        if record.label == _DCF_HASH_LABEL:
            record = dataclasses.replace(
                record, blocks=units_128(target_dcf_octets))
        elif record.label == _CONTENT_DECRYPT_LABEL:
            record = dataclasses.replace(
                record, blocks=target_payload_octets // 16)
        if record.phase is Phase.CONSUMPTION:
            consumption.append(record)
        else:
            scaled.append(record)
    if accesses:
        for record in consumption:
            scaled.append(record.scaled(accesses))
    return scaled


class WorkloadScaler:
    """One calibration run, rescaled to any (content size, accesses).

    The only place a calibration runs: the protocol executes
    functionally at :data:`DEFAULT_CALIBRATION_OCTETS` with a single
    consumption, and every paper-scale trace is an exact rescale of
    that run. World construction (RSA key generation) costs seconds;
    rescaling costs microseconds, so sweeps ask one scaler for as many
    points as they need. ``world`` runs the calibration in an existing
    world instead of building one from ``seed`` and the flags.
    """

    def __init__(self, use_case: UseCase, seed: str = "repro-world",
                 options: CostOptions = CostOptions(),
                 verify_dcf_on_install: bool = False,
                 kdev_optimization: bool = True,
                 world: Optional[DRMWorld] = None) -> None:
        self.use_case = use_case
        self._calibration = run_functional(
            use_case.scaled(DEFAULT_CALIBRATION_OCTETS), seed=seed,
            options=options, verify_dcf_on_install=verify_dcf_on_install,
            kdev_optimization=kdev_optimization, consume_times=1,
            world=world,
        )

    def run(self, content_octets: Optional[int] = None,
            accesses: Optional[int] = None) -> ScenarioRun:
        """The :class:`ScenarioRun` of one sweep point.

        Defaults fall back to the template use case's parameters.
        """
        if content_octets is None:
            content_octets = self.use_case.content_octets
        use_case = self.use_case.scaled(content_octets, accesses)
        calibration = self._calibration
        dcf_octets = dcf_octets_for_content(calibration.dcf, content_octets)
        payload_octets = padded_payload_octets(content_octets)
        return ScenarioRun(
            use_case=use_case, world=calibration.world,
            trace=scale_trace(calibration.trace, dcf_octets,
                              payload_octets, use_case.accesses),
            dcf=calibration.dcf, clear_content_octets=content_octets,
            sizes=dict(calibration.sizes, dcf=dcf_octets,
                       encrypted_payload=payload_octets),
        )

    def trace(self, content_octets: Optional[int] = None,
              accesses: Optional[int] = None) -> OperationTrace:
        """Just the paper-scale trace of one sweep point."""
        return self.run(content_octets, accesses).trace
