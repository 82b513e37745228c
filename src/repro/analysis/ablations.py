"""Ablation studies for the design choices the paper discusses.

Each function regenerates one study from DESIGN.md's ablation index:

* :func:`filesize_crossover` — where does AES/SHA-1 acceleration overtake
  PKI acceleration as the more valuable macro? (§4's closing argument
  about whether a PKI hardware cell's transistor cost is justified.)
* :func:`playback_sensitivity` — totals as a function of access count.
* :func:`kdev_ablation` — the §2.4.3 K_DEV re-wrap optimization versus
  re-running the PKI unwrap on every access.
* :func:`domain_overhead` — Domain RO (mandatory signature verification)
  versus Device RO.
* :func:`energy_comparison` — proportional-to-time energy (the paper's
  assumption) versus per-unit power weighting (its future-work remark
  that the hardware gap widens for energy).
* :func:`mgf1_sensitivity` — effect of the paper's one-hash EMSA-PSS
  approximation on every headline number.
"""

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..core.architecture import (HW_PROFILE, PAPER_PROFILES, SW_HW_PROFILE,
                                 SW_PROFILE, custom_profile)
from ..core.energy import ProportionalEnergyModel, WeightedEnergyModel
from ..core.model import PerformanceModel
from ..core.trace import Algorithm
from ..usecases.catalog import ringtone
from ..usecases.scenario import KIB, UseCase
from ..usecases.workload import WorkloadScaler
from .common import DEFAULT_SEED, music_trace, paper_scaler, ringtone_trace
from .formatting import format_table, format_ms

#: AES + SHA-1 macros only (the SW/HW variant's hardware set).
_AES_SHA_HW = {
    Algorithm.AES_ENCRYPT: True,
    Algorithm.AES_DECRYPT: True,
    Algorithm.SHA1: True,
    Algorithm.HMAC_SHA1: True,
}

#: RSA macros only — the complementary single-macro architecture.
_PKI_HW = {
    Algorithm.RSA_PUBLIC: True,
    Algorithm.RSA_PRIVATE: True,
}

#: The paper's use cases, by :func:`~repro.analysis.common.paper_scaler`
#: name, in table row order.
_PAPER_USE_CASES = ("ringtone", "music")


@dataclass
class SweepResult:
    """A labelled table of sweep rows."""

    title: str
    headers: Tuple[str, ...]
    rows: List[Tuple]

    def render(self) -> str:
        """ASCII table rendering."""
        return format_table(self.headers,
                            [[str(c) for c in row] for row in self.rows],
                            title=self.title)


def filesize_crossover(sizes_octets: Sequence[int] = None,
                       seed: str = DEFAULT_SEED) -> SweepResult:
    """Sweep DCF size: AES/SHA-1-only macros vs PKI-only macros.

    The crossover point is where bulk-crypto acceleration starts beating
    PKI acceleration — small files (ringtones) favor the PKI macro, large
    files (music) the AES/SHA-1 macros.
    """
    if sizes_octets is None:
        sizes_octets = [4 * KIB, 16 * KIB, 30 * KIB, 64 * KIB, 128 * KIB,
                        512 * KIB, 1024 * KIB, 3584 * KIB]
    template = UseCase(name="sweep", content_octets=4 * KIB, accesses=5)
    scaler = WorkloadScaler(template, seed=seed)
    model = PerformanceModel()
    aes_sha = custom_profile("AES+SHA1 macros", _AES_SHA_HW)
    pki = custom_profile("PKI macros", _PKI_HW)
    rows = []
    for size in sizes_octets:
        trace = scaler.trace(content_octets=size)
        sw_ms = model.evaluate(trace, SW_PROFILE).total_ms
        aes_ms = model.evaluate(trace, aes_sha).total_ms
        pki_ms = model.evaluate(trace, pki).total_ms
        winner = "AES/SHA-1" if aes_ms < pki_ms else "PKI"
        rows.append((
            "%d KiB" % (size // KIB), format_ms(sw_ms),
            format_ms(aes_ms), format_ms(pki_ms), winner,
        ))
    return SweepResult(
        title="Ablation: which macro set helps more, by DCF size "
              "(5 accesses)",
        headers=("DCF size", "SW [ms]", "AES+SHA1 HW [ms]",
                 "PKI HW [ms]", "better macro"),
        rows=rows,
    )


def playback_sensitivity(accesses: Sequence[int] = (1, 5, 10, 25, 50, 100),
                         seed: str = DEFAULT_SEED) -> SweepResult:
    """Sweep access count for both paper use cases (SW architecture)."""
    model = PerformanceModel()
    music_scaler = paper_scaler("music", seed)
    ring_scaler = paper_scaler("ringtone", seed)
    rows = []
    for n in accesses:
        music_ms = model.evaluate(music_scaler.trace(accesses=n),
                                  SW_PROFILE).total_ms
        ring_ms = model.evaluate(ring_scaler.trace(accesses=n),
                                 SW_PROFILE).total_ms
        rows.append((str(n), format_ms(music_ms), format_ms(ring_ms)))
    return SweepResult(
        title="Ablation: sensitivity to access count (SW architecture)",
        headers=("accesses", "Music Player [ms]", "Ringtone [ms]"),
        rows=rows,
    )


def kdev_ablation(seed: str = DEFAULT_SEED) -> SweepResult:
    """The K_DEV re-wrap optimization vs per-access PKI unwrap."""
    model = PerformanceModel()
    rows = []
    for name in _PAPER_USE_CASES:
        scaler = paper_scaler(name, seed)
        with_kdev = scaler.trace()
        without = paper_scaler(name, seed, kdev_optimization=False).trace()
        for profile in (SW_PROFILE, HW_PROFILE):
            ms_with = model.evaluate(with_kdev, profile).total_ms
            ms_without = model.evaluate(without, profile).total_ms
            rows.append((
                scaler.use_case.name, profile.name, format_ms(ms_with),
                format_ms(ms_without),
                "%.2fx" % (ms_without / ms_with),
            ))
    return SweepResult(
        title="Ablation: K_DEV re-wrap optimization (paper section 2.4.3)",
        headers=("use case", "arch", "with K_DEV [ms]",
                 "without [ms]", "slowdown"),
        rows=rows,
    )


def domain_overhead(seed: str = DEFAULT_SEED) -> SweepResult:
    """Domain RO versus Device RO for the Ringtone workload."""
    model = PerformanceModel()
    device_trace = ringtone_trace(seed)
    domain_case = UseCase(
        name="Ringtone", content_octets=ringtone().content_octets,
        accesses=ringtone().accesses, content_type="audio/midi",
        domain=True,
    )
    domain_trace = WorkloadScaler(domain_case, seed=seed).trace()
    rows = []
    for profile in PAPER_PROFILES:
        device_ms = model.evaluate(device_trace, profile).total_ms
        domain_ms = model.evaluate(domain_trace, profile).total_ms
        rows.append((
            profile.name, format_ms(device_ms), format_ms(domain_ms),
            "%+.1f%%" % (100.0 * (domain_ms - device_ms) / device_ms),
        ))
    return SweepResult(
        title="Ablation: Domain RO overhead (Ringtone use case)",
        headers=("arch", "Device RO [ms]", "Domain RO [ms]", "overhead"),
        rows=rows,
    )


def energy_comparison(seed: str = DEFAULT_SEED) -> SweepResult:
    """Proportional vs per-unit energy models across architectures.

    The per-unit model realizes the paper's future-work observation: with
    hardware macros an order of magnitude more power-efficient than the
    CPU, the SW-to-HW *energy* ratio exceeds the *time* ratio.
    """
    model = PerformanceModel()
    proportional = ProportionalEnergyModel()
    weighted = WeightedEnergyModel()
    rows = []
    for name in _PAPER_USE_CASES:
        scaler = paper_scaler(name, seed)
        trace = scaler.trace()
        for profile in PAPER_PROFILES:
            breakdown = model.evaluate(trace, profile)
            rows.append((
                scaler.use_case.name, profile.name,
                format_ms(breakdown.total_ms),
                "%.3f" % (proportional.joules(breakdown) * 1000.0),
                "%.3f" % (weighted.joules(breakdown) * 1000.0),
            ))
    return SweepResult(
        title="Ablation: energy models (mJ per full use case)",
        headers=("use case", "arch", "time [ms]",
                 "proportional [mJ]", "per-unit [mJ]"),
        rows=rows,
    )


def mgf1_sensitivity(seed: str = DEFAULT_SEED) -> SweepResult:
    """Effect of counting the full EMSA-PSS hashing (MGF1 + H)."""
    model = PerformanceModel()
    rows = []
    for name in _PAPER_USE_CASES:
        scaler = paper_scaler(name, seed)
        approx = scaler.trace()
        full = paper_scaler(name, seed, count_mgf1=True).trace()
        for profile in (SW_PROFILE, HW_PROFILE):
            ms_approx = model.evaluate(approx, profile).total_ms
            ms_full = model.evaluate(full, profile).total_ms
            rows.append((
                scaler.use_case.name, profile.name, format_ms(ms_approx),
                format_ms(ms_full),
                "%+.4f%%" % (100.0 * (ms_full - ms_approx)
                             / ms_approx),
            ))
    return SweepResult(
        title="Ablation: EMSA-PSS one-hash approximation "
              "(paper section 2.4.5)",
        headers=("use case", "arch", "approx [ms]", "full PSS [ms]",
                 "difference"),
        rows=rows,
    )


def energy_gap_ratios(seed: str = DEFAULT_SEED) -> Dict[str, float]:
    """SW/HW gap for time vs energy — the future-work claim, quantified.

    Returns the Music Player's SW:HW ratio under the time metric and
    under the per-unit energy metric; the paper's remark predicts
    ``energy_ratio > time_ratio``.
    """
    model = PerformanceModel()
    weighted = WeightedEnergyModel()
    trace = music_trace(seed)
    sw = model.evaluate(trace, SW_PROFILE)
    hw = model.evaluate(trace, HW_PROFILE)
    return {
        "time_ratio": sw.total_ms / hw.total_ms,
        "energy_ratio": weighted.joules(sw) / weighted.joules(hw),
    }
