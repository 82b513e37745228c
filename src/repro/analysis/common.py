"""Shared plumbing for the per-experiment analysis modules.

Paper-scale traces are deterministic functions of (use case, seed,
options), and each calibration costs a few seconds of RSA key
generation, so the scalers that produce them are memoized here. The
rescale and the cost-model evaluation are cheap and are what the
benchmarks time.
"""

from functools import lru_cache

from ..core.costs import CostOptions
from ..core.trace import OperationTrace
from ..usecases.catalog import music_player, ringtone
from ..usecases.workload import WorkloadScaler

#: Seed every published experiment uses, for bit-reproducible artifacts.
DEFAULT_SEED = "repro-oma-drm-2005"


@lru_cache(maxsize=32)
def _cached_scaler(use_case_name: str, seed: str, count_mgf1: bool,
                   kdev_optimization: bool) -> WorkloadScaler:
    factories = {"music": music_player, "ringtone": ringtone}
    return WorkloadScaler(factories[use_case_name](), seed=seed,
                          options=CostOptions(count_mgf1=count_mgf1),
                          kdev_optimization=kdev_optimization)


def paper_scaler(use_case_name: str, seed: str = DEFAULT_SEED,
                 count_mgf1: bool = False,
                 kdev_optimization: bool = True) -> WorkloadScaler:
    """Memoized scaler for ``"music"`` or ``"ringtone"``."""
    return _cached_scaler(use_case_name, seed, count_mgf1,
                          kdev_optimization)


def music_trace(seed: str = DEFAULT_SEED,
                count_mgf1: bool = False) -> OperationTrace:
    """Paper-scale Music Player trace (memoized calibration)."""
    return paper_scaler("music", seed, count_mgf1).trace()


def ringtone_trace(seed: str = DEFAULT_SEED,
                   count_mgf1: bool = False) -> OperationTrace:
    """Paper-scale Ringtone trace (memoized calibration)."""
    return paper_scaler("ringtone", seed, count_mgf1).trace()
