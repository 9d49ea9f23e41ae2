"""Page-fault latency distributions, throughput saturation, prefaulting.

Four scenarios are modeled: a single CPU core faulting (CPU1), twelve CPU
cores (CPU12), GPU faults on pages already present in the system table
(GPU minor), and GPU faults needing fresh physical backing (GPU major).

Latency is drawn from a lognormal solved from the scenario's (mean, p95)
pair; the right-skewed tail matches the higher variability of GPU faults.
Throughput follows a saturating curve T(n) = plateau * n / (n + K); with
the built-in K values T(1) equals the inverse mean latency exactly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .machine import Z95, FaultScenarioParams, MachineProfile, lognormal_misfit


class FaultKind(enum.Enum):
    CPU = "cpu"
    GPU_MINOR = "gpu_minor"
    GPU_MAJOR = "gpu_major"


class Scenario(enum.Enum):
    CPU1 = "cpu1"
    CPU12 = "cpu12"
    GPU_MINOR = "gpu_minor"
    GPU_MAJOR = "gpu_major"


def scenario_params(profile: MachineProfile, scenario: Scenario) -> FaultScenarioParams:
    return getattr(profile.fault, scenario.value)


def _lognormal_params(mean: float, p95: float) -> tuple[float, float]:
    """Solve (mu, sigma) of a lognormal with the given mean and p95.

    mean = exp(mu + sigma^2/2), p95 = exp(mu + z*sigma). Takes the small
    sigma root so the distribution stays unimodal near the mean. Raises
    ValueError when machine.lognormal_misfit finds no such lognormal.
    """
    misfit = lognormal_misfit(mean, p95)
    if misfit:
        raise ValueError(misfit)
    if p95 == mean:
        return math.log(mean), 0.0
    sigma = Z95 - math.sqrt(Z95 * Z95 - 2.0 * math.log(p95 / mean))
    mu = math.log(mean) - sigma * sigma / 2.0
    return mu, sigma


class LatencyModel:
    """Per-scenario latency sampler with parameters fixed at construction."""

    def __init__(self, profile: MachineProfile):
        self._params = {}
        for scenario in Scenario:
            p = scenario_params(profile, scenario)
            self._params[scenario] = _lognormal_params(
                p.mean_latency_us, p.p95_latency_us)

    def sample(self, scenario: Scenario, rng: np.random.Generator,
               size: int | None = None):
        mu, sigma = self._params[scenario]
        return rng.lognormal(mean=mu, sigma=sigma, size=size)


def throughput(profile: MachineProfile, scenario: Scenario, n_pages: int) -> float:
    """Sustained fault-handling rate (pages/s) when n_pages fault together."""
    if n_pages < 1:
        raise ValueError("n_pages must be >= 1")
    p = scenario_params(profile, scenario)
    return p.plateau_pages_per_s * n_pages / (n_pages + p.half_saturation_pages)


@dataclass(frozen=True)
class PipelineResult:
    total_time_s: float
    gpu_major_time_s: float
    speedup_vs_gpu_major: float


def prefault_pipeline(profile: MachineProfile, n_pages: int,
                      overlap: bool) -> PipelineResult:
    """CPU12 prefault followed by GPU minor faulting, vs pure GPU major.

    Without overlap the two stages run back to back, which is what a
    fault-overhead benchmark measures. With overlap the stages pipeline
    per page and the sustained rate approaches the slower stage's plateau
    (the CPU prefault stage), bounding the large-n speedup by the ratio of
    the CPU12 and GPU-major plateaus.
    """
    if n_pages < 1:
        raise ValueError("n_pages must be >= 1")
    t_major = n_pages / throughput(profile, Scenario.GPU_MAJOR, n_pages)
    rate1 = throughput(profile, Scenario.CPU12, n_pages)
    rate2 = throughput(profile, Scenario.GPU_MINOR, n_pages)
    if overlap:
        total = (n_pages - 1) / min(rate1, rate2) + 1.0 / rate1 + 1.0 / rate2
    else:
        total = n_pages / rate1 + n_pages / rate2
    return PipelineResult(total_time_s=total, gpu_major_time_s=t_major,
                          speedup_vs_gpu_major=t_major / total)
