import numpy as np
import pytest

from upm_sim import fault
from upm_sim.fault import LatencyModel, Scenario, prefault_pipeline, throughput
from upm_sim.machine import builtin_mi300a


@pytest.fixture(scope="module")
def profile():
    return builtin_mi300a()


@pytest.mark.parametrize("scenario,mean,p95", [
    (Scenario.CPU1, 9.0, 11.0),
    (Scenario.CPU12, 9.0, 11.0),
    (Scenario.GPU_MINOR, 16.0, 20.0),
    (Scenario.GPU_MAJOR, 18.0, 22.0),
])
def test_latency_distribution_moments(profile, scenario, mean, p95):
    rng = np.random.default_rng(123)
    samples = LatencyModel(profile).sample(scenario, rng, 100_000)
    assert samples.min() > 0
    assert float(samples.mean()) == pytest.approx(mean, rel=0.02)
    assert float(np.percentile(samples, 95)) == pytest.approx(p95, rel=0.05)


def test_latency_sampling_deterministic(profile):
    model = LatencyModel(profile)
    a = model.sample(Scenario.CPU1, np.random.default_rng(7))
    b = model.sample(Scenario.CPU1, np.random.default_rng(7))
    assert a == b


@pytest.mark.parametrize("seed", range(5))
def test_latency_orderings_hold_for_every_seed(profile, seed):
    rng = np.random.default_rng(seed)
    model = LatencyModel(profile)
    stats = {}
    for scenario in (Scenario.CPU1, Scenario.GPU_MINOR, Scenario.GPU_MAJOR):
        s = model.sample(scenario, rng, 20_000)
        stats[scenario] = (s.mean(), np.percentile(s, 95))
    assert stats[Scenario.CPU1][0] < stats[Scenario.GPU_MINOR][0] \
        < stats[Scenario.GPU_MAJOR][0]
    for mean, p95 in stats.values():
        assert p95 >= mean


def test_throughput_anchor_points(profile):
    assert throughput(profile, Scenario.GPU_MAJOR, 10**6) == \
        pytest.approx(1.1e6, rel=0.01)
    assert throughput(profile, Scenario.GPU_MINOR, 10**7) == \
        pytest.approx(9.0e6, rel=0.01)
    assert throughput(profile, Scenario.CPU12, 10**5) == \
        pytest.approx(3.7e6, rel=0.01)
    assert throughput(profile, Scenario.CPU1, 10**3) == \
        pytest.approx(872e3, rel=0.01)


def test_throughput_single_page_matches_inverse_latency(profile):
    for scenario in Scenario:
        params = fault.scenario_params(profile, scenario)
        t1 = throughput(profile, scenario, 1)
        inverse = 1.0 / (params.mean_latency_us * 1e-6)
        assert 0.5 <= t1 / inverse <= 2.0


def test_throughput_monotone_concave_bounded(profile):
    for scenario in Scenario:
        plateau = fault.scenario_params(profile, scenario).plateau_pages_per_s
        ns = np.unique(np.logspace(0, 7, 40).astype(int))
        ts = [throughput(profile, scenario, int(n)) for n in ns]
        assert all(t <= plateau for t in ts)
        assert all(a <= b for a, b in zip(ts, ts[1:]))
        # concavity of T(n) on its continuous argument
        mids = [(throughput(profile, scenario, n) +
                 throughput(profile, scenario, n + 2)) / 2
                <= throughput(profile, scenario, n + 1) + 1e-9
                for n in range(1, 2000, 97)]
        assert all(mids)


def test_plateau_ordering(profile):
    f = profile.fault
    assert f.gpu_minor.plateau_pages_per_s > f.cpu12.plateau_pages_per_s \
        > f.gpu_major.plateau_pages_per_s > f.cpu1.plateau_pages_per_s


def test_saturation_reaches_ninety_percent(profile):
    for scenario, pages in [(Scenario.CPU1, 1_000), (Scenario.CPU12, 10_000),
                            (Scenario.GPU_MAJOR, 10_000),
                            (Scenario.GPU_MINOR, 10_000_000)]:
        plateau = fault.scenario_params(profile, scenario).plateau_pages_per_s
        assert throughput(profile, scenario, pages) >= 0.9 * plateau


def test_prefault_speedup_at_ten_million(profile):
    res = prefault_pipeline(profile, 10**7, overlap=False)
    assert res.speedup_vs_gpu_major == pytest.approx(2.2, rel=0.15)


def test_prefault_single_page_slower(profile):
    res = prefault_pipeline(profile, 1, overlap=False)
    assert res.speedup_vs_gpu_major < 1.0


def test_prefault_overlap_approaches_stage_bound(profile):
    # Closed-form bottleneck: the slower stage's plateau over the
    # GPU-major plateau.
    f = profile.fault
    bound = min(f.cpu12.plateau_pages_per_s,
                f.gpu_minor.plateau_pages_per_s) / f.gpu_major.plateau_pages_per_s
    res = prefault_pipeline(profile, 10**12, overlap=True)
    assert res.speedup_vs_gpu_major == pytest.approx(bound, rel=1e-3)
    assert bound == pytest.approx(3.7 / 1.1, rel=1e-6)


def test_prefault_overlap_never_slower_than_sequential(profile):
    for n in (1, 100, 10**5, 10**7):
        seq = prefault_pipeline(profile, n, overlap=False)
        ovl = prefault_pipeline(profile, n, overlap=True)
        assert ovl.total_time_s <= seq.total_time_s + 1e-12


def test_invalid_page_counts(profile):
    with pytest.raises(ValueError):
        throughput(profile, Scenario.CPU1, 0)
    with pytest.raises(ValueError):
        prefault_pipeline(profile, 0, overlap=True)
