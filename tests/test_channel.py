import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special

import satdefsim
from satdefsim.channel import (
    ChannelParams,
    OutageTable,
    PassGeometry,
    _cumulative_simpson,
    db_to_linear,
    delivery_delay_slots,
    erasures,
    predict_mean_snr,
    sample_envelope,
    shadowed_rician_pdf,
)

TABLE_PARAMS = ChannelParams(b0=0.158, m=19.4, omega=1.29, snr_threshold_db=5.0)


def envelope_cdf(r: float, params: ChannelParams) -> float:
    """Oracle: P(envelope <= r) by adaptive quadrature of the density."""
    if r <= 0:
        return 0.0
    val, _ = integrate.quad(lambda x: shadowed_rician_pdf(x, params), 0.0, r, limit=200)
    return min(max(val, 0.0), 1.0)


def outage_probability(mean_snr_db: float, params: ChannelParams) -> float:
    """Oracle: P(instantaneous SNR below the decoding threshold), the
    envelope CDF at sqrt(threshold / mean SNR) in linear scale."""
    if not np.isfinite(mean_snr_db):
        return 1.0 if mean_snr_db < 0 else 0.0
    ratio = db_to_linear(params.snr_threshold_db) / db_to_linear(mean_snr_db)
    return envelope_cdf(np.sqrt(ratio), params)

RANDOM_TRIPLES = [
    (0.126, 10.1, 0.835),
    (0.063, 0.739, 8.97e-4),
    (0.2, 2.5, 1.0),
    (0.05, 45.0, 0.6),
    (0.3, 1.3, 2.1),
]


class TestDensity:
    def test_normalizes_table_params(self):
        val, _ = integrate.quad(lambda r: shadowed_rician_pdf(r, TABLE_PARAMS), 0, np.inf, limit=300)
        assert val == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("b0,m,om", RANDOM_TRIPLES)
    def test_normalizes_random_triples(self, b0, m, om):
        p = ChannelParams(b0=b0, m=m, omega=om)
        val, _ = integrate.quad(lambda r: shadowed_rician_pdf(r, p), 0, np.inf, limit=300)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_second_moment(self):
        val, _ = integrate.quad(
            lambda r: r * r * shadowed_rician_pdf(r, TABLE_PARAMS), 0, np.inf, limit=300
        )
        assert val == pytest.approx(2 * 0.158 + 1.29, abs=1e-4)

    def test_m_one_collapses_to_rayleigh(self):
        # at m=1 the shadowed line-of-sight power is exponential and the
        # normalized density is Rayleigh with total power 2 b0 + omega
        p = ChannelParams(b0=0.2, m=1.0, omega=1.0)
        sigma2 = (2 * p.b0 + p.omega) / 2.0
        r = np.linspace(0.01, 4.0, 100)
        expected = (r / sigma2) * np.exp(-(r * r) / (2 * sigma2))
        np.testing.assert_allclose(shadowed_rician_pdf(r, p), expected, rtol=1e-10)

    def test_series_matches_scipy_hypergeometric(self):
        p = TABLE_PARAMS
        r = np.linspace(0.05, 4.0, 50)
        denom = 2 * p.b0 * p.m + p.omega
        coef = (2 * p.b0 * p.m / denom) ** p.m
        y = p.omega * r * r / (2 * p.b0 * denom)
        expected = coef * (r / p.b0) * np.exp(-(r * r) / (2 * p.b0)) * special.hyp1f1(p.m, 1.0, y)
        np.testing.assert_allclose(shadowed_rician_pdf(r, p), expected, rtol=1e-10)

    def test_negative_amplitude_zero_density(self):
        assert shadowed_rician_pdf(0.0, TABLE_PARAMS) == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            shadowed_rician_pdf(np.nan, TABLE_PARAMS)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            ChannelParams(b0=0.0, m=1.0, omega=1.0)
        with pytest.raises(ValueError):
            ChannelParams(b0=0.1, m=-1.0, omega=1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", ["b0", "m", "omega", "snr_threshold_db"])
    def test_non_finite_params_rejected(self, name, bad):
        fields = {"b0": 0.158, "m": 19.4, "omega": 1.29, "snr_threshold_db": 5.0}
        with pytest.raises(ValueError, match=name):
            ChannelParams(**{**fields, name: bad})


class TestSampler:
    def test_ks_distance_to_numeric_cdf(self):
        rng = np.random.default_rng(0)
        draws = sample_envelope(TABLE_PARAMS, rng, size=1_000_000)
        grid = np.linspace(0, draws.max() + 0.5, 4001)
        pdf = shadowed_rician_pdf(grid, TABLE_PARAMS)
        cdf = integrate.cumulative_simpson(pdf, x=grid, initial=0.0)
        cdf = np.clip(cdf / cdf[-1], 0, 1)
        ks = np.max(np.abs(np.interp(np.sort(draws), grid, cdf) - np.arange(1, len(draws) + 1) / len(draws)))
        assert ks < 0.01

    def test_no_los_is_rayleigh(self):
        p = ChannelParams(b0=0.2, m=5.0, omega=0.0)
        rng = np.random.default_rng(1)
        draws = sample_envelope(p, rng, size=200_000)
        assert np.mean(draws**2) == pytest.approx(2 * p.b0, rel=0.01)

    def test_seed_determinism(self):
        a = sample_envelope(TABLE_PARAMS, np.random.default_rng(7), size=100)
        b = sample_envelope(TABLE_PARAMS, np.random.default_rng(7), size=100)
        np.testing.assert_array_equal(a, b)


class TestOutage:
    def test_high_snr_limit(self):
        assert outage_probability(80.0, TABLE_PARAMS) < 1e-6
        assert outage_probability(np.inf, TABLE_PARAMS) == 0.0

    def test_low_snr_limit(self):
        assert outage_probability(-60.0, TABLE_PARAMS) > 1 - 1e-6
        assert outage_probability(-np.inf, TABLE_PARAMS) == 1.0

    def test_quadrature_vs_monte_carlo(self):
        p_out = outage_probability(10.0, TABLE_PARAMS)
        rng = np.random.default_rng(3)
        n = 1_000_000
        draws = sample_envelope(TABLE_PARAMS, rng, size=n)
        snr = db_to_linear(10.0) * draws**2
        emp = np.mean(snr < db_to_linear(5.0))
        se = np.sqrt(p_out * (1 - p_out) / n)
        assert abs(emp - p_out) <= 3 * se + 1e-12

    def test_monotone_in_mean_snr(self):
        vals = [outage_probability(g, TABLE_PARAMS) for g in np.linspace(-5, 25, 13)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_monotone_in_threshold(self):
        vals = [
            outage_probability(10.0, ChannelParams(0.158, 19.4, 1.29, snr_threshold_db=th))
            for th in np.linspace(0, 12, 7)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_erasure_rule_marginal_matches_outage(self):
        # per-slot threshold rule: empirical erasure frequency within 3
        # standard errors of the outage integral
        geo = PassGeometry(d_min_km=550, d_max_km=550, pass_slots=100, peak_snr_db=9.0)
        p_out = outage_probability(9.0, TABLE_PARAMS)
        rng = np.random.default_rng(5)
        n = 200_000
        mean_snr = np.full(n, geo.mean_snr_db(10))
        erased = int(np.sum(erasures(mean_snr, sample_envelope(TABLE_PARAMS, rng, size=n), TABLE_PARAMS)))
        se = np.sqrt(p_out * (1 - p_out) / n)
        assert abs(erased / n - p_out) <= 3 * se

    @pytest.mark.parametrize("params", [TABLE_PARAMS] + [ChannelParams(*t) for t in RANDOM_TRIPLES])
    def test_cumulative_simpson_matches_scipy(self, params):
        # the outage table's own amplitude grid
        r = np.linspace(0.0, np.sqrt(params.mean_envelope_power) * 8.0 + 1.0, 20001)
        pdf = shadowed_rician_pdf(r, params)
        assert np.array_equal(_cumulative_simpson(pdf, r), integrate.cumulative_simpson(pdf, x=r, initial=0.0))

    @pytest.mark.parametrize("n", [3, 4, 5, 8, 11])
    def test_cumulative_simpson_matches_scipy_on_uneven_grids(self, n):
        rng = np.random.default_rng(n)
        x = np.cumsum(rng.uniform(0.05, 1.0, n))
        y = rng.normal(size=n)
        assert np.array_equal(_cumulative_simpson(y, x), integrate.cumulative_simpson(y, x=x, initial=0.0))

    def test_outage_table_matches_quadrature(self):
        table = OutageTable(TABLE_PARAMS, 0.0, 15.0)
        for g in (1.0, 5.0, 9.0, 14.0):
            assert float(table(g)) == pytest.approx(outage_probability(g, TABLE_PARAMS), abs=5e-4)


class TestDelayAndGeometry:
    GEO = PassGeometry(d_min_km=550, d_max_km=1600, pass_slots=2000, peak_snr_db=12.0)

    def test_propagation_1000km(self):
        geo = PassGeometry(d_min_km=1000, d_max_km=1000, pass_slots=10, peak_snr_db=10.0)
        assert geo.propagation_delay_ms(5) == pytest.approx(3.3356, abs=1e-3)

    def test_additive_monotone(self):
        # delivery slots grow with each latency component, one slot per slot_ms
        prop = self.GEO.propagation_delay_ms(100)
        base = int(delivery_delay_slots(prop, 1.0, 0.0, 1.0))
        assert int(delivery_delay_slots(prop, 1.0, 5.0, 1.0)) == base + 5
        assert int(delivery_delay_slots(prop, 2.0, 0.0, 1.0)) == base + 1
        added = np.linspace(0.0, 400.0, 41)
        slots = delivery_delay_slots(np.full(41, prop), 1.0, added, 100.0)
        assert np.all(np.diff(slots) >= 0) and slots[0] == 1 and slots[-1] == 5

    def test_negative_added_delay_rejected(self):
        with pytest.raises(ValueError):
            delivery_delay_slots(self.GEO.propagation_delay_ms(0), 1.0, [0.0, -0.1], 100.0)

    def test_boundary_delay_accepted(self):
        # a latency of exactly k slots is delivered k slots later, not k + 1,
        # and even an instant delivery takes one slot
        assert delivery_delay_slots([150.0, 150.0, 0.0], 25.0, [25.0, 25.5, 0.0], 100.0).tolist() == [2, 3, 1]

    def test_constant_geometry_constant_forecast(self):
        geo = PassGeometry(d_min_km=800, d_max_km=800, pass_slots=50, peak_snr_db=8.0)
        seq = predict_mean_snr(0, 10, geo)
        assert np.allclose(seq, seq[0])

    def test_overhead_pass_unimodal_peak_at_closest(self):
        seq = predict_mean_snr(0, 2000, self.GEO)
        peak = int(np.argmax(seq))
        assert abs(peak - 1000) <= 1
        assert all(b >= a - 1e-12 for a, b in zip(seq[:peak], seq[1 : peak + 1]))
        assert all(b <= a + 1e-12 for a, b in zip(seq[peak:-1], seq[peak + 1 :]))
        assert seq[peak] == pytest.approx(12.0)

    def test_single_slot_forecast(self):
        assert predict_mean_snr(42, 1, self.GEO)[0] == pytest.approx(self.GEO.mean_snr_db(42))

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            predict_mean_snr(0, 0, self.GEO)


def test_envelope_cdf_bounds():
    assert envelope_cdf(-1.0, TABLE_PARAMS) == 0.0
    assert envelope_cdf(50.0, TABLE_PARAMS) == pytest.approx(1.0, abs=1e-9)


def test_library_import_loads_no_scipy():
    code = (
        "import sys, satdefsim, satdefsim.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    src = str(Path(satdefsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
