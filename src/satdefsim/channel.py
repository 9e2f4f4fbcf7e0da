"""Telemetry downlink model: Shadowed-Rician fading, pass geometry,
outage/erasure and end-to-end latency.

The envelope density is the land-mobile-satellite model whose
line-of-sight power is Gamma-shadowed with Nakagami parameter m.  The
normalized Pochhammer-series form is

    f(r) = A^m (r/b0) exp(y - r^2/(2 b0)) sum_k (1-m)_k / (k!)^2 (-y)^k

with A = 2 b0 m / (2 b0 m + omega) and y = omega r^2 / (2 b0 (2 b0 m + omega));
it integrates to one and has second moment 2 b0 + omega.  The
implementation evaluates the equal positive-term series
exp(-r^2/(2 b0)) sum_k (m)_k y^k/(k!)^2 because the alternating form
cancels catastrophically for moderate y.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT_KM_S = 299792.458


@dataclass(frozen=True)
class ChannelParams:
    """Small-scale fading parameters and decoding threshold.

    ``b0`` is half the multipath power, ``m`` the Nakagami shadowing
    parameter, ``omega`` the average line-of-sight power; all are
    power-normalized and unitless.  ``snr_threshold_db`` is the decoding
    threshold used by the erasure rule.
    """

    b0: float
    m: float
    omega: float
    snr_threshold_db: float = 5.0

    def __post_init__(self):
        # each check passes only valid values, so NaN fails it
        if not 0.0 < self.b0 < math.inf:
            raise ValueError(f"b0 must be finite and > 0, got {self.b0}")
        if not 0.0 < self.m < math.inf:
            raise ValueError(f"m must be finite and > 0, got {self.m}")
        if not 0.0 <= self.omega < math.inf:
            raise ValueError(f"omega must be finite and >= 0, got {self.omega}")
        if not math.isfinite(self.snr_threshold_db):
            raise ValueError(f"snr_threshold_db must be finite, got {self.snr_threshold_db}")

    @property
    def mean_envelope_power(self) -> float:
        return 2.0 * self.b0 + self.omega


def _log_confluent(m: float, y: np.ndarray) -> np.ndarray:
    """log of the confluent series sum_k (m)_k y^k / (k!)^2 for y >= 0.

    This is the positive-term form of the Kummer-transformed series
    e^y sum_k (1-m)_k/(k!)^2 (-y)^k; algebraically identical, but free of
    the catastrophic cancellation the alternating form suffers for
    moderate y.  Terms are accumulated with periodic rescaling so large
    arguments cannot overflow; iteration stops once the tail is below
    1e-16 of the running sum (tail bound far under 1e-12).
    """
    y = np.asarray(y, dtype=float)
    total = np.ones_like(y)
    term = np.ones_like(y)
    log_scale = np.zeros_like(y)
    cap = int(4 * float(np.max(y, initial=0.0))) + 60
    for k in range(cap):
        term = term * (m + k) * y / ((k + 1) ** 2)
        total += term
        big = total > 1e250
        if np.any(big):
            total = np.where(big, total * 1e-250, total)
            term = np.where(big, term * 1e-250, term)
            log_scale = np.where(big, log_scale + 250 * np.log(10.0), log_scale)
        if np.all(term <= 1e-16 * total):
            break
    return np.log(total) + log_scale


def shadowed_rician_pdf(r, params: ChannelParams):
    """Envelope density at amplitude(s) ``r``; zero for r < 0."""
    r = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(r)):
        raise ValueError("non-finite envelope value")
    scalar = r.ndim == 0
    r = np.atleast_1d(r).astype(float)
    b0, m, om = params.b0, params.m, params.omega
    denom = 2.0 * b0 * m + om
    log_a = m * np.log(2.0 * b0 * m / denom)
    y = om * r * r / (2.0 * b0 * denom)
    out = np.zeros_like(r)
    # crude upper bound on the log density kills the far tail before the
    # series is evaluated (series length grows with y)
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = log_a + y + m * np.log1p(y) - r * r / (2.0 * b0) + np.log(
            np.maximum(r, 1e-300) / b0
        )
    alive = (r > 0) & (bound > -740.0)
    if np.any(alive):
        ra = r[alive]
        log_h = _log_confluent(m, y[alive])
        out[alive] = np.exp(
            log_a + log_h - ra * ra / (2.0 * b0) + np.log(ra / b0)
        )
    return float(out[0]) if scalar else out


def sample_envelope(params: ChannelParams, rng: np.random.Generator, size=None):
    """Draw envelope amplitudes via the compositional representation.

    The line-of-sight power is Gamma(shape=m, mean=omega); conditioned on
    it the envelope is Rician with per-component scatter variance b0.
    The marginal law is the series density above.
    """
    shape = () if size is None else size
    if params.omega > 0:
        los_amp = np.sqrt(rng.gamma(params.m, params.omega / params.m, size=shape))
    else:
        los_amp = np.zeros(shape)
    x = rng.normal(0.0, np.sqrt(params.b0), size=shape) + los_amp
    yq = rng.normal(0.0, np.sqrt(params.b0), size=shape)
    r = np.hypot(x, yq)
    return float(r) if size is None else r


def db_to_linear(db: float) -> float:
    return 10.0 ** (float(db) / 10.0)


@dataclass(frozen=True)
class PassGeometry:
    """Parametric overhead pass: slant distance and derived mean SNR.

    The slant distance runs from ``d_max_km`` at the pass edges to
    ``d_min_km`` at closest approach (mid-pass) over ``pass_slots``
    slots.  Mean SNR is specified directly at closest approach
    (``peak_snr_db``) and rolls off with path loss
    ``path_loss_exp * 10 log10(d/d_min)``.
    """

    d_min_km: float
    d_max_km: float
    pass_slots: int
    peak_snr_db: float
    path_loss_exp: float = 2.0

    def __post_init__(self):
        # each check passes only valid values, so NaN fails it
        if not 0.0 < self.d_min_km < math.inf:
            raise ValueError(f"d_min_km must be finite and > 0, got {self.d_min_km}")
        if not self.d_min_km <= self.d_max_km < math.inf:
            raise ValueError(f"d_max_km must be finite and >= d_min_km, got {self.d_max_km}")
        if self.pass_slots < 1:
            raise ValueError(f"pass_slots must be >= 1, got {self.pass_slots}")
        for name in ("peak_snr_db", "path_loss_exp"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")

    def slant_km(self, t: int) -> float:
        """Slant distance at slot t; clamped to the far edge outside the pass."""
        if t < 0 or t > self.pass_slots:
            return self.d_max_km
        half = self.pass_slots / 2.0
        if half == 0:
            return self.d_min_km
        u = (t - half) / half  # -1 .. 1 across the pass
        d2 = self.d_min_km**2 + (u * u) * (self.d_max_km**2 - self.d_min_km**2)
        return float(np.sqrt(d2))

    def mean_snr_db(self, t: int) -> float:
        d = self.slant_km(t)
        return self.peak_snr_db - 10.0 * self.path_loss_exp * np.log10(d / self.d_min_km)

    def propagation_delay_ms(self, t: int) -> float:
        return self.slant_km(t) / SPEED_OF_LIGHT_KM_S * 1e3


def erasures(mean_snr_db, envelope, params: ChannelParams) -> np.ndarray:
    """Threshold erasure rule under block fading (one envelope per slot):
    a packet is lost when its instantaneous SNR, mean_snr * r^2 in linear
    scale, falls below the decoding threshold."""
    snr_lin = (10.0 ** (np.asarray(mean_snr_db, dtype=float) / 10.0)) * np.asarray(envelope) ** 2
    return snr_lin < db_to_linear(params.snr_threshold_db)


def delivery_delay_slots(prop_delay_ms, proc_delay_ms: float, added_delay_ms, slot_ms: float) -> np.ndarray:
    """Whole slots from generation to delivery, at least one: the
    end-to-end latency (propagation + processing + injected delay, in ms)
    rounded up to the slot grid."""
    added = np.asarray(added_delay_ms, dtype=float)
    if np.any(added < 0):
        raise ValueError("added delay must be >= 0")
    total_ms = np.asarray(prop_delay_ms, dtype=float) + proc_delay_ms + added
    return np.maximum(np.ceil(total_ms / slot_ms), 1.0).astype(int)


def predict_mean_snr(t: int, window: int, geometry: PassGeometry) -> np.ndarray:
    """Deterministic mean-SNR forecast for slots t .. t+window-1.

    Uses large-scale geometry only (no fading realization).
    """
    if window < 1:
        raise ValueError("prediction window must be >= 1")
    return np.array([geometry.mean_snr_db(s) for s in range(t, t + window)], dtype=float)


def _cumulative_simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cumulative integral of samples ``y`` at strictly increasing ``x``
    (at least 3 points) by the composite Simpson rule, starting at 0.

    Each interval takes the parabola through its end points and the next
    sample (even intervals) or the previous one (odd intervals and the
    last): the unequal-interval rule of Cartwright (2017), written in
    the order of operations of ``scipy.integrate.cumulative_simpson(y,
    x=x, initial=0.0)``, whose floats it reproduces.
    """
    def first_halves(f, h):
        h21_h31 = h[:-1] / (h[:-1] + h[1:])
        h21h21_h31h32 = h21_h31 * (h[:-1] / h[1:])
        return h[:-1] / 6 * (
            (3 - h21_h31) * f[:-2] + (3 + h21h21_h31h32 + h21_h31) * f[1:-1] + -h21h21_h31h32 * f[2:]
        )

    dx = np.diff(x)
    ahead = first_halves(y, dx)
    behind = first_halves(y[::-1], dx[::-1])[::-1]
    pieces = np.empty(len(dx))
    pieces[:-1:2] = ahead[::2]
    pieces[1::2] = behind[::2]
    pieces[-1] = behind[-1]
    return np.concatenate(([0.0], np.cumsum(pieces)))


class OutageTable:
    """Interpolated outage probability over a mean-SNR range.

    The budget allocation reads outage for every slot of a scenario;
    this holds one cumulative Simpson integral of the envelope density
    on a fine amplitude grid, read by interpolation.  The engine
    builds one table per stardis signal plan, over its forecast's range.
    """

    def __init__(self, params: ChannelParams, snr_db_lo: float, snr_db_hi: float, points: int = 256):
        self.params = params
        lo = min(snr_db_lo, snr_db_hi) - 1.0
        hi = max(snr_db_lo, snr_db_hi) + 1.0
        self._snr_grid = np.linspace(lo, hi, points)
        # envelope CDF on a fine amplitude grid via Simpson accumulation
        r_hi = np.sqrt(params.mean_envelope_power) * 8.0 + 1.0
        r = np.linspace(0.0, r_hi, 20001)
        pdf = shadowed_rician_pdf(r, params)
        cdf = _cumulative_simpson(pdf, r)
        cdf = np.clip(cdf / cdf[-1], 0.0, 1.0)
        th = db_to_linear(params.snr_threshold_db)
        r_th = np.sqrt(th / 10.0 ** (self._snr_grid / 10.0))
        self._pout = np.interp(r_th, r, cdf)

    def __call__(self, mean_snr_db) -> np.ndarray:
        return np.interp(np.asarray(mean_snr_db, dtype=float), self._snr_grid, self._pout)
