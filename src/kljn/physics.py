"""Ideal two-resistor thermal-noise loop.

Two Johnson-noise voltage generators, one at each end of an ideal
(zero-resistance, zero-capacitance) wire, drive the loop.  This module
provides the exact analytic wire observables (voltage PSD, current PSD,
net power flow), band-limited Gaussian noise synthesis for one bit
period, and averaged-periodogram estimation of the observables from a
synthesized trace.

Sign conventions, fixed once and used everywhere:

* positive wire current flows from Alice's generator toward Bob;
* ``p_ab`` is the net power flowing INTO Alice, positive when Bob is
  hotter, so ``p_ab = -<u_wire * i>``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TraceTooShort

#: Boltzmann constant, J/K (CODATA exact value).
BOLTZMANN = 1.380649e-23


@dataclass(frozen=True)
class PhysicalConstants:
    """Unit system: SI by default, k=1 in normalized mode.

    Normalized mode keeps intermediate quantities O(1) for extreme
    effective temperatures where 4kTR would underflow double precision
    products.
    """

    k: float = BOLTZMANN

    def __post_init__(self):
        if not self.k > 0:
            raise ValueError(f"Boltzmann constant must be positive, got {self.k}")


SI = PhysicalConstants()
NORMALIZED = PhysicalConstants(k=1.0)


@dataclass(frozen=True)
class PartyState:
    """One party's resistor and temperature for a single bit period.

    (resistance, temperature) is the single source of truth; the noise
    PSD is always derived from them, never stored independently.
    """

    resistance: float
    temperature: float

    def __post_init__(self):
        if not self.resistance > 0:
            raise ValueError(f"resistance must be positive, got {self.resistance}")
        # zero is allowed as the exact no-thermal-noise limit
        if self.temperature < 0:
            raise ValueError(f"temperature must be non-negative, got {self.temperature}")

    def noise_psd(self, constants: PhysicalConstants = SI) -> float:
        """One-sided Johnson voltage PSD 4kTR, V^2/Hz."""
        return 4.0 * constants.k * self.temperature * self.resistance


@dataclass(frozen=True)
class BandConfig:
    """Noise bandwidth and sampling layout for one bit period."""

    bandwidth_hz: float
    sample_rate_hz: float
    samples_per_bit: int

    def __post_init__(self):
        if not self.bandwidth_hz > 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth_hz}")
        if self.sample_rate_hz < 2.0 * self.bandwidth_hz:
            raise ValueError(
                f"sample rate {self.sample_rate_hz} cannot represent band-limited "
                f"noise of bandwidth {self.bandwidth_hz} (needs >= 2*bandwidth)")
        if self.samples_per_bit < 2:
            raise ValueError(f"samples_per_bit must be >= 2, got {self.samples_per_bit}")


@dataclass(frozen=True)
class WireObservables:
    """The measurable triple: voltage PSD, current PSD, net power into Alice."""

    s_u: float
    s_i: float
    p_ab: float

    def __post_init__(self):
        if self.s_u < 0 or self.s_i < 0:
            raise ValueError(f"PSDs must be non-negative, got ({self.s_u}, {self.s_i})")

    def from_partner_side(self) -> "WireObservables":
        """The same wire seen from the other party: PSDs unchanged, power negated."""
        return WireObservables(self.s_u, self.s_i, -self.p_ab)

    def __iter__(self):
        """Unpacks as (s_u, s_i, p_ab)."""
        return iter((self.s_u, self.s_i, self.p_ab))


def relative_errors(predicted, measured) -> list[float]:
    """Per-component relative mismatch |p - m| / max(|p|, |m|, 1e-300)
    of two triples, the one mismatch metric of the toolkit.

    Recovery residuals take the max of these; distances between wire
    triples take the sum of squares (:func:`squared_relative_error`).
    """
    return [abs(p - m) / max(abs(p), abs(m), 1e-300)
            for p, m in zip(predicted, measured)]


def squared_relative_error(predicted, measured) -> float:
    """Sum of the squared :func:`relative_errors` of two triples."""
    e_u, e_i, e_p = relative_errors(predicted, measured)
    return e_u ** 2 + e_i ** 2 + e_p ** 2


@dataclass(frozen=True)
class NoiseTrace:
    """Sampled wire voltage/current for one bit period, reproducible from seed."""

    u_wire: np.ndarray
    i_wire: np.ndarray
    seed: object

    def __post_init__(self):
        if len(self.u_wire) != len(self.i_wire):
            raise ValueError("u_wire and i_wire must have equal length")


def analytic_observable_arrays(r_a, t_a, r_b, t_b, bandwidth_hz, k):
    """Vectorized exact observables (superposition of the two generators).

    Accepts scalars or broadcastable arrays; returns (s_u, s_i, p_ab).
    """
    r_a = np.asarray(r_a, dtype=float)
    t_a = np.asarray(t_a, dtype=float)
    r_b = np.asarray(r_b, dtype=float)
    t_b = np.asarray(t_b, dtype=float)
    denom = (r_a + r_b) ** 2
    s_u = 4.0 * k * (t_a * r_a * r_b ** 2 + t_b * r_b * r_a ** 2) / denom
    s_i = 4.0 * k * (t_a * r_a + t_b * r_b) / denom
    return s_u, s_i, _power_into_alice(r_a, t_a, r_b, t_b, denom, bandwidth_hz, k)


def analytic_power_array(r_a, t_a, r_b, t_b, bandwidth_hz, k):
    """The p_ab output of :func:`analytic_observable_arrays` alone,
    bit-identical to it, for callers that need no PSDs."""
    r_a = np.asarray(r_a, dtype=float)
    t_a = np.asarray(t_a, dtype=float)
    r_b = np.asarray(r_b, dtype=float)
    t_b = np.asarray(t_b, dtype=float)
    return _power_into_alice(r_a, t_a, r_b, t_b, (r_a + r_b) ** 2,
                             bandwidth_hz, k)


def _power_into_alice(r_a, t_a, r_b, t_b, denom, bandwidth_hz, k):
    return 4.0 * k * bandwidth_hz * r_a * r_b * (t_b - t_a) / denom


def analytic_observables(alice: PartyState, bob: PartyState, band: BandConfig,
                         constants: PhysicalConstants = SI) -> WireObservables:
    """Exact wire observables for the ideal loop.

    Each generator sees the other party's resistor as the divider load,
    and the two noise processes are independent, so the PSDs add.
    """
    s_u, s_i, p_ab = analytic_observable_arrays(
        alice.resistance, alice.temperature, bob.resistance, bob.temperature,
        band.bandwidth_hz, constants.k)
    return WireObservables(float(s_u), float(s_i), float(p_ab))


def _band_limited_voltage(psd: float, band: BandConfig, n: int,
                          rng: np.random.Generator) -> np.ndarray:
    """Synthesize one band-limited white Gaussian voltage process.

    Direct spectral synthesis: independent complex Gaussian rFFT bins
    with flat one-sided PSD `psd` on 0 < f <= bandwidth, zero elsewhere.
    DC and the Nyquist bin are excluded so the process has exactly zero
    mean and stays strictly in-band.
    """
    freqs = np.fft.rfftfreq(n, d=1.0 / band.sample_rate_hz)
    in_band = (freqs > 0) & (freqs <= band.bandwidth_hz) & (freqs < band.sample_rate_hz / 2.0)
    n_bins = int(np.count_nonzero(in_band))
    spectrum = np.zeros(len(freqs), dtype=complex)
    # E|X_k|^2 = psd * fs * n / 2 makes the one-sided periodogram
    # 2|X_k|^2 / (fs n) an unbiased estimate of `psd` in-band.
    amplitude = np.sqrt(psd * band.sample_rate_hz * n / 4.0)
    spectrum[in_band] = amplitude * (rng.standard_normal(n_bins)
                                     + 1j * rng.standard_normal(n_bins))
    return np.fft.irfft(spectrum, n)


def synthesize_bit_period(alice: PartyState, bob: PartyState, band: BandConfig,
                          seed, constants: PhysicalConstants = SI) -> NoiseTrace:
    """Generate wire voltage/current samples for one bit period.

    Two independent generators with PSDs 4kT_A R_A and 4kT_B R_B drive
    the loop; the wire sees the usual resistive divider:

        u_wire = (u_A R_B + u_B R_A) / (R_A + R_B)
        i      = (u_A - u_B) / (R_A + R_B)

    Deterministic given `seed`.
    """
    rng = np.random.default_rng(seed)
    n = band.samples_per_bit
    u_a = _band_limited_voltage(alice.noise_psd(constants), band, n, rng)
    u_b = _band_limited_voltage(bob.noise_psd(constants), band, n, rng)
    total_r = alice.resistance + bob.resistance
    u_wire = (u_a * bob.resistance + u_b * alice.resistance) / total_r
    i_wire = (u_a - u_b) / total_r
    return NoiseTrace(u_wire=u_wire, i_wire=i_wire, seed=seed)


def _averaged_periodogram_psd(x: np.ndarray, band: BandConfig, segments: int) -> float:
    """Mean in-band PSD from non-overlapping rectangular-window periodograms.

    Bins within one bin-width of the band edge are excluded: rectangular
    windowing leaks roughly half of the edge bin's power past the sharp
    cutoff, which would bias the in-band mean low.
    """
    seg_len = len(x) // segments
    freqs = np.fft.rfftfreq(seg_len, d=1.0 / band.sample_rate_hz)
    bin_width = band.sample_rate_hz / seg_len
    in_band = (freqs > 0) & (freqs <= band.bandwidth_hz - bin_width) \
        & (freqs < band.sample_rate_hz / 2.0)
    if not np.any(in_band):
        # too few bins for an edge guard; fall back to the full band
        in_band = (freqs > 0) & (freqs <= band.bandwidth_hz) \
            & (freqs < band.sample_rate_hz / 2.0)
    if not np.any(in_band):
        raise TraceTooShort(
            f"segment length {seg_len} resolves no bins inside the "
            f"{band.bandwidth_hz} Hz band at {band.sample_rate_hz} Hz sampling")
    blocks = x[: segments * seg_len].reshape(segments, seg_len)
    spectra = np.fft.rfft(blocks, axis=1)
    psd = 2.0 * np.abs(spectra) ** 2 / (band.sample_rate_hz * seg_len)
    return float(np.mean(psd[:, in_band]))


def estimate_observables(trace: NoiseTrace, band: BandConfig,
                         segments: int) -> WireObservables:
    """Estimate (s_u, s_i, p_ab) from a sampled trace.

    PSDs come from averaged non-overlapping periodograms (variance
    shrinks as 1/segments); the power into Alice is -<u*i> under the
    current sign convention of :func:`synthesize_bit_period`.
    """
    if segments < 1:
        raise TraceTooShort(f"need at least one segment, got {segments}")
    if len(trace.u_wire) // segments < 2:
        raise TraceTooShort(
            f"trace of {len(trace.u_wire)} samples cannot be split into "
            f"{segments} segments of >= 2 samples")
    s_u = _averaged_periodogram_psd(trace.u_wire, band, segments)
    s_i = _averaged_periodogram_psd(trace.i_wire, band, segments)
    p_ab = -float(np.mean(trace.u_wire * trace.i_wire))
    return WireObservables(s_u=s_u, s_i=s_i, p_ab=p_ab)
