"""Ideal two-resistor thermal-noise loop.

Two Johnson-noise voltage generators, one at each end of an ideal
(zero-resistance, zero-capacitance) wire, drive the loop.  This module
provides the exact analytic wire observables (voltage PSD, current PSD,
net power flow), band-limited Gaussian noise synthesis of bit periods,
and averaged-periodogram estimation of the observables from synthesized
traces; the sampled functions take one row per bit period, so a single
period is a one-row call.  Both sampled stages touch only the
in-band rFFT bins, which run contiguously from bin 1 and are counted
once per trace layout, and keep every trace in a :class:`TraceWorkspace`.

Sign conventions, fixed once and used everywhere:

* positive wire current flows from Alice's generator toward Bob;
* ``p_ab`` is the net power flowing INTO Alice, positive when Bob is
  hotter, so ``p_ab = -<u_wire * i>``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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
        if not 0 < self.bandwidth_hz < float("inf"):
            raise ValueError(f"bandwidth must be positive and finite, got {self.bandwidth_hz}")
        if not np.isfinite(self.sample_rate_hz):
            raise ValueError(f"sample rate must be finite, got {self.sample_rate_hz}")
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

    def __iter__(self):
        """Unpacks as (s_u, s_i, p_ab)."""
        return iter((self.s_u, self.s_i, self.p_ab))


def relative_errors(predicted, measured, floors=(0.0, 0.0, 0.0)) -> list:
    """Per-component relative mismatch |p - m| / max(|p|, |m|, floor,
    1e-300) of two triples, the one mismatch metric of the toolkit.
    Components are floats, or arrays of one shape compared elementwise;
    a component's floor is the scale below which its mismatch counts as
    absolute.

    Recovery residuals take the max of these; distances between wire
    triples take the sum of squares (:func:`squared_relative_error`).
    """
    # Floats take Python's max: the scalar callers (the resolver's
    # quadratic route through its equation residuals, and
    # `resolver.vmg_matching_residual`) run it per point, where numpy's
    # maximum on floats is about 2x slower and would return numpy floats.
    return [abs(p - m) / (np.maximum(np.maximum(abs(p), abs(m)), np.maximum(floor, 1e-300))
                          if isinstance(p, np.ndarray) else max(abs(p), abs(m), floor, 1e-300))
            for p, m, floor in zip(predicted, measured, floors)]


def squared_relative_error(predicted, measured) -> float:
    """Sum of the squared :func:`relative_errors` of two triples."""
    e_u, e_i, e_p = relative_errors(predicted, measured)
    return e_u ** 2 + e_i ** 2 + e_p ** 2


def power_prefactor(r_a, r_b, bandwidth_hz, k):
    """4k df R_A R_B multiplied left to right, the factor of the power
    flow p_ab.  Swapping the parties can change its last bit, since the
    products then round in another order."""
    return 4.0 * k * bandwidth_hz * r_a * r_b


def analytic_observable_arrays(r_a, t_a, r_b, t_b, bandwidth_hz, k, denom=None,
                               out=None):
    """Vectorized exact observables (superposition of the two generators).

    Accepts scalars or broadcastable arrays; returns (s_u, s_i, p_ab).
    `denom` is (r_a + r_b)**2 when the caller holds it.  numpy squares
    arrays but calls libm's ``pow`` on scalars, which differs in the
    last bit for about one value in a thousand, so an array pass that
    must reproduce scalar calls passes its ``pow`` squares.  `out`, a
    triple of float arrays of the broadcast shape, receives the results
    through the same IEEE operations, each step in place.
    """
    r_a = np.asarray(r_a, dtype=float)
    t_a = np.asarray(t_a, dtype=float)
    r_b = np.asarray(r_b, dtype=float)
    t_b = np.asarray(t_b, dtype=float)
    if denom is None:
        denom = (r_a + r_b) ** 2
    u, i, p = out or (None, None, None)
    four_k = 4.0 * k
    s_u = np.divide(np.multiply(four_k, np.add(t_a * r_a * r_b ** 2, t_b * r_b * r_a ** 2,
                                               out=u), out=u), denom, out=u)
    s_i = np.divide(np.multiply(four_k, np.add(t_a * r_a, t_b * r_b, out=i), out=i),
                    denom, out=i)
    p_ab = np.divide(np.multiply(power_prefactor(r_a, r_b, bandwidth_hz, k), t_b - t_a,
                                 out=p), denom, out=p)
    return s_u, s_i, p_ab


def analytic_observables(alice: PartyState, bob: PartyState, band: BandConfig,
                         constants: PhysicalConstants = SI) -> WireObservables:
    """Exact wire observables for the ideal loop.

    Each generator sees the other party's resistor as the divider load,
    and the two noise processes are independent, so the PSDs add.  One
    row of :func:`analytic_observable_arrays`, bit for bit: its inputs are
    one-element arrays, which numpy squares as it squares the session and
    table arrays.
    """
    s_u, s_i, p_ab = analytic_observable_arrays(
        [alice.resistance], [alice.temperature], [bob.resistance], [bob.temperature],
        band.bandwidth_hz, constants.k)
    return WireObservables(float(s_u[0]), float(s_i[0]), float(p_ab[0]))


class TraceWorkspace:
    """Trace-sized buffers for synthesis and estimation on up to `rows` bit
    periods of `band` in `segments` segments; results ignore their contents."""

    def __init__(self, rows: int, band: BandConfig, segments: int):
        n, seg_len = band.samples_per_bit, band.samples_per_bit // segments
        self.traces = np.empty((2, rows, n))
        self.real = np.empty(rows * max(4 * _band_bins(n, band)[0], n))
        self.spectrum = np.empty(rows * max(n // 2 + 1, segments * (seg_len // 2 + 1)), complex)


def synthesize_traces(r_a, t_a, r_b, t_b, band: BandConfig, generators,
                      constants: PhysicalConstants = SI, work: TraceWorkspace | None = None):
    """Wire voltage and current samples, one row per bit period.

    Two independent band-limited generators with PSDs 4kT_A R_A and
    4kT_B R_B drive the resistive divider u_wire = (u_A R_B + u_B R_A) /
    (R_A + R_B), i = (u_A - u_B) / (R_A + R_B).  Each is synthesized from
    independent complex Gaussian rFFT bins of flat one-sided PSD on
    0 < f <= bandwidth (no DC or Nyquist bin: zero mean, strictly
    in-band).  Row j draws its bins, in the order u_A real, u_A
    imaginary, u_B real, u_B imaginary, from the j-th numpy ``Generator``
    that `generators` yields; each is drawn from before the next is
    taken, so one generator may be re-seeded per row.

    The traces are views of `work` (a fresh :class:`TraceWorkspace` when
    none is given), whose float storage holds the normals, then u_B, and
    complex storage the spectrum, zeroed outside the band first.
    """
    n, rows = band.samples_per_bit, len(r_a)
    bins = slice(1, 1 + _band_bins(n, band)[0])
    work = work or TraceWorkspace(rows, band, 1)
    r_a, t_a, r_b, t_b = (np.asarray(v, dtype=float) for v in (r_a, t_a, r_b, t_b))
    normals = np.ndarray((rows, 4, bins.stop - 1), float, work.real)
    for row, rng in zip(normals, generators, strict=True):
        rng.standard_normal(out=row)
    spectrum = np.ndarray((rows, n // 2 + 1), complex, work.spectrum)
    spectrum[:, 0] = spectrum[:, bins.stop:] = 0
    (u_a, u_wire), u_b = work.traces[:, :rows], np.ndarray((rows, n), float, work.real)
    for psd, re, im, voltage in ((4.0 * constants.k * t_a * r_a, 0, 1, u_a),
                                 (4.0 * constants.k * t_b * r_b, 2, 3, u_b)):
        # E|X_k|^2 = psd * fs * n / 2 makes the one-sided periodogram
        # 2|X_k|^2 / (fs n) an unbiased estimate of `psd` in-band.
        amplitude = np.sqrt(psd * band.sample_rate_hz * n / 4.0)
        # amplitude * (re + 1j * im), row by row: numpy buffers 2-D broadcasts
        for normal_row, scale in zip(normals, amplitude.tolist()):
            normal_row[re:im + 1] *= scale
        spectrum.real[:, bins] = normals[:, re]
        spectrum.imag[:, bins] = normals[:, im]
        np.fft.irfft(spectrum, n, out=voltage)
    # the divider's expressions, evaluated in place row by row
    for wire, current, other, ra, rb in zip(u_wire, u_a, u_b, r_a.tolist(), r_b.tolist()):
        np.multiply(current, rb, out=wire)
        current -= other
        other *= ra
        wire += other
        wire /= ra + rb
        current /= ra + rb
    return u_wire, u_a


@lru_cache(maxsize=64)
def _band_bins(n: int, band: BandConfig) -> tuple[int, int]:
    """(bins inside the band, bins at least one bin-width inside its
    edge) of the rFFT of an `n`-sample trace; both run contiguously from
    bin 1.  Cached: sampled sessions ask for the same layouts chunk after
    chunk."""
    freqs = np.fft.rfftfreq(n, d=1.0 / band.sample_rate_hz)
    resolved = (freqs > 0) & (freqs < band.sample_rate_hz / 2.0)
    bin_width = band.sample_rate_hz / n
    return (int(np.count_nonzero(resolved & (freqs <= band.bandwidth_hz))),
            int(np.count_nonzero(resolved & (freqs <= band.bandwidth_hz - bin_width))))


def periodogram_bin_count(seg_len: int, band: BandConfig) -> int:
    """Number of rFFT bins of a `seg_len`-sample segment that the
    estimator averages, bins 1 to the count; 0 when the segment resolves
    none.

    Bins within one bin-width of the band edge are excluded: rectangular
    windowing leaks roughly half of the edge bin's power past the sharp
    cutoff, which would bias the in-band mean low.  With too few bins
    for that edge guard, the full band is used.
    """
    in_band, guarded = _band_bins(seg_len, band)
    return guarded or in_band


def _averaged_periodogram_psd(x: np.ndarray, band: BandConfig, segments: int,
                              work: TraceWorkspace) -> np.ndarray:
    """Mean in-band PSD per row from non-overlapping rectangular-window
    periodograms, over the :func:`periodogram_bin_count` bins."""
    seg_len = x.shape[1] // segments
    n_bins = periodogram_bin_count(seg_len, band)
    if not n_bins:
        raise TraceTooShort(
            f"segment length {seg_len} resolves no bins inside the "
            f"{band.bandwidth_hz} Hz band at {band.sample_rate_hz} Hz sampling")
    blocks = x[:, : segments * seg_len].reshape(len(x), segments, seg_len)
    spectra = np.fft.rfft(blocks, axis=2, out=np.ndarray(
        (len(x), segments, seg_len // 2 + 1), complex, work.spectrum))
    # contiguous bin-major rows: each sums in the order of a one-trace mean
    in_band = np.ndarray((len(x), n_bins, segments), complex, work.real)
    np.copyto(in_band.transpose(0, 2, 1), spectra[:, :, 1:1 + n_bins])
    # 2|X|^2 / (fs L), each step in place in the spectra's storage
    psd = np.abs(in_band, out=np.ndarray(in_band.shape, float, work.spectrum))
    np.divide(np.multiply(2.0, np.square(psd, out=psd), out=psd),
              band.sample_rate_hz * seg_len, out=psd)
    return np.mean(psd.reshape(len(x), -1), axis=1)


def estimate_observable_arrays(u_wire: np.ndarray, i_wire: np.ndarray,
                               band: BandConfig, segments: int,
                               work: TraceWorkspace | None = None):
    """Estimate (s_u, s_i, p_ab) per row of sampled traces.

    PSDs come from averaged non-overlapping periodograms (variance
    shrinks as 1/segments); the power into Alice is -<u*i> under the
    current sign convention of :func:`synthesize_traces`.  `work` (a fresh
    :class:`TraceWorkspace` when none is given) holds the segment spectra,
    then their periodograms, and their in-band bins, then u*i.
    """
    if segments < 1:
        raise TraceTooShort(f"need at least one segment, got {segments}")
    if u_wire.shape[1] // segments < 2:
        raise TraceTooShort(
            f"trace of {u_wire.shape[1]} samples cannot be split into "
            f"{segments} segments of >= 2 samples")
    work = work or TraceWorkspace(len(u_wire), band, segments)
    return (_averaged_periodogram_psd(u_wire, band, segments, work),
            _averaged_periodogram_psd(i_wire, band, segments, work),
            -np.mean(np.multiply(u_wire, i_wire, out=np.ndarray(u_wire.shape, float, work.real)),
                     axis=1))
