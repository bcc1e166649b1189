"""Core noise-loop physics: analytic observables, synthesis, estimation."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from kljn import (
    BOLTZMANN,
    NORMALIZED,
    SI,
    BandConfig,
    PartyState,
    PhysicalConstants,
    TraceTooShort,
    WireObservables,
    analytic_observables,
    lookup,
)
from kljn.physics import (
    TraceWorkspace,
    analytic_observable_arrays,
    estimate_observable_arrays,
    periodogram_bin_count,
    power_prefactor,
    synthesize_traces,
)

BAND = BandConfig(bandwidth_hz=1.0, sample_rate_hz=4.0, samples_per_bit=4096)


def one_period(a, b, band, seed):
    """Wire (voltage, current) samples of one bit period: one-row arrays."""
    return synthesize_traces([a.resistance], [a.temperature], [b.resistance],
                             [b.temperature], band, [np.random.default_rng(seed)],
                             NORMALIZED)


def alpha_beta_form(r_a, t_a, alpha, beta, df, k):
    """Independent oracle: the ratio-parameterized observable formulas."""
    denom = (1.0 + alpha) ** 2
    s_u = 4 * k * t_a * r_a * alpha * (alpha + beta) / denom
    s_i = 4 * k * t_a / r_a * (1 + alpha * beta) / denom
    p_ab = 4 * k * t_a * df * alpha * (beta - 1) / denom
    return s_u, s_i, p_ab


class TestAnalyticObservables:
    def test_equal_temperature_zero_power(self):
        a = PartyState(1000.0, 300.0)
        b = PartyState(1000.0, 300.0)
        assert analytic_observables(a, b, BAND).p_ab == 0.0

    def test_symmetric_equilibrium_values(self):
        # alpha = beta = 1 collapses to s_u = 2kTR, s_i = 2kT/R
        a = PartyState(1000.0, 300.0)
        obs = analytic_observables(a, a, BAND, NORMALIZED)
        assert obs.s_u == pytest.approx(2 * 300.0 * 1000.0, rel=1e-14)
        assert obs.s_i == pytest.approx(2 * 300.0 / 1000.0, rel=1e-14)

    def test_general_form_matches_ratio_form(self):
        rng = np.random.default_rng(1)
        band = BAND
        for _ in range(200):
            alpha, beta = np.exp(rng.uniform(np.log(0.1), np.log(10), 2))
            r_a, t_a = 1000.0, 300.0
            a = PartyState(r_a, t_a)
            b = PartyState(alpha * r_a, beta * t_a)
            obs = analytic_observables(a, b, band, NORMALIZED)
            s_u, s_i, p_ab = alpha_beta_form(r_a, t_a, alpha, beta,
                                             band.bandwidth_hz, 1.0)
            assert obs.s_u == pytest.approx(s_u, rel=1e-12)
            assert obs.s_i == pytest.approx(s_i, rel=1e-12)
            assert obs.p_ab == pytest.approx(p_ab, rel=1e-12, abs=1e-12)

    def test_party_swap_negates_power_only(self):
        a = PartyState(1000.0, 300.0)
        b = PartyState(2500.0, 700.0)
        ab = analytic_observables(a, b, BAND, NORMALIZED)
        ba = analytic_observables(b, a, BAND, NORMALIZED)
        assert ab.s_u == ba.s_u
        assert ab.s_i == ba.s_i
        assert ab.p_ab == -ba.p_ab

    @pytest.mark.parametrize("constants, bandwidth_hz", [
        (SI, 1.0), (NORMALIZED, 1.0), (NORMALIZED, 1000.0)],
        ids=["si", "normalized", "normalized-df1000"])
    def test_swap_is_exact_where_the_prefactor_is_symmetric(self, constants,
                                                            bandwidth_hz):
        # the build's mirrored pairs: s_u and s_i equal and p_ab negated,
        # bit for bit (equal non-zero floats are equal bits; the zeros at
        # T_A = T_B are +0 in both orientations)
        r_grid, t_grid = np.geomspace(1000.0, 2000.0, 24), np.linspace(200.0, 400.0, 6)
        pairs = {True: 0, False: 0}
        for r_a, t_a, r_b, t_b, mirrored, _ in lookup._pair_blocks(
                r_grid, t_grid, bandwidth_hz, constants.k):
            pairs[mirrored] += len(r_a)
            if not mirrored:
                continue
            s_u, s_i, p_ab = analytic_observable_arrays(r_a, t_a, r_b, t_b,
                                                        bandwidth_hz, constants.k)
            swapped = analytic_observable_arrays(r_b, t_b, r_a, t_a,
                                                 bandwidth_hz, constants.k)
            np.testing.assert_array_equal(s_u, swapped[0])
            np.testing.assert_array_equal(s_i, swapped[1])
            np.testing.assert_array_equal(p_ab, -swapped[2])
            np.testing.assert_array_equal(
                p_ab, power_prefactor(r_a, r_b, bandwidth_hz, constants.k)
                * (t_b - t_a) / (r_a + r_b) ** 2)
        assert pairs[True] > 0
        if constants == SI:
            assert pairs[False] > len(r_grid)

    @pytest.mark.parametrize("constants, bandwidth_hz", [
        (SI, 1.0), (NORMALIZED, 1.0), (NORMALIZED, 1000.0)],
        ids=["si", "normalized", "normalized-df1000"])
    def test_out_form_is_bit_identical(self, constants, bandwidth_hz):
        # the table build's block layout, and equal-length draws
        rng = np.random.default_rng(5)
        r, t = rng.uniform(1.0, 1e4, 30), rng.uniform(0.0, 1e3, 12)
        for settings in ((r[:15, None, None], t[:, None], r[15:, None, None], t),
                         (r[:12], t, r[18:], t[::-1])):
            expected = analytic_observable_arrays(*settings, bandwidth_hz, constants.k)
            out = [np.full(expected[0].shape, np.nan) for _ in range(3)]
            actual = analytic_observable_arrays(*settings, bandwidth_hz, constants.k,
                                                out=out)
            for column, into, reference in zip(actual, out, expected):
                assert column is into
                np.testing.assert_array_equal(column.view(np.int64),
                                              reference.view(np.int64))

    @pytest.mark.parametrize("constants, bandwidth_hz", [
        (SI, 1.0), (NORMALIZED, 1.0), (NORMALIZED, 1000.0)],
        ids=["si", "normalized", "normalized-df1000"])
    def test_scalar_form_is_bit_identical_to_the_arrays(self, constants, bandwidth_hz):
        # libm's pow squares some of these sums one ulp off numpy's square
        rng = np.random.default_rng(11)
        r_a, r_b = rng.uniform(1000.0, 4000.0, (2, 20_000))
        t_a, t_b = rng.uniform(200.0, 400.0, (2, 20_000))
        expected = np.array(analytic_observable_arrays(r_a, t_a, r_b, t_b,
                                                       bandwidth_hz, constants.k)).T
        band = BandConfig(bandwidth_hz, 4.0 * bandwidth_hz, 4096)
        actual = np.array([tuple(analytic_observables(PartyState(*a), PartyState(*b),
                                                      band, constants))
                           for a, b in zip(zip(r_a.tolist(), t_a.tolist()),
                                           zip(r_b.tolist(), t_b.tolist()))])
        np.testing.assert_array_equal(actual.view(np.int64), expected.view(np.int64))

    def test_psd_ratio_is_resistance_product_at_equal_temperature(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            r_a, r_b = np.exp(rng.uniform(np.log(100), np.log(1e5), 2))
            a = PartyState(float(r_a), 300.0)
            b = PartyState(float(r_b), 300.0)
            obs = analytic_observables(a, b, BAND, NORMALIZED)
            assert obs.s_u / obs.s_i == pytest.approx(r_a * r_b, rel=1e-12)

    def test_si_units_use_boltzmann(self):
        a = PartyState(1000.0, 300.0)
        obs = analytic_observables(a, a, BAND, SI)
        assert obs.s_u == pytest.approx(2 * BOLTZMANN * 300.0 * 1000.0, rel=1e-14)


class TestTypes:
    def test_party_state_rejects_nonpositive_resistance(self):
        with pytest.raises(ValueError):
            PartyState(0.0, 300.0)
        with pytest.raises(ValueError):
            PartyState(-5.0, 300.0)

    def test_party_state_allows_zero_temperature_limit(self):
        assert PartyState(1000.0, 0.0).noise_psd(NORMALIZED) == 0.0

    def test_band_requires_nyquist_headroom(self):
        with pytest.raises(ValueError):
            BandConfig(bandwidth_hz=1.0, sample_rate_hz=1.5, samples_per_bit=16)

    def test_observables_reject_negative_psd(self):
        with pytest.raises(ValueError):
            WireObservables(-1.0, 0.1, 0.0)

    def test_constants_positive(self):
        with pytest.raises(ValueError):
            PhysicalConstants(k=0.0)


class TestSynthesis:
    def test_zero_temperature_gives_zero_trace(self):
        a = PartyState(1000.0, 0.0)
        b = PartyState(2000.0, 0.0)
        u_wire, i_wire = one_period(a, b, BAND, seed=3)
        assert np.all(u_wire == 0.0)
        assert np.all(i_wire == 0.0)

    def test_deterministic_given_seed(self):
        a = PartyState(1000.0, 300.0)
        b = PartyState(2000.0, 450.0)
        u1, i1 = one_period(a, b, BAND, seed=17)
        u2, i2 = one_period(a, b, BAND, seed=17)
        assert np.array_equal(u1, u2)
        assert np.array_equal(i1, i2)
        u3, _ = one_period(a, b, BAND, seed=18)
        assert not np.array_equal(u1, u3)

    def test_wire_variance_matches_parseval(self):
        # alpha = beta = 1: var(u) should be s_u * bandwidth = 2kTR * df.
        # Band-limited noise at fs = 4 df has ~N/2 independent samples,
        # so the sample variance has relative sigma ~ sqrt(4/N).
        n = 1 << 18
        band = BandConfig(1.0, 4.0, n)
        a = PartyState(1000.0, 300.0)
        u_wire, _ = one_period(a, a, band, seed=5)
        target = 2 * 300.0 * 1000.0 * band.bandwidth_hz
        sigma = target * np.sqrt(4.0 / n)
        assert abs(np.var(u_wire[0]) - target) < 3 * sigma


class TestEstimation:
    def test_zero_trace_gives_zero_observables(self):
        a = PartyState(1000.0, 0.0)
        s_u, s_i, p_ab = estimate_observable_arrays(*one_period(a, a, BAND, seed=1),
                                                    BAND, segments=8)
        assert (s_u[0], s_i[0], p_ab[0]) == (0.0, 0.0, 0.0)

    def test_too_short_trace_rejected(self):
        a = PartyState(1000.0, 300.0)
        trace = one_period(a, a, BAND, seed=1)
        with pytest.raises(TraceTooShort):
            estimate_observable_arrays(*trace, BAND, segments=4096)
        with pytest.raises(TraceTooShort):
            estimate_observable_arrays(*trace, BAND, segments=0)

    def test_equal_temperature_power_within_noise_floor(self):
        n = 1 << 18
        band = BandConfig(1.0, 4.0, n)
        a = PartyState(1000.0, 300.0)
        b = PartyState(3000.0, 300.0)
        u_wire, i_wire = one_period(a, b, band, seed=9)
        segments = 512
        seg_len = n // segments
        blocks = (u_wire[0, : segments * seg_len].reshape(segments, seg_len)
                  * i_wire[0, : segments * seg_len].reshape(segments, seg_len))
        per_segment = -blocks.mean(axis=1)
        floor = 3 * per_segment.std(ddof=1) / np.sqrt(segments)
        _, _, p_ab = estimate_observable_arrays(u_wire, i_wire, band, segments)
        assert abs(p_ab[0]) < floor

    def test_estimates_converge_to_analytic(self):
        n = 1 << 17
        band = BandConfig(1.0, 4.0, n)
        a = PartyState(1000.0, 300.0)
        b = PartyState(2000.0, 900.0)  # alpha=2, beta=3
        exact = analytic_observables(a, b, band, NORMALIZED)
        s_u, s_i, p_ab = estimate_observable_arrays(*one_period(a, b, band, seed=11),
                                                    band, segments=1024)
        assert s_u[0] == pytest.approx(exact.s_u, rel=0.05)
        assert s_i[0] == pytest.approx(exact.s_i, rel=0.05)
        assert p_ab[0] == pytest.approx(exact.p_ab, rel=0.05)

    def test_psd_error_shrinks_with_segments(self):
        # at fixed segment length, averaged-periodogram error should
        # drop roughly as 1/sqrt(segments)
        seg_len = 256
        a = PartyState(1000.0, 300.0)
        coarse, fine = [], []
        for seed in range(6):
            for segments, bucket in ((8, coarse), (512, fine)):
                band = BandConfig(1.0, 4.0, seg_len * segments)
                exact = analytic_observables(a, a, band, NORMALIZED)
                s_u, _, _ = estimate_observable_arrays(*one_period(a, a, band, seed),
                                                       band, segments)
                bucket.append(abs(s_u[0] - exact.s_u) / exact.s_u)
        # expected improvement factor is 8; require at least 2.5 to keep
        # the test robust against one lucky coarse draw
        assert np.mean(coarse) > 2.5 * np.mean(fine)


def workspace_chunk(rows, band, segments, work, seed=0):
    """(s_u, s_i, p_ab) lists of a `rows`-row chunk synthesized and
    estimated in `work`, its states and noise drawn from `seed`."""
    rng = np.random.default_rng(seed)
    r_a, r_b = rng.uniform(1e3, 3e3, (2, rows))
    t_a, t_b = rng.uniform(100.0, 500.0, (2, rows))
    generators = [np.random.default_rng([seed, j]) for j in range(rows)]
    traces = synthesize_traces(r_a, t_a, r_b, t_b, band, generators, NORMALIZED, work)
    return [column.tolist() for column in
            estimate_observable_arrays(*traces, band, segments, work)]


class TestWorkspace:
    @settings(max_examples=30)
    @given(n=st.integers(16, 4096), bandwidth=st.sampled_from([0.05, 0.5, 1.0, 1.9, 2.0]),
           segments=st.integers(1, 64), rows=st.integers(1, 4), used=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    # bandwidth = Nyquist: the normals, 4 x 2047 floats a row, outgrow a trace
    @example(n=4096, bandwidth=2.0, segments=64, rows=4, used=4, seed=1)
    # 63-sample segments of 4095 samples: strided blocks, an odd rFFT length
    @example(n=4095, bandwidth=1.0, segments=64, rows=2, used=2, seed=2)
    # a ragged last chunk: fewer rows than the workspace holds
    @example(n=4096, bandwidth=1.0, segments=64, rows=4, used=1, seed=3)
    def test_a_workspace_carries_no_state_between_chunks(self, n, bandwidth, segments,
                                                         rows, used, seed):
        band = BandConfig(bandwidth, 4.0, n)
        assume(used <= rows and n // segments >= 2
               and periodogram_bin_count(n // segments, band))
        # sized for the Nyquist band, so it also holds a chunk of that band
        nyquist = BandConfig(2.0, 4.0, n)
        work = TraceWorkspace(rows, nyquist, segments)
        for buffer in vars(work).values():
            buffer.fill(0.0)
        clean = workspace_chunk(used, band, segments, work, seed)
        assert clean == workspace_chunk(used, band, segments,
                                        TraceWorkspace(used, band, segments), seed)
        for buffer in vars(work).values():
            buffer.fill(np.nan)
        assert workspace_chunk(used, band, segments, work, seed) == clean
        workspace_chunk(rows, nyquist, segments, work, seed + 1)
        assert workspace_chunk(used, band, segments, work, seed) == clean

    def test_a_prepared_workspace_allocates_nothing_trace_sized(self):
        # one 4-row chunk of the benchmark's layout, its generators made
        # beforehand: every trace-sized array is a view of the workspace
        work = TraceWorkspace(4, BAND, 64)
        row_bytes = BAND.samples_per_bit * 8
        workspace_chunk(4, BAND, 64, work)
        peaks = []
        for chunk_work in (work, None):
            r, t = np.full(4, 1000.0), np.full(4, 300.0)
            generators = [np.random.default_rng(j) for j in range(4)]
            tracemalloc.start()
            try:
                traces = synthesize_traces(r, t, 2 * r, t, BAND, generators, NORMALIZED,
                                           chunk_work)
                estimate_observable_arrays(*traces, BAND, 64, chunk_work)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < row_bytes and peaks[1] > 8 * row_bytes
