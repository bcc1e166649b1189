"""Acceptance suite: one test per claimed capability, one printed
pass/fail line each (run with ``pytest -s`` to see them inline).

Every expected value is either derived from an independent analytic
oracle inside the test, a frozen regression value (marked as such), or a
trivial mathematical identity.  Tolerances are part of the contract and
are not to be loosened to make a failing criterion pass.
"""

import time

import numpy as np
import pytest

from kljn import (
    BandConfig,
    EveView,
    InadmissibleTemperatures,
    NORMALIZED,
    PartyState,
    ProtocolConfig,
    SI,
    analytic_observables,
    eve_guess_session,
    eve_pair_extraction,
    eve_rrrt_solution_family,
    run_session,
    solve_vmg_temperatures,
)
from kljn.physics import (
    analytic_observable_arrays,
    estimate_observable_arrays,
    synthesize_traces,
)
from kljn.resolver import (
    recover_partner_arrays,
    recover_partner_quadratic_arrays,
    vmg_matching_residual,
)
from kljn.protocol import STATUS_SECURE


def _verdict(number, name, ok, detail):
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def one_period(alice, bob, band, seed):
    """Wire (voltage, current) samples of one bit period: one-row arrays."""
    return synthesize_traces([alice.resistance], [alice.temperature], [bob.resistance],
                             [bob.temperature], band, [np.random.default_rng(seed)],
                             NORMALIZED)


def exact_reduced(alpha, beta):
    denom = (1.0 + alpha) ** 2
    return (alpha * (alpha + beta) / denom,      # gamma
            alpha * (beta - 1.0) / denom,        # phi
            (1.0 + alpha * beta) / denom)        # delta


def test_criterion_1_spectral_fidelity():
    """Sampled-mode (s_u, s_i) within 2% of analytic at >= 1000 segments."""
    segments, seg_len = 1024, 512
    band = BandConfig(1.0, 4.0, segments * seg_len)
    rng = np.random.default_rng(101)
    worst = 0.0
    points = 6
    for i in range(points):
        alpha, beta = np.exp(rng.uniform(np.log(0.1), np.log(10), 2))
        alice = PartyState(1000.0, 300.0)
        bob = PartyState(alpha * 1000.0, beta * 300.0)
        exact = analytic_observables(alice, bob, band, NORMALIZED)
        s_u, s_i, _ = estimate_observable_arrays(*one_period(alice, bob, band, 200 + i),
                                                 band, segments)
        worst = max(worst,
                    abs(s_u[0] - exact.s_u) / exact.s_u,
                    abs(s_i[0] - exact.s_i) / exact.s_i)
    _verdict(1, "spectral fidelity", worst < 0.02,
             f"max relative PSD error {worst:.4f} over {points} random "
             f"(alpha, beta) points at {segments} segments (threshold 0.02)")


def test_criterion_2_power_flow_fidelity():
    """Estimated p_ab within 5% for beta in {2, 3, 5}; 3-sigma zero at beta = 1."""
    n = 1 << 19
    band = BandConfig(1.0, 4.0, n)
    alice = PartyState(1000.0, 300.0)
    worst = 0.0
    for seed, beta in ((301, 2.0), (302, 3.0), (303, 5.0)):
        bob = PartyState(2000.0, beta * 300.0)
        exact = analytic_observables(alice, bob, band, NORMALIZED)
        _, _, p_ab = estimate_observable_arrays(*one_period(alice, bob, band, seed),
                                                band, segments=1024)
        worst = max(worst, abs(p_ab[0] - exact.p_ab) / abs(exact.p_ab))
    ok_nonzero = worst < 0.05

    # beta = 1: zero net flow within a 3-sigma segment-based noise floor
    bob_eq = PartyState(2000.0, 300.0)
    u_wire, i_wire = one_period(alice, bob_eq, band, seed=304)
    segments, seg_len = 512, n // 512
    blocks = (u_wire[0, : segments * seg_len].reshape(segments, seg_len)
              * i_wire[0, : segments * seg_len].reshape(segments, seg_len))
    per_segment = -blocks.mean(axis=1)
    floor = 3 * per_segment.std(ddof=1) / np.sqrt(segments)
    p_hat = per_segment.mean()
    ok_zero = abs(p_hat) < floor
    _verdict(2, "power-flow fidelity", ok_nonzero and ok_zero,
             f"max relative power error {worst:.4f} for beta in (2, 3, 5) "
             f"(threshold 0.05); |p| = {abs(p_hat):.3g} vs 3-sigma floor "
             f"{floor:.3g} at beta = 1")


def test_criterion_3_consistency_identity():
    """gamma + delta - 2 phi = 1 to 1e-12 analytically for 1e5 draws;
    sampled residual shrinks as segments grow."""
    rng = np.random.default_rng(103)
    alpha = np.exp(rng.uniform(np.log(0.1), np.log(10), 100_000))
    beta = np.exp(rng.uniform(np.log(0.1), np.log(10), 100_000))
    r_a, t_a = 1000.0, 300.0
    s_u, s_i, p = analytic_observable_arrays(r_a, t_a, alpha * r_a,
                                             beta * t_a, 1.0, 1.0)
    scale = 4.0 * t_a
    gamma = s_u / (scale * r_a)
    phi = p / scale
    delta = s_i * r_a / scale
    worst = float(np.max(np.abs(gamma + delta - 2.0 * phi - 1.0)))
    ok_analytic = worst < 1e-12

    # sampled: mean |identity residual| at 8 vs 512 segments (fixed
    # segment length, so more segments means a longer, better trace)
    seg_len = 256
    alice = PartyState(r_a, t_a)
    bob = PartyState(2000.0, 900.0)
    means = []
    for segments in (8, 512):
        band = BandConfig(1.0, 4.0, seg_len * segments)
        residuals = []
        for seed in range(5):
            s_u, s_i, p_ab = estimate_observable_arrays(
                *one_period(alice, bob, band, 400 + seed), band, segments)
            g = s_u[0] / (scale * r_a)
            f = p_ab[0] / scale
            d = s_i[0] * r_a / scale
            residuals.append(abs(g + d - 2.0 * f - 1.0))
        means.append(np.mean(residuals))
    ok_sampled = means[1] < means[0]
    _verdict(3, "consistency identity", ok_analytic and ok_sampled,
             f"max analytic residual {worst:.2e} over 1e5 draws (threshold "
             f"1e-12); sampled mean residual {means[0]:.3g} (8 segments) -> "
             f"{means[1]:.3g} (512 segments)")


def test_criterion_4_recovery_round_trip():
    """reduce -> recover reproduces (alpha, beta) to 1e-9 for 1e5 draws;
    the paper's quadratic route agrees with the elimination oracle, each
    one array pass over the same reduced triples."""
    rng = np.random.default_rng(104)
    n = 100_000
    alphas = np.exp(rng.uniform(np.log(0.1), np.log(10), n))
    betas = np.exp(rng.uniform(np.log(0.1), np.log(10), n))
    reduced = np.array([exact_reduced(alpha, beta)
                        for alpha, beta in zip(alphas.tolist(), betas.tolist())]).T
    quad_alpha, quad_beta, _, quad_failure = recover_partner_quadratic_arrays(*reduced, 1e-6)
    elim_alpha, elim_beta, _, failure = recover_partner_arrays(*reduced, 1e-6)
    worst_round_trip = max(np.max(np.abs(quad_alpha - alphas) / alphas),
                           np.max(np.abs(quad_beta - betas) / betas),
                           np.max(np.abs(elim_alpha - alphas) / alphas),
                           np.max(np.abs(elim_beta - betas) / betas))
    worst_route_gap = max(np.max(np.abs(quad_alpha - elim_alpha) / elim_alpha),
                          np.max(np.abs(quad_beta - elim_beta) / elim_beta))
    ok = (not failure.any() and not quad_failure.any() and worst_round_trip < 1e-9
          and worst_route_gap < 1e-9)
    _verdict(4, "recovery round-trip", ok,
             f"max round-trip error {worst_round_trip:.2e} and max "
             f"route disagreement {worst_route_gap:.2e} over 1e5 draws "
             f"(threshold 1e-9); failures: elimination {np.count_nonzero(failure)}, "
             f"quadratic {np.count_nonzero(quad_failure)}")


def test_criterion_5_classic_claims():
    """Efficiency within 3 sigma of 0.5 at 1e4 bits; LH = HL exactly;
    Eve's best strategy at chance (Wilson 99% contains 0.5)."""
    band = BandConfig(1.0, 4.0, 4096)
    bits = 10_000
    cfg = ProtocolConfig(variant="classic-kljn", band=band, bits=bits,
                         master_seed=105, r_low=1000.0, r_high=2000.0,
                         t_eff=300.0, constants=NORMALIZED)
    report = run_session(cfg)
    sigma = 0.5 / np.sqrt(bits)
    ok_eff = abs(report.efficiency - 0.5) < 3 * sigma

    low = PartyState(1000.0, 300.0)
    high = PartyState(2000.0, 300.0)
    lh = analytic_observables(low, high, band, NORMALIZED)
    hl = analytic_observables(high, low, band, NORMALIZED)
    ok_degenerate = (lh.s_u, lh.s_i, lh.p_ab) == (hl.s_u, hl.s_i, hl.p_ab)

    record = eve_guess_session(cfg, "nearest-class", report)
    lo, hi = record.wilson_interval(0.99)
    ok_eve = lo <= 0.5 <= hi
    _verdict(5, "classic scheme claims", ok_eff and ok_degenerate and ok_eve,
             f"efficiency {report.efficiency:.4f} (0.5 +/- {3 * sigma:.4f}); "
             f"LH == HL exactly: {ok_degenerate}; Eve nearest-class accuracy "
             f"{record.accuracy:.4f}, Wilson-99 [{lo:.4f}, {hi:.4f}]")


def test_criterion_6_vmg_matching():
    """Temperature matching equalizes LH/HL to 1e-12 relative for 1e3
    random admissible quadruples; inadmissible cases raise."""
    rng = np.random.default_rng(106)
    admissible = 0
    inadmissible = 0
    worst = 0.0
    while admissible < 1000:
        r_al, r_ah, r_bl, r_bh = np.exp(
            rng.uniform(np.log(100.0), np.log(1e4), 4))
        try:
            temps = solve_vmg_temperatures(r_al, r_ah, r_bl, r_bh, 300.0,
                                           NORMALIZED)
        except InadmissibleTemperatures as exc:
            inadmissible += 1
            assert min(exc.temperatures) <= 0.0  # detected, not clamped
            continue
        admissible += 1
        worst = max(worst, vmg_matching_residual(r_al, r_ah, r_bl, r_bh,
                                                 300.0, temps, NORMALIZED))
    ok = worst < 1e-12 and inadmissible > 0
    _verdict(6, "four-resistor temperature matching", ok,
             f"max LH/HL relative mismatch {worst:.2e} over 1000 admissible "
             f"quadruples (threshold 1e-12); {inadmissible} inadmissible "
             f"cases detected and raised")


def test_criterion_7_rrrt_underdetermination():
    """1e3 random unequal-resistance draws each admit a solution family
    with both bit assignments at residual < 1e-9, in under a minute."""
    band = BandConfig(1.0, 4.0, 4096)
    rng = np.random.default_rng(107)
    sweep = np.geomspace(500.0, 4000.0, 48)
    start = time.monotonic()
    demonstrated = 0
    draws = 0
    while demonstrated < 1000:
        draws += 1
        r_a, r_b = np.exp(rng.uniform(np.log(1000.0), np.log(2000.0), 2))
        t_a, t_b = rng.uniform(200.0, 400.0, 2)
        if r_a == r_b:
            continue
        alice = PartyState(float(r_a), float(t_a))
        bob = PartyState(float(r_b), float(t_b))
        view = EveView(analytic_observables(alice, bob, band, NORMALIZED),
                       band.bandwidth_hz)
        family = eve_rrrt_solution_family(view, sweep, 1e-9, NORMALIZED)
        bits = {pt.implied_alice_bit() for pt in family} - {None}
        if {"L", "H"} <= bits and all(pt.residual < 1e-9 for pt in family):
            demonstrated += 1
        else:
            break
    elapsed = time.monotonic() - start
    ok = demonstrated == 1000 and elapsed < 60.0
    _verdict(7, "random-temperature underdetermination", ok,
             f"{demonstrated}/1000 draws yielded opposite-bit family members "
             f"at residual < 1e-9 in {elapsed:.1f} s (limit 60 s)")


#: Frozen regression values: secure-bit efficiency of a 1000-bit
#: random-resistor random-temperature session (master_seed 108, analytic
#: mode, r in [1000, 2000] over log grids, t in [200, 400] linear, cell
#: width 0.01) per grid resolution.  Computed once from this codebase
#: and pinned; any change is a behavioral regression.
FROZEN_RRRT_EFFICIENCY = {8: 0.126, 16: 0.298, 32: 0.767, 64: 0.975}


def test_criterion_8_rrrt_efficiency():
    """Efficiency > 0.9 at 64 levels and monotone over {8, 16, 32, 64};
    exact values are frozen regressions."""
    band = BandConfig(1.0, 4.0, 4096)
    efficiencies = {}
    for levels in (8, 16, 32, 64):
        cfg = ProtocolConfig(variant="rrrt-kljn", band=band, bits=1000,
                             master_seed=108, r_range=(1000.0, 2000.0),
                             r_levels=levels, t_range=(200.0, 400.0),
                             t_levels=levels, degeneracy_tolerance=0.01,
                             constants=NORMALIZED)
        efficiencies[levels] = run_session(cfg).efficiency
    values = [efficiencies[n] for n in (8, 16, 32, 64)]
    ok_monotone = all(a < b for a, b in zip(values, values[1:]))
    ok_target = efficiencies[64] > 0.9
    ok_frozen = all(
        FROZEN_RRRT_EFFICIENCY[n] is not None
        and efficiencies[n] == pytest.approx(FROZEN_RRRT_EFFICIENCY[n],
                                             abs=1e-12)
        for n in (8, 16, 32, 64))
    _verdict(8, "random-temperature efficiency scaling",
             ok_monotone and ok_target and ok_frozen,
             f"efficiency by grid levels {efficiencies} — monotone: "
             f"{ok_monotone}, > 0.9 at 64 levels: {ok_target}, matches "
             f"frozen regression: {ok_frozen}")


def test_criterion_9_pair_extraction_round_trip():
    """Forward spectra -> pair extraction recovers random pairs in
    [100 ohm, 100 kohm] to 1e-10; the result is an unordered set."""
    band = BandConfig(1.0, 4.0, 4096)
    rng = np.random.default_rng(109)
    worst = 0.0
    ok_unordered = True
    for _ in range(1000):
        r1, r2 = np.exp(rng.uniform(np.log(100.0), np.log(1e5), 2))
        a = PartyState(float(r1), 300.0)
        b = PartyState(float(r2), 300.0)
        fwd = analytic_observables(a, b, band, SI)
        rev = analytic_observables(b, a, band, SI)
        pair = eve_pair_extraction(EveView(fwd, band.bandwidth_hz), 300.0, SI)
        swapped = eve_pair_extraction(EveView(rev, band.bandwidth_hz), 300.0, SI)
        lo, hi = sorted((r1, r2))
        worst = max(worst, abs(pair.low - lo) / lo, abs(pair.high - hi) / hi)
        ok_unordered &= (pair.low, pair.high) == (swapped.low, swapped.high)
    ok = worst < 1e-10 and ok_unordered
    _verdict(9, "resistor-pair extraction round-trip", ok,
             f"max relative error {worst:.2e} over 1000 pairs in "
             f"[100, 1e5] ohm (threshold 1e-10); unordered-set property "
             f"held: {ok_unordered}")
