"""Parameter recovery algebra: reduction, both recovery routes, the
session's array route, the equal-temperature pair extraction, and the
temperature-matching solve."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kljn import (
    BandConfig,
    ConfigError,
    EveView,
    InadmissibleTemperatures,
    InconsistentObservables,
    NORMALIZED,
    NoPositiveRoot,
    PartyState,
    ReducedObservables,
    SI,
    SingularSystem,
    WireObservables,
    analytic_observables,
    eve_pair_extraction,
    recover_partner,
    reduce_observables,
    solve_vmg_temperatures,
)
from kljn import adversary, resolver
from kljn.adversary import eve_pair_extractions
from kljn.resolver import (
    RECOVERY_FAILURES,
    equation_residual,
    recover_partner_arrays,
    reduce_observable_arrays,
    vmg_matching_residual,
)

BAND = BandConfig(bandwidth_hz=1.0, sample_rate_hz=4.0, samples_per_bit=16)


def exact_reduced(alpha, beta):
    """Reduced triple computed straight from the ratio formulas."""
    denom = (1.0 + alpha) ** 2
    return ReducedObservables(gamma=alpha * (alpha + beta) / denom,
                              phi=alpha * (beta - 1.0) / denom,
                              delta=(1.0 + alpha * beta) / denom)


def observables_for(alpha, beta, r_a=1000.0, t_a=300.0):
    alice = PartyState(r_a, t_a)
    bob = PartyState(alpha * r_a, beta * t_a)
    return analytic_observables(alice, bob, BAND, NORMALIZED)


class TestReduce:
    def test_symmetric_equilibrium(self):
        red = reduce_observables(observables_for(1.0, 1.0), 1000.0, 300.0,
                                 1.0, NORMALIZED)
        assert red.gamma == pytest.approx(0.5, rel=1e-14)
        assert red.phi == pytest.approx(0.0, abs=1e-18)
        assert red.delta == pytest.approx(0.5, rel=1e-14)

    def test_known_ratios(self):
        red = reduce_observables(observables_for(2.0, 3.0), 1000.0, 300.0,
                                 1.0, NORMALIZED)
        assert red.gamma == pytest.approx(10.0 / 9.0, rel=1e-13)
        assert red.phi == pytest.approx(4.0 / 9.0, rel=1e-13)
        assert red.delta == pytest.approx(7.0 / 9.0, rel=1e-13)

    def test_consistency_identity_holds_everywhere(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            alpha, beta = np.exp(rng.uniform(np.log(0.1), np.log(10), 2))
            red = reduce_observables(observables_for(alpha, beta),
                                     1000.0, 300.0, 1.0, NORMALIZED)
            assert abs(red.identity_residual()) < 1e-12

    def test_elimination_identities(self):
        # gamma - phi = a/(1+a) and delta - phi = 1/(1+a)
        rng = np.random.default_rng(4)
        for _ in range(200):
            alpha, beta = np.exp(rng.uniform(np.log(0.1), np.log(10), 2))
            red = exact_reduced(alpha, beta)
            assert red.gamma - red.phi == pytest.approx(alpha / (1 + alpha), rel=1e-12)
            assert red.delta - red.phi == pytest.approx(1 / (1 + alpha), rel=1e-12)


class TestRecoverPartner:
    def test_symmetric_equilibrium(self):
        rec = recover_partner(ReducedObservables(0.5, 0.0, 0.5), 1e-9)
        assert rec.alpha == pytest.approx(1.0, rel=1e-12)
        assert rec.beta == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("method", ["quadratic", "elimination"])
    def test_known_case(self, method):
        red = ReducedObservables(10.0 / 9.0, 4.0 / 9.0, 7.0 / 9.0)
        rec = recover_partner(red, 1e-9, method)
        assert rec.method == method
        assert rec.alpha == pytest.approx(2.0, rel=1e-12)
        assert rec.beta == pytest.approx(3.0, rel=1e-12)
        assert rec.residual < 1e-12

    def test_round_trip_randomized(self):
        rng = np.random.default_rng(5)
        for _ in range(2000):
            alpha, beta = np.exp(rng.uniform(np.log(0.1), np.log(10), 2))
            red = exact_reduced(alpha, beta)
            for method in ("quadratic", "elimination"):
                rec = recover_partner(red, 1e-9, method)
                assert rec.alpha == pytest.approx(alpha, rel=1e-9)
                assert rec.beta == pytest.approx(beta, rel=1e-9)

    def test_routes_agree(self):
        rng = np.random.default_rng(6)
        for _ in range(500):
            alpha, beta = np.exp(rng.uniform(np.log(0.1), np.log(10), 2))
            red = exact_reduced(alpha, beta)
            quad = recover_partner(red, 1e-9, "quadratic")
            elim = recover_partner(red, 1e-9, "elimination")
            assert quad.alpha == pytest.approx(elim.alpha, rel=1e-9)
            assert quad.beta == pytest.approx(elim.beta, rel=1e-9)

    def test_inconsistent_observables_rejected(self):
        bad = ReducedObservables(1.0, 0.3, 1.0)  # identity badly violated
        with pytest.raises(InconsistentObservables):
            recover_partner(bad, 1e-6)

    def test_noise_degrades_gracefully(self):
        # small consistent perturbations give small recovery errors,
        # monotone in the perturbation size
        alpha, beta = 2.0, 3.0
        red = exact_reduced(alpha, beta)
        errors = []
        for eps in (1e-4, 1e-3, 1e-2):
            # perturb gamma and delta oppositely so the identity survives
            noisy = ReducedObservables(red.gamma * (1 + eps),
                                       red.phi,
                                       red.delta - red.gamma * eps)
            rec = recover_partner(noisy, 0.5, "elimination")
            errors.append(abs(rec.alpha - alpha) / alpha
                          + abs(rec.beta - beta) / beta)
        assert errors[0] < errors[1] < errors[2]
        assert errors[2] < 0.5

    def test_equation_residual_zero_at_truth(self):
        red = exact_reduced(1.7, 0.4)
        assert equation_residual(red, 1.7, 0.4) < 1e-14
        assert equation_residual(red, 2.0, 0.4) > 1e-2


def recover_from_wire(alice, bob, tolerance=1e-6):
    """Alice's (alpha, beta, failure) for the wire of one draw, through
    the array route."""
    s_u, s_i, p_ab = (np.array([v]) for v in analytic_observables(alice, bob, BAND,
                                                                   NORMALIZED))
    alpha, beta, _, failure = recover_partner_arrays(*reduce_observable_arrays(
        s_u, s_i, p_ab, alice.resistance, alice.temperature, 1.0, 1.0), tolerance)
    return alpha, beta, failure


class TestRecoverPartnerArrays:
    def test_matches_scalar_elimination(self):
        # the scalar elimination is one lane of the array route, bit for bit
        rng = np.random.default_rng(7)
        alpha, beta = np.exp(rng.uniform(np.log(0.1), np.log(10), (2, 2000)))
        reduced = [exact_reduced(a, b) for a, b in zip(alpha, beta)]
        lanes = recover_partner_arrays(
            *(np.array([getattr(r, name) for r in reduced])
              for name in ("gamma", "phi", "delta")), 1e-9)
        assert not lanes[3].any()
        scalar = [recover_partner(r, 1e-9, "elimination") for r in reduced]
        assert [(rec.alpha, rec.beta, rec.residual) for rec in scalar] == list(
            zip(*(values.tolist() for values in lanes[:3])))
        assert all(type(value) is float for rec in scalar
                   for value in (rec.alpha, rec.beta, rec.residual))

    @pytest.mark.parametrize("triple, tolerance, error", [
        ((1.0, 0.3, 1.0), 1e-6, InconsistentObservables),  # identity violated
        ((1.5, 0.25, 0.0), 1e-6, NoPositiveRoot),  # delta - phi <= 0
        ((0.0, -0.5, 0.0), 1e-6, NoPositiveRoot),  # beta <= 0
        ((0.3, -0.2, 0.3009), 1e-3, InconsistentObservables),  # residual > tolerance
    ], ids=["identity", "resistance-ratio", "temperature-ratio", "residual"])
    def test_flags_the_scalar_error_class(self, triple, tolerance, error):
        with pytest.raises(error):
            recover_partner(ReducedObservables(*triple), tolerance, "elimination")
        # a good lane next to the failing one is unaffected
        good = exact_reduced(2.0, 3.0)
        lanes = zip(triple, (good.gamma, good.phi, good.delta))
        *_, failure = recover_partner_arrays(*map(np.array, lanes), tolerance)
        assert failure[1] == 0 and RECOVERY_FAILURES[failure[0]][0] is error


class TestEqualTemperatureRecovery:
    """The array route at a common temperature (beta = 1)."""

    def test_known_pair(self):
        a = PartyState(1000.0, 300.0)
        b = PartyState(2000.0, 300.0)
        # s_i = 4kT/(R_A+R_B) at equal temperature
        assert analytic_observables(a, b, BAND, NORMALIZED).s_i == pytest.approx(
            4 * 300.0 / 3000.0, rel=1e-13)
        alpha, beta, failure = recover_from_wire(a, b)
        assert failure[0] == 0
        assert alpha[0] * 1000.0 == pytest.approx(2000.0, rel=1e-12)
        assert beta[0] == pytest.approx(1.0, rel=1e-12)

    def test_symmetric_case(self):
        a = PartyState(1500.0, 300.0)
        alpha, beta, failure = recover_from_wire(a, a)
        assert failure[0] == 0
        assert alpha[0] * 1500.0 == pytest.approx(1500.0, rel=1e-12)

    def test_flags_inconsistent_spectra(self):
        # a zero current PSD, or one implying a total resistance below
        # Alice's own (500 < 1000), violates the consistency identity
        obs = analytic_observables(PartyState(1000.0, 300.0),
                                   PartyState(2000.0, 300.0), BAND, NORMALIZED)
        s_i = np.array([0.0, 4 * 300.0 / 500.0])
        *_, failure = recover_partner_arrays(*reduce_observable_arrays(
            obs.s_u, s_i, obs.p_ab, 1000.0, 300.0, 1.0, 1.0), 1e-6)
        assert [RECOVERY_FAILURES[code][0] for code in failure] == [
            InconsistentObservables] * 2


def extract_pair(obs):
    """Eve's pair at 300 K from the spectra of `obs`, with no power flow."""
    return eve_pair_extraction(EveView(WireObservables(obs.s_u, obs.s_i, 0.0), 1.0), 300.0,
                               NORMALIZED)


class TestEvePairExtraction:
    def test_known_pair(self):
        a = PartyState(1000.0, 300.0)
        b = PartyState(2000.0, 300.0)
        obs = analytic_observables(a, b, BAND, NORMALIZED)
        pair = extract_pair(obs)
        assert pair.low == pytest.approx(1000.0, rel=1e-12)
        assert pair.high == pytest.approx(2000.0, rel=1e-12)
        assert not pair.degenerate

    def test_identical_resistors_flagged_degenerate(self):
        a = PartyState(1234.0, 300.0)
        obs = analytic_observables(a, a, BAND, NORMALIZED)
        pair = extract_pair(obs)
        assert pair.degenerate
        assert pair.low == pytest.approx(1234.0, rel=1e-6)

    def test_unordered_set_property(self):
        a = PartyState(700.0, 300.0)
        b = PartyState(9000.0, 300.0)
        ab = analytic_observables(a, b, BAND, NORMALIZED)
        ba = analytic_observables(b, a, BAND, NORMALIZED)
        pair_ab = extract_pair(ab)
        pair_ba = extract_pair(ba)
        assert (pair_ab.low, pair_ab.high) == (pair_ba.low, pair_ba.high)

    def test_round_trip_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            r1, r2 = np.exp(rng.uniform(np.log(100.0), np.log(1e5), 2))
            a = PartyState(float(r1), 300.0)
            b = PartyState(float(r2), 300.0)
            obs = analytic_observables(a, b, BAND, NORMALIZED)
            pair = extract_pair(obs)
            lo, hi = sorted((r1, r2))
            assert pair.low == pytest.approx(lo, rel=1e-10)
            assert pair.high == pytest.approx(hi, rel=1e-10)

    @settings(max_examples=150)
    @given(spectra=st.lists(st.tuples(*[st.floats() | st.sampled_from(
               [0.0, -0.0, 5e-324, 1e-300, 1e300, 0.4, 1e12, 1200.0])] * 2), max_size=12),
           t=st.sampled_from([300.0, 1e-300, 1e300]), constants=st.sampled_from([NORMALIZED, SI]))
    def test_array_pass_equals_the_scalar_vieta_steps(self, spectra, t, constants):
        # the scalar extraction's IEEE steps, lane by lane, are the
        # reference: its first failing check's code, else its pair bit for
        # bit (NaN, infinities, zeros and underflow included)
        def scalar(s_u, s_i):
            if not (s_u > 0 and s_i > 0):
                return 2
            pair_sum = 4.0 * constants.k * t / s_i
            pair_product = s_u / s_i
            disc = pair_sum * pair_sum - 4.0 * pair_product
            if disc < 0.0:
                return 3
            r1 = 0.5 * (pair_sum + math.sqrt(disc))
            r2 = pair_product / r1 if r1 > 0.0 else 0.0
            if r1 <= 0.0 or r2 <= 0.0:
                return 4
            low, high = sorted((r1, r2))
            return repr(low), repr(high), (high - low) <= 1e-9 * high

        low, high, degenerate, failure = eve_pair_extractions(
            [[s_u for s_u, _ in spectra], [s_i for _, s_i in spectra], [0.0] * len(spectra)],
            1.0, t, constants)
        got = [code or (repr(lo), repr(hi), deg) for lo, hi, deg, code in zip(
            low.tolist(), high.tolist(), degenerate.tolist(), failure.tolist())]
        assert got == [scalar(*lane) for lane in spectra]

    def test_negative_discriminant_rejected(self):
        # s_u too large for the implied resistance sum
        with pytest.raises(InconsistentObservables):
            extract_pair(WireObservables(1e12, 0.4, 0.0))


class TestVmgTemperatures:
    def test_symmetric_pairs_need_no_compensation(self):
        temps = solve_vmg_temperatures(1000.0, 2000.0, 1000.0, 2000.0, 300.0,
                                       NORMALIZED)
        assert temps.t_ah == pytest.approx(300.0, rel=1e-12)
        assert temps.t_bl == pytest.approx(300.0, rel=1e-12)
        assert temps.t_bh == pytest.approx(300.0, rel=1e-12)

    def test_frozen_regression_case(self):
        # 1k/2k/3k/4k at T_AL = 300 K; solution frozen from the linear
        # solve and verified by back-substitution into the matching
        # conditions
        temps = solve_vmg_temperatures(1000.0, 2000.0, 3000.0, 4000.0, 300.0,
                                       NORMALIZED)
        assert temps.t_ah == pytest.approx(225.0, rel=1e-12)
        assert temps.t_bl == pytest.approx(100.0, rel=1e-12)
        assert temps.t_bh == pytest.approx(112.5, rel=1e-12)
        residual = vmg_matching_residual(1000.0, 2000.0, 3000.0, 4000.0,
                                         300.0, temps, NORMALIZED)
        assert residual < 1e-12

    @pytest.mark.parametrize("resistors, error, message", [
        # the determinant is proportional to r_ah - r_al
        ((1000.0, 1000.0, 1200.0, 2500.0), SingularSystem, "no unique"),
        # products like r_bl^2 r_ah underflow to 0, which only looks singular
        ((1e-152, 2e-152, 1.2e-152, 2.5e-152), ConfigError, "float range"),
    ], ids=["singular", "entries-underflow"])
    def test_singular_or_underflowed_system(self, resistors, error, message):
        with pytest.raises(error, match=message):
            solve_vmg_temperatures(*resistors, 300.0, NORMALIZED)

    def test_matching_holds_for_random_admissible_quadruples(self):
        # unsorted draws so roughly half the configurations demand a
        # non-positive compensation temperature; both branches exercised
        rng = np.random.default_rng(8)
        admissible = 0
        inadmissible = 0
        while admissible < 100:
            r_al, r_ah, r_bl, r_bh = np.exp(
                rng.uniform(np.log(100.0), np.log(1e4), 4))
            try:
                temps = solve_vmg_temperatures(r_al, r_ah, r_bl, r_bh, 300.0,
                                               NORMALIZED)
            except InadmissibleTemperatures as exc:
                inadmissible += 1
                assert min(exc.temperatures) <= 0.0
                continue
            admissible += 1
            residual = vmg_matching_residual(r_al, r_ah, r_bl, r_bh, 300.0,
                                             temps, NORMALIZED)
            assert residual < 1e-12
        assert inadmissible > 0

    def test_ordered_pairs_always_admissible(self):
        # when each party's low resistor really is the smaller one, the
        # matching temperatures come out positive
        rng = np.random.default_rng(9)
        for _ in range(500):
            r = np.exp(rng.uniform(np.log(100.0), np.log(1e4), 4))
            r_al, r_ah = sorted(r[:2])
            r_bl, r_bh = sorted(r[2:])
            temps = solve_vmg_temperatures(r_al, r_ah, r_bl, r_bh, 300.0,
                                           NORMALIZED)
            assert min(temps.t_ah, temps.t_bl, temps.t_bh) > 0.0


class TestModuleBoundaries:
    """Each inference has one implementation: Eve's pair extraction lives
    in `adversary`, the elimination route only as the array pass."""

    def test_adversary_imports_nothing_from_resolver(self):
        # `from .resolver import x`, `from . import resolver`, `import kljn.resolver`
        imported = [name for node in ast.walk(ast.parse(Path(adversary.__file__).read_text()))
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for name in [getattr(node, "module", None) or ""]
                    + [alias.name for alias in node.names]]
        assert imported and not [name for name in imported if "resolver" in name.split(".")]

    def test_resolver_has_no_eve_names_or_scalar_elimination(self):
        assert not [name for name in vars(resolver) if name.startswith("eve_")]
        assert not hasattr(resolver, "_recover_by_elimination")
