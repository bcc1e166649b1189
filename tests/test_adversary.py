"""Eavesdropper inference: classification, pair extraction, solution
families, and guess scoring."""

import math

import numpy as np
import pytest

from kljn import (
    BandConfig,
    EveView,
    InconsistentObservables,
    ModelMismatch,
    NORMALIZED,
    PartyState,
    ProtocolConfig,
    WireObservables,
    analytic_observables,
    eve_guess_session,
    eve_pair_extraction,
    eve_rrrt_solution_family,
    run_session,
    wilson_interval,
)
from kljn.adversary import (
    default_assumed_grid,
    eve_nearest_classes,
    eve_rrrt_solution_families,
)
from kljn.physics import analytic_observable_arrays, squared_relative_error
from kljn.protocol import BINARY_VARIANTS, STATUS_SECURE, party_states

BAND = BandConfig(bandwidth_hz=1.0, sample_rate_hz=4.0, samples_per_bit=4096)
R_LOW, R_HIGH, T_EFF = 1000.0, 2000.0, 300.0


def nearest_class(view: EveView, config: ProtocolConfig) -> str:
    return eve_nearest_classes(config, [[value] for value in view.observables])[0]


def view_for(alice: PartyState, bob: PartyState) -> EveView:
    obs = analytic_observables(alice, bob, BAND, NORMALIZED)
    return EveView(observables=obs, bandwidth_hz=BAND.bandwidth_hz)


class TestWilsonInterval:
    def test_half_centered(self):
        lo, hi = wilson_interval(50, 100, 0.99)
        assert lo < 0.5 < hi

    def test_extremes_stay_in_unit_interval(self):
        assert wilson_interval(0, 20)[0] == 0.0
        assert wilson_interval(20, 20)[1] == 1.0

    def test_narrows_with_n(self):
        w1 = np.diff(wilson_interval(5, 10))
        w2 = np.diff(wilson_interval(500, 1000))
        assert w2 < w1

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(11, 10)


class TestClassicDistinguish:
    CONFIG = ProtocolConfig(variant="classic-kljn", band=BAND, bits=0,
                            master_seed=0, r_low=R_LOW, r_high=R_HIGH,
                            t_eff=T_EFF, constants=NORMALIZED)

    def test_same_bit_draws_classified_exactly(self):
        low = PartyState(R_LOW, T_EFF)
        high = PartyState(R_HIGH, T_EFF)
        assert nearest_class(view_for(low, low), self.CONFIG) == "LL"
        assert nearest_class(view_for(high, high), self.CONFIG) == "HH"

    def test_secure_draws_collapse_to_one_class(self):
        low = PartyState(R_LOW, T_EFF)
        high = PartyState(R_HIGH, T_EFF)
        lh = view_for(low, high)
        hl = view_for(high, low)
        # LH and HL are the same point on the wire: identical triples
        assert lh.observables == hl.observables
        assert nearest_class(lh, self.CONFIG) == "LH-or-HL"
        assert nearest_class(hl, self.CONFIG) == "LH-or-HL"


class TestPairExtraction:
    def test_recovers_values_not_locations(self):
        lh = view_for(PartyState(R_LOW, T_EFF), PartyState(R_HIGH, T_EFF))
        hl = view_for(PartyState(R_HIGH, T_EFF), PartyState(R_LOW, T_EFF))
        for view in (lh, hl):
            pair = eve_pair_extraction(view, T_EFF, NORMALIZED)
            assert pair.low == pytest.approx(R_LOW, rel=1e-10)
            assert pair.high == pytest.approx(R_HIGH, rel=1e-10)

    def test_unequal_temperatures_break_the_model(self):
        view = view_for(PartyState(R_LOW, T_EFF), PartyState(R_HIGH, 2 * T_EFF))
        with pytest.raises(ModelMismatch):
            eve_pair_extraction(view, T_EFF, NORMALIZED)


class TestSolutionFamily:
    def true_view(self, r_a=1200.0, t_a=250.0, r_b=1700.0, t_b=380.0):
        return view_for(PartyState(r_a, t_a), PartyState(r_b, t_b)), (r_a, t_a, r_b, t_b)

    def test_truth_is_in_the_family(self):
        view, (r_a, t_a, r_b, t_b) = self.true_view()
        grid = np.geomspace(1000.0, 2000.0, 7)
        grid = np.append(grid, r_a)
        family = eve_rrrt_solution_family(view, grid, 1e-9, NORMALIZED)
        exact = [pt for pt in family if pt.assumed_r_a == r_a]
        assert len(exact) == 1
        pt = exact[0]
        assert pt.implied_t_a == pytest.approx(t_a, rel=1e-10)
        assert pt.implied_alpha == pytest.approx(r_b / r_a, rel=1e-10)
        assert pt.implied_beta == pytest.approx(t_b / t_a, rel=1e-10)

    def test_family_members_all_exactly_consistent(self):
        view, _ = self.true_view()
        family = eve_rrrt_solution_family(
            view, np.geomspace(800.0, 2500.0, 25), 1e-9, NORMALIZED)
        assert len(family) >= 10
        for pt in family:
            assert pt.residual < 1e-9
            alice = PartyState(pt.assumed_r_a, pt.implied_t_a)
            bob = PartyState(pt.implied_alpha * pt.assumed_r_a,
                             pt.implied_beta * pt.implied_t_a)
            predicted = analytic_observables(alice, bob, BAND, NORMALIZED)
            assert predicted.s_u == pytest.approx(view.observables.s_u, rel=1e-9)
            assert predicted.s_i == pytest.approx(view.observables.s_i, rel=1e-9)
            assert predicted.p_ab == pytest.approx(view.observables.p_ab, rel=1e-9)

    def test_family_spans_both_bit_assignments(self):
        # underdetermination in action: members above and below the
        # alpha = 1 line coexist, so the bit stays ambiguous
        view, _ = self.true_view()
        family = eve_rrrt_solution_family(
            view, np.geomspace(800.0, 2500.0, 40), 1e-9, NORMALIZED)
        bits = {pt.implied_alice_bit() for pt in family}
        assert {"L", "H"} <= bits

    def test_unphysical_assumptions_silently_skipped(self):
        view, _ = self.true_view()
        grid = [-5.0, 0.0, 1e-9, 1200.0]  # only the last can survive
        family = eve_rrrt_solution_family(view, grid, 1e-9, NORMALIZED)
        assert [pt.assumed_r_a for pt in family] == [1200.0]

    def test_impossible_observables_raise(self):
        # a triple violating the loop identity admits no configuration
        bad = EveView(observables=WireObservables(1.0, 1.0, 1e6),
                      bandwidth_hz=1.0)
        with pytest.raises(InconsistentObservables):
            eve_rrrt_solution_family(bad, np.geomspace(0.1, 10.0, 30),
                                     1e-9, NORMALIZED)

    def test_tie_member_reports_no_bit(self):
        view = view_for(PartyState(1500.0, 300.0), PartyState(1500.0, 400.0))
        family = eve_rrrt_solution_family(view, [1500.0], 1e-9, NORMALIZED)
        assert family[0].implied_alice_bit() is None


def per_point_family(obs, grid, tolerance, k, df=1.0):
    """The family sweep of the (s_u, s_i, p_ab) triple `obs`, one scalar
    point at a time: the reference for the array pass."""
    s_u, s_i, p_ab = obs
    if not (s_u > 0 and s_i > 0):
        return []
    p_per_hz = p_ab / df
    family = []
    for assumed_r_a in grid:
        if assumed_r_a <= 0:
            continue
        denom = assumed_r_a * s_i - p_per_hz
        if denom <= 0.0:
            continue
        r_b = (s_u - assumed_r_a * p_per_hz) / denom
        if r_b <= 0.0:
            continue
        total = assumed_r_a + r_b
        m = s_i * total ** 2 / (4.0 * k)
        n = p_ab * total ** 2 / (4.0 * k * df)
        t_a = (m - n / assumed_r_a) / total
        t_b = t_a + n / (assumed_r_a * r_b)
        if t_a <= 0.0 or t_b <= 0.0:
            continue
        predicted = [float(v) for v in analytic_observable_arrays(
            assumed_r_a, t_a, r_b, t_b, df, k)]
        residual = math.sqrt(squared_relative_error(predicted, obs))
        if residual <= tolerance:
            family.append((float(assumed_r_a), float(t_a), float(r_b / assumed_r_a),
                           float(t_b / t_a), float(residual)))
    return family


class TestSolutionFamilies:
    """The array sweep over many triples against the per-point loop."""

    @pytest.mark.parametrize("noise, tolerance", [(0.0, 1e-9), (0.01, 1.0)],
                             ids=["exact", "noisy"])
    def test_matches_the_per_point_loop(self, noise, tolerance):
        # noisy triples keep points with residuals of every magnitude,
        # whose libm squares differ from numpy's in the last bit
        rng = np.random.default_rng(5)
        n = 400
        settings = [rng.uniform(1000.0, 2000.0, n), rng.uniform(200.0, 400.0, n),
                    rng.uniform(1000.0, 2000.0, n), rng.uniform(200.0, 400.0, n)]
        columns = [c * rng.normal(1.0, noise, n)
                   for c in analytic_observable_arrays(*settings, 1.0, 1.0)]
        # triples no loop produces (the loop identity broken by a huge
        # power flow, or scrambled), and non-positive spectra
        columns[2][:40] = 1e6 * columns[0][:40]
        columns[1][40:80] = rng.permutation(columns[1][40:80]) * 7.0
        columns[0][80], columns[1][81] = 0.0, -1.0
        grid = np.append(np.geomspace(900.0, 2200.0, 25), [-5.0, 0.0])
        triple, *fields = eve_rrrt_solution_families(columns, 1.0, grid, tolerance,
                                                     NORMALIZED)
        # every point, tagged with the index of its triple, in triple order
        expected = [(j, point) for j, values in enumerate(zip(*(c.tolist() for c in columns)))
                    for point in per_point_family(values, grid, tolerance, 1.0)]
        assert list(zip(triple.tolist(), zip(*(f.tolist() for f in fields)))) == expected
        sizes = np.bincount(triple, minlength=n)
        assert np.count_nonzero(sizes == 0) >= 42 and sizes.sum() > 3000


class TestGuessSession:
    def session_config(self, **overrides):
        base = dict(variant="classic-kljn", band=BAND, bits=400,
                    master_seed=21, r_low=R_LOW, r_high=R_HIGH, t_eff=T_EFF,
                    constants=NORMALIZED)
        base.update(overrides)
        return ProtocolConfig(**base)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            eve_guess_session(self.session_config(), "clairvoyant")

    def test_scores_only_secure_bits(self):
        cfg = self.session_config()
        report = run_session(cfg)
        record = eve_guess_session(cfg, "random", report)
        assert record.n == report.counts[STATUS_SECURE]
        assert record.truths == [o.shared_key_bit for o in report.outcomes
                                 if o.status == STATUS_SECURE]

    @pytest.mark.parametrize("strategy", ["random", "nearest-class"])
    def test_no_strategy_beats_chance_on_classic(self, strategy):
        cfg = self.session_config(bits=1500)
        report = run_session(cfg)
        record = eve_guess_session(cfg, strategy, report)
        lo, hi = record.wilson_interval(0.99)
        assert lo <= 0.5 <= hi

    def test_rrrt_stays_at_chance(self):
        cfg = ProtocolConfig(variant="rrrt-kljn", band=BAND, bits=800,
                             master_seed=23, r_range=(1000.0, 2000.0),
                             r_levels=16, t_range=(200.0, 400.0), t_levels=16,
                             constants=NORMALIZED)
        report = run_session(cfg)
        record = eve_guess_session(cfg, "nearest-class", report)
        lo, hi = record.wilson_interval(0.99)
        assert lo <= 0.5 <= hi

    @pytest.mark.parametrize("variant", [
        dict(variant="classic-kljn", r_low=R_LOW, r_high=R_HIGH, t_eff=T_EFF),
        dict(variant="vmg-kljn", vmg_resistors=(1000.0, 2000.0, 1200.0, 2500.0),
             t_eff=T_EFF),
        dict(variant="rr-kljn", r_range=(1000.0, 2000.0), r_levels=16, t_eff=T_EFF),
        dict(variant="rrrt-kljn", r_range=(1000.0, 2000.0), r_levels=8,
             t_range=(200.0, 400.0), t_levels=8),
    ], ids=["classic", "vmg", "rr", "rrrt"])
    @pytest.mark.parametrize("mode", ["analytic", "sampled"])
    @pytest.mark.parametrize("seed", [3, 7, 2**32 + 5])
    def test_array_replay_matches_per_bit_loop(self, variant, mode, seed):
        sampled = dict(band=BandConfig(1.0, 4.0, 1024), estimator_segments=16)
        cfg = ProtocolConfig(bits=150, master_seed=seed, mode=mode,
                             constants=NORMALIZED, **(sampled if mode == "sampled"
                                                      else dict(band=BAND)), **variant)
        report = run_session(cfg)
        secure = [o for o in report.outcomes if o.status == STATUS_SECURE]
        binary = cfg.variant in BINARY_VARIANTS
        if binary:  # the class centres, LH and HL as one class
            (a_low, a_high), (b_low, b_high) = party_states(cfg)
            classes = {name: analytic_observables(a, b, cfg.band, cfg.constants)
                       for name, (a, b) in {"LL": (a_low, b_low), "HH": (a_high, b_high),
                                            "LH-or-HL": (a_low, b_high)}.items()}
        # the scalar classifier: min over the class centres in their order
        labels = [min(classes, key=lambda name: squared_relative_error(
            o.observables, classes[name])) for o in secure] if binary else None
        if binary:
            columns = list(zip(*(o.observables for o in secure)))
            assert eve_nearest_classes(cfg, columns) == labels
        for strategy in ("random", "nearest-class"):
            # the per-bit replay: a class bit, else one scalar coin per bit
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(0xEE,)))
            guesses = []
            for k in range(len(secure)):
                guess = ({"LL": 0, "HH": 1}.get(labels[k])
                         if binary and strategy == "nearest-class" else None)
                guesses.append(int(rng.integers(2)) if guess is None else guess)
            record = eve_guess_session(cfg, strategy, report)
            assert record.bit_indices == [o.index for o in secure]
            assert record.guesses == guesses
            assert record.truths == [o.shared_key_bit for o in secure]

    def test_guesses_deterministic_given_seed(self):
        cfg = self.session_config()
        report = run_session(cfg)
        r1 = eve_guess_session(cfg, "random", report)
        r2 = eve_guess_session(cfg, "random", report)
        assert r1.guesses == r2.guesses

    def test_empty_record_properties(self):
        cfg = self.session_config(bits=0)
        record = eve_guess_session(cfg, "random")
        assert record.n == 0
        assert record.accuracy is None
        assert record.wilson_interval() is None

    def test_default_assumed_grid_spans_public_range(self):
        cfg = ProtocolConfig(variant="rrrt-kljn", band=BAND, bits=0,
                             master_seed=1, r_range=(1000.0, 2000.0),
                             r_levels=8, t_range=(200.0, 400.0), t_levels=8,
                             constants=NORMALIZED)
        grid = default_assumed_grid(cfg, points=5)
        assert grid[0] == 1000.0 and grid[-1] == 2000.0 and len(grid) == 5
