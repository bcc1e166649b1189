"""Session mechanics for all four variants, plus the singularity
look-up table."""

import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kljn import (
    BandConfig,
    ConfigError,
    GridTooLarge,
    NORMALIZED,
    SI,
    ProtocolConfig,
    bit_seed,
    build_lookup_table,
    run_bit,
    run_session,
)
from kljn import (
    KeyDisagreement,
    KljnError,
    NoPositiveRoot,
    eve_guess_session,
    lookup,
    physics,
    protocol,
    resolver,
)
from kljn.physics import analytic_observable_arrays
from kljn.protocol import (
    STATUS_SAME_BIT,
    STATUS_SECURE,
    STATUS_SINGULAR,
    STATUS_TIE,
)

BAND = BandConfig(bandwidth_hz=1.0, sample_rate_hz=4.0, samples_per_bit=4096)


def classic_config(**overrides):
    base = dict(variant="classic-kljn", band=BAND, bits=50, master_seed=11,
                r_low=1000.0, r_high=2000.0, t_eff=300.0, constants=NORMALIZED)
    base.update(overrides)
    return ProtocolConfig(**base)


def vmg_config(**overrides):
    base = dict(variant="vmg-kljn", band=BAND, bits=50, master_seed=12,
                vmg_resistors=(1000.0, 2000.0, 3000.0, 4000.0), t_eff=300.0,
                constants=NORMALIZED)
    base.update(overrides)
    return ProtocolConfig(**base)


def rr_config(**overrides):
    base = dict(variant="rr-kljn", band=BAND, bits=50, master_seed=13,
                r_range=(1000.0, 2000.0), r_levels=16, t_eff=300.0,
                constants=NORMALIZED)
    base.update(overrides)
    return ProtocolConfig(**base)


def rrrt_config(**overrides):
    base = dict(variant="rrrt-kljn", band=BAND, bits=50, master_seed=14,
                r_range=(1000.0, 2000.0), r_levels=16,
                t_range=(200.0, 400.0), t_levels=16, constants=NORMALIZED)
    base.update(overrides)
    return ProtocolConfig(**base)


class TestConfigValidation:
    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            classic_config(variant="quantum-kljn")

    def test_classic_requires_distinct_ordered_pair(self):
        with pytest.raises(ConfigError):
            classic_config(r_high=1000.0)
        with pytest.raises(ConfigError):
            classic_config(r_low=3000.0)

    def test_missing_required_fields(self):
        with pytest.raises(ConfigError):
            classic_config(t_eff=None)
        with pytest.raises(ConfigError):
            rrrt_config(t_range=None)

    def test_vmg_pair_ordering(self):
        with pytest.raises(ConfigError):
            vmg_config(vmg_resistors=(2000.0, 1000.0, 3000.0, 4000.0))

    def test_grid_validation(self):
        with pytest.raises(ConfigError):
            rr_config(r_levels=1)
        with pytest.raises(ConfigError):
            rr_config(r_range=(2000.0, 1000.0))
        with pytest.raises(ConfigError):
            rr_config(r_range=(0.0, 1000.0))

    @pytest.mark.parametrize("make, fields", [
        (rr_config, dict(r_range=(1000.0, 2000.0, 3000.0))),
        (rr_config, dict(r_range=(True, 2000.0))),
        (vmg_config, dict(vmg_resistors=(1000.0, 2000.0, 3000.0))),
        (vmg_config, dict(vmg_resistors=(1000.0, 2000.0, None, 4000.0))),
        (rrrt_config, dict(t_range=("a", 400.0))),
        (rrrt_config, dict(t_range=400.0)),
    ], ids=["three-r_range", "bool-r_range", "three-vmg_resistors", "none-vmg_resistors",
            "string-t_range", "scalar-t_range"])
    def test_tuple_keys_need_their_count_of_numbers(self, make, fields):
        with pytest.raises(ConfigError, match=next(iter(fields))):
            make(**fields)
        # integers and numpy floats are numbers
        assert make(r_range=(1000, np.float64(2000.0))).r_range == (1000, 2000.0)

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            classic_config(mode="oracle")

    def test_grids(self):
        cfg = rrrt_config(r_levels=4, t_levels=3)
        r = cfg.resistance_grid()
        assert len(r) == 4 and r[0] == 1000.0 and r[-1] == 2000.0
        # log spacing: constant ratio
        ratios = r[1:] / r[:-1]
        assert np.allclose(ratios, ratios[0])
        t = cfg.temperature_grid()
        assert np.allclose(t, [200.0, 300.0, 400.0])
        # fixed-temperature variant exposes a single level
        assert np.array_equal(rr_config().temperature_grid(), [300.0])

    def test_recovery_tolerance_defaults(self):
        assert classic_config().effective_recovery_tolerance() == 1e-6
        assert classic_config(mode="sampled").effective_recovery_tolerance() == 0.5
        assert classic_config(recovery_tolerance=0.1).effective_recovery_tolerance() == 0.1


def session_draws(cfg, indices):
    """(Alice's, Bob's) drawn state per bit, from the session engine's
    draw pass."""
    states = protocol.party_states(cfg)
    return [(states[0][a], states[1][b])
            for a, b in zip(*protocol._draw_levels(cfg, list(indices)))]


class TestDraws:
    def test_deterministic_per_bit(self):
        cfg = rrrt_config()
        [(a1, b1)] = session_draws(cfg, [7])
        [(a2, b2)] = session_draws(cfg, [7])
        assert (a1, b1) == (a2, b2)

    def test_bits_are_independent_streams(self):
        cfg = rrrt_config()
        draws = set(session_draws(cfg, range(40)))
        assert len(draws) > 10  # not stuck on one value

    def test_classic_draws_come_from_public_pair(self):
        cfg = classic_config()
        for a, b in session_draws(cfg, range(40)):
            assert a.resistance in (1000.0, 2000.0)
            assert b.resistance in (1000.0, 2000.0)
            assert a.temperature == b.temperature == 300.0

    def test_vmg_draws_carry_matching_temperatures(self):
        cfg = vmg_config()
        temps = cfg.vmg_temperatures()
        expected = {(1000.0, 300.0), (2000.0, temps.t_ah)}
        seen = set()
        for a, _ in session_draws(cfg, range(40)):
            seen.add((a.resistance, a.temperature))
        assert seen == expected

    def test_quasi_continuum_draws_lie_on_grids(self):
        cfg = rrrt_config()
        r_grid = set(cfg.resistance_grid())
        t_grid = set(cfg.temperature_grid())
        for a, b in session_draws(cfg, range(40)):
            assert {a.resistance, b.resistance} <= r_grid
            assert {a.temperature, b.temperature} <= t_grid


def high_bits(cfg, alice_r, bob_r):
    """(Alice's bit, Bob's bit, tie) of one draw, from the engine's
    classifier."""
    a_high, b_high, tie = protocol._high_bits(cfg, np.array([alice_r]),
                                              np.array([bob_r]))
    names = protocol._BIT_NAME
    return names[bool(a_high[0])], names[bool(b_high[0])], bool(tie[0])


class TestAssignBits:
    def test_classic(self):
        cfg = classic_config()
        assert high_bits(cfg, 1000.0, 2000.0) == ("L", "H", False)
        assert high_bits(cfg, 2000.0, 2000.0) == ("H", "H", False)

    def test_quasi_continuum_orders_by_resistance(self):
        cfg = rr_config()
        assert high_bits(cfg, 1100.0, 1900.0) == ("L", "H", False)
        assert high_bits(cfg, 1900.0, 1100.0) == ("H", "L", False)

    def test_tie_flagged(self):
        cfg = rr_config()
        assert high_bits(cfg, 1500.0, 1500.0)[2]


def setting_values(table, members):
    """(r_a, t_a, r_b, t_b) arrays of enumerated setting indices
    (row-major over the (r, t, r, t) grid levels)."""
    levels = (len(table.r_grid), len(table.t_grid)) * 2
    r_a, t_a, r_b, t_b = np.unravel_index(members, levels)
    return table.r_grid[r_a], table.t_grid[t_a], table.r_grid[r_b], table.t_grid[t_b]


def cell_members(table, cell):
    return np.flatnonzero(table.combo_cells == cell)


class TestLookupTable:
    def test_budget_enforced(self):
        cfg = rrrt_config(r_levels=16, t_levels=16, max_combinations=1000)
        with pytest.raises(GridTooLarge) as exc:
            build_lookup_table(cfg)
        assert exc.value.required == (16 * 16) ** 2
        assert exc.value.budget == 1000

    def test_binary_variants_rejected(self):
        with pytest.raises(ConfigError):
            build_lookup_table(classic_config())

    def test_cell_lookup_round_trip(self):
        cfg = rrrt_config(r_levels=6, t_levels=5)
        table = build_lookup_table(cfg)
        r_grid, t_grid = cfg.resistance_grid(), cfg.temperature_grid()
        # every enumerated setting must map back to its own cell
        members = np.arange(0, table.n_settings, 37)
        cells = table.cell_indices(*setting_values(table, members))
        for member, cell in zip(members.tolist(), cells.tolist()):
            assert table.combo_cells[member] == cell
            assert member in cell_members(table, cell)
        # cells key on the observable triple, so a value far off every
        # grid cell raises
        with pytest.raises(KeyError):
            table.cell_indices([5.0], [t_grid[0]], [r_grid[0]], [t_grid[0]])

    def test_singular_cells_share_one_bit_direction(self):
        cfg = rrrt_config(r_levels=8, t_levels=8)
        table = build_lookup_table(cfg)
        rng = np.random.default_rng(0)
        for cell in rng.choice(table.n_cells, size=30, replace=False):
            r_a, _, r_b, _ = setting_values(table, cell_members(table, cell))
            signs = set(np.sign(r_b - r_a).tolist())
            assert table.cell_singular[cell] == (len(signs) == 1)

    def test_cells_contain_close_observables(self):
        from kljn.physics import analytic_observable_arrays
        cfg = rrrt_config(r_levels=8, t_levels=8, degeneracy_tolerance=0.02)
        table = build_lookup_table(cfg)
        sizes = table.cell_sizes
        cell = int(np.argmax(sizes))  # most populated cell
        s_u = analytic_observable_arrays(
            *setting_values(table, cell_members(table, cell)), 1.0, 1.0)[0]
        # one log-cell spans a factor (1 + width)
        assert s_u.max() / s_u.min() <= 1.0 + 2 * 0.02

    def test_wider_cells_lower_singular_fraction(self):
        fractions = [build_lookup_table(
            rrrt_config(r_levels=8, t_levels=8, degeneracy_tolerance=w)
        ).singular_fraction() for w in (0.001, 0.01, 0.1)]
        assert fractions[0] >= fractions[1] >= fractions[2]
        assert fractions[0] > fractions[2]

    def test_rr_table_ties_only(self):
        # at a common temperature the swap (R_A, R_B) -> (R_B, R_A)
        # leaves the whole triple invariant, so every off-diagonal cell
        # is degenerate; the only singular cells are ties isolated in
        # their own cell
        cfg = rr_config(r_levels=16)
        table = build_lookup_table(cfg)
        n = 16
        assert 0.0 < table.singular_fraction() <= 1.0 / n
        r = cfg.resistance_grid()
        cells = table.cell_indices([r[0], r[9]], [300.0] * 2, [r[5], r[2]],
                                   [300.0] * 2)
        assert not table.cell_singular[cells].any()
        singular_members = np.flatnonzero(
            table.cell_singular[table.combo_cells])
        r_a, _, r_b, _ = setting_values(table, singular_members)
        np.testing.assert_array_equal(r_a, r_b)


def one_shot_table(r_grid, t_grid, bandwidth_hz, k, rel_width):
    """Reference build: every setting enumerated at once, grouped by
    np.unique, singularity from ufunc.at bit extremes.  `in_range` says
    whether every quantization index fits the key range."""
    n_party = len(r_grid) * len(t_grid)
    r_party = np.repeat(r_grid, len(t_grid))
    t_party = np.tile(t_grid, len(r_grid))
    r_a, t_a = np.repeat(r_party, n_party), np.repeat(t_party, n_party)
    r_b, t_b = np.tile(r_party, n_party), np.tile(t_party, n_party)
    s_u, s_i, p = analytic_observable_arrays(r_a, t_a, r_b, t_b,
                                             bandwidth_hz, k)
    p_scale = float(np.max(np.abs(p)))
    bits = np.sign(r_b - r_a).astype(np.int8)
    log_width = np.log1p(rel_width)
    cols = [np.floor(np.log(s_u) / log_width).astype(np.int64),
            np.floor(np.log(s_i) / log_width).astype(np.int64),
            (np.floor(p / (rel_width * p_scale)).astype(np.int64)
             if p_scale > 0.0 else np.zeros(len(p), dtype=np.int64))]
    cols = [c + (1 << 20) for c in cols]
    in_range = all(c.min() >= 0 and c.max() < (1 << 21) for c in cols)
    keys = (cols[0] << 42) | (cols[1] << 21) | cols[2]
    cell_keys, combo_cells, cell_sizes = np.unique(
        keys, return_inverse=True, return_counts=True)
    bit_min = np.full(len(cell_keys), 127, dtype=np.int8)
    bit_max = np.full(len(cell_keys), -127, dtype=np.int8)
    np.minimum.at(bit_min, combo_cells, bits)
    np.maximum.at(bit_max, combo_cells, bits)
    return dict(p_scale=p_scale, cell_keys=cell_keys, cell_sizes=cell_sizes,
                cell_singular=bit_min == bit_max, combo_cells=combo_cells,
                combo_bits=bits, in_range=in_range)


def assert_table_is_one_shot(cfg, table):
    expected = one_shot_table(cfg.resistance_grid(), cfg.temperature_grid(),
                              cfg.band.bandwidth_hz, cfg.constants.k,
                              cfg.degeneracy_tolerance)
    assert table.p_scale == expected["p_scale"]
    r_a, _, r_b, _ = setting_values(table, np.arange(table.n_settings))
    for name in ("cell_keys", "cell_sizes", "cell_singular",
                 "combo_cells", "combo_bits"):
        actual = (np.sign(r_b - r_a).astype(np.int8) if name == "combo_bits"
                  else getattr(table, name))
        assert actual.dtype == expected[name].dtype, name
        np.testing.assert_array_equal(actual, expected[name], err_msg=name)
    assert table.n_settings == len(expected["combo_cells"])
    assert table.singular_fraction() == float(
        np.mean(expected["cell_singular"][expected["combo_cells"]]))


def pair_kinds(cfg):
    """Mirrored and plain resistance pairs of the build's blocks."""
    counts = {True: 0, False: 0}
    for r_a, _, _, _, mirrored, _ in lookup._pair_blocks(
            cfg.resistance_grid(), cfg.temperature_grid(),
            cfg.band.bandwidth_hz, cfg.constants.k):
        counts[mirrored] += len(r_a)
    return counts


#: 4k df is no power of two, so some resistance pairs round their power
#: prefactor differently in the two orientations
BAND_1K = BandConfig(bandwidth_hz=1000.0, sample_rate_hz=4000.0, samples_per_bit=4096)


#: (config, expected blocks) of the streamed build; a block list means
#: the case runs with five pairs' worth of settings per block at width 1
STREAMED_CASES = [
    (rr_config(r_levels=16), None),
    (rrrt_config(r_levels=6, t_levels=5, degeneracy_tolerance=0.02), None),
    # five pairs per block: the 28 mirrored pairs in 6 blocks, the
    # last one of 3, then the 8 diagonal pairs in 2; the fold runs in
    # slabs of about 50 refined cells
    (rrrt_config(r_levels=8, t_levels=8),
     [(5, True, 1)] * 5 + [(3, True, 1), (5, False, 0), (3, False, 0)]),
    (rrrt_config(r_levels=12, t_levels=6, constants=SI), None),
    (rrrt_config(r_levels=10, t_levels=7, band=BAND_1K), None),
    (rr_config(r_levels=64, t_eff=300.0), None),
    # width 2^-4: x = p / (w p_scale) is exactly -16 or 16 at the
    # extreme settings, so their parity bit is 0.  In SI units x is
    # 12 in exact arithmetic for the pair (1000, 3000) at the extreme
    # temperatures, and its asymmetric prefactor rounds one
    # orientation to 12 and the other to just below: a mirror of the
    # latter would land in the cell below
    (rrrt_config(r_levels=8, t_levels=8, degeneracy_tolerance=0.0625), None),
    (rrrt_config(r_range=(1000.0, 3000.0), r_levels=6, t_levels=4, constants=SI,
                 degeneracy_tolerance=0.0625), None),
    # the fold sums each cell over the runs of all blocks: at width
    # 0.3 coarse cells take entries from up to 6 of the 8 blocks
    (rrrt_config(r_levels=8, t_levels=8, degeneracy_tolerance=0.3),
     [(5, True, 1)] * 5 + [(3, True, 1), (5, False, 0), (3, False, 0)]),
    # eight pairs per block, a block per bit value: the mirrored
    # pairs, the diagonal, and both orientations of the others
    (rrrt_config(r_levels=12, t_levels=6, band=BAND_1K),
     [(8, True, 1)] * 5 + [(1, True, 1), (8, False, 0), (4, False, 0)]
     + [(8, False, 1)] * 3 + [(1, False, 1)] + [(8, False, -1)] * 3 + [(1, False, -1)]),
    # six pairs per block: some slabs hold plain runs only, so each
    # mirrored slice there, and its image, is empty
    (rrrt_config(r_levels=10, t_levels=7, band=BAND_1K),
     [(6, True, 1)] * 6 + [(2, True, 1), (6, False, 0), (4, False, 0), (6, False, 1),
                           (1, False, 1), (6, False, -1), (1, False, -1)]),
    # no mirrored pair: the one pair's prefactor is asymmetric in SI
    # units, so the fold has plain runs only
    (rrrt_config(r_range=(1000.0, 3000.0), r_levels=2, t_levels=4, constants=SI,
                 degeneracy_tolerance=0.0625),
     [(2, False, 0), (1, False, 1), (1, False, -1)]),
]
STREAMED_IDS = ["rr-16", "rrrt-6x5-w0.02", "rrrt-8x8-blocks", "rrrt-12x6-si",
                "rrrt-10x7-df1000", "rr-64", "rrrt-8x8-w2^-4", "rrrt-6x4-si-w2^-4",
                "rrrt-8x8-w0.3-blocks", "rrrt-12x6-df1000-blocks",
                "rrrt-10x7-df1000-blocks", "rrrt-2x4-si-no-mirror"]
#: the cases with patched blocks
PATCHED_BLOCK_CASES = [pytest.param(cfg, id=case_id)
                       for (cfg, blocks), case_id in zip(STREAMED_CASES, STREAMED_IDS)
                       if blocks is not None]


#: random grids: spans are decades above the low end; the narrowest
#: widths leave the key range, where both builds must fail alike
RANDOM_GRIDS = dict(variant=st.sampled_from(["rr-kljn", "rrrt-kljn"]),
                    r_low=st.floats(1.0, 1e4), r_span=st.floats(1e-3, 2.0),
                    t_low=st.floats(1.0, 1e3), t_span=st.floats(1e-3, 1.0),
                    r_levels=st.integers(2, 10), t_levels=st.integers(2, 8),
                    width_exponent=st.floats(-6.5, 0.5),
                    bandwidth_hz=st.sampled_from([1.0, 3.7, 1000.0]),
                    si_units=st.booleans())


def check_random_grid(variant, r_low, r_span, t_low, t_span, r_levels, t_levels,
                      width_exponent, bandwidth_hz, si_units):
    """The build on a `RANDOM_GRIDS` grid against the one-shot build."""
    fields = dict(variant=variant, bits=0, master_seed=0,
                  band=BandConfig(bandwidth_hz, 4.0 * bandwidth_hz, 4096),
                  r_range=(r_low, r_low * 10 ** r_span), r_levels=r_levels,
                  degeneracy_tolerance=10 ** width_exponent,
                  constants=SI if si_units else NORMALIZED)
    if variant == "rr-kljn":
        fields["t_eff"] = t_low
    else:
        fields.update(t_range=(t_low, t_low * 10 ** t_span), t_levels=t_levels)
    cfg = ProtocolConfig(**fields)
    expected = one_shot_table(cfg.resistance_grid(), cfg.temperature_grid(),
                              bandwidth_hz, cfg.constants.k,
                              cfg.degeneracy_tolerance)
    if not expected["in_range"]:
        with pytest.raises(ConfigError, match="too narrow"):
            build_lookup_table(cfg)
    else:
        assert_table_is_one_shot(cfg, build_lookup_table(cfg))
        if variant == "rr-kljn":  # singular cells hold ties only
            singular = expected["cell_singular"][expected["combo_cells"]]
            assert not expected["combo_bits"][singular].any()


class TestStreamedBuild:
    """The pair-streamed, mirrored build against the one-shot reference."""

    @pytest.mark.parametrize("cfg, blocks", STREAMED_CASES, ids=STREAMED_IDS)
    def test_matches_one_shot_build(self, cfg, blocks, monkeypatch):
        monkeypatch.setattr(lookup, "_pool_width", lambda: 1)
        if blocks is not None:
            monkeypatch.setattr(lookup, "_BLOCK_SETTINGS", 5 * 64)
            monkeypatch.setattr(lookup, "_FOLD_CELLS", 50)
            assert [(len(r_a), mirrored, bit)
                    for r_a, _, _, _, mirrored, bit in lookup._pair_blocks(
                        cfg.resistance_grid(), cfg.temperature_grid(),
                        cfg.band.bandwidth_hz, cfg.constants.k)] == blocks
        # each pair R_A < R_B once if mirrored, in both orientations if
        # plain, and the diagonal plain
        kinds, levels = pair_kinds(cfg), cfg.r_levels
        assert kinds[True] + (kinds[False] - levels) // 2 == levels * (levels - 1) // 2
        if cfg.constants == SI or cfg.band == BAND_1K:
            assert kinds[True] > 0 or levels == 2
            assert kinds[False] > levels
        assert_table_is_one_shot(cfg, build_lookup_table(cfg))

    @pytest.mark.parametrize("cfg", PATCHED_BLOCK_CASES)
    def test_two_threads_match_one_shot_build(self, cfg, monkeypatch):
        # half as many settings per block, each thread's buffers reused
        monkeypatch.setattr(lookup, "_pool_width", lambda: 2)
        monkeypatch.setattr(lookup, "_BLOCK_SETTINGS", 5 * 64)
        monkeypatch.setattr(lookup, "_MIN_BLOCK_SETTINGS", 5 * 32)
        monkeypatch.setattr(lookup, "_FOLD_CELLS", 50)
        assert len(list(lookup._pair_blocks(cfg.resistance_grid(), cfg.temperature_grid(),
                                            cfg.band.bandwidth_hz, cfg.constants.k,
                                            2))) > 2
        assert_table_is_one_shot(cfg, build_lookup_table(cfg))

    def test_exact_integer_power_indices(self):
        # the premise of the width-2^-4 cases above
        cfg = rrrt_config(r_levels=8, t_levels=8, degeneracy_tolerance=0.0625)
        table = build_lookup_table(cfg)
        power = (table.cell_keys & ((1 << 21) - 1)) - (1 << 20)
        assert power.min() == -16 and power.max() == 16

    @settings(max_examples=40)
    @given(**RANDOM_GRIDS)
    def test_matches_one_shot_build_on_random_grids(self, **grid):
        with mock.patch.object(lookup, "_pool_width", lambda: 1):
            check_random_grid(**grid)

    @settings(max_examples=40)
    @given(**RANDOM_GRIDS)
    def test_two_threads_match_one_shot_build_on_random_grids(self, **grid):
        # blocks of at most 128 settings, so most builds reuse the buffers
        with mock.patch.object(lookup, "_pool_width", lambda: 2), \
                mock.patch.object(lookup, "_BLOCK_SETTINGS", 256), \
                mock.patch.object(lookup, "_MIN_BLOCK_SETTINGS", 128):
            check_random_grid(**grid)

    def test_fold_premises(self, monkeypatch):
        # the premises of the patched width-0.3 and 10x7 1 kHz cases above
        monkeypatch.setattr(lookup, "_pool_width", lambda: 1)
        monkeypatch.setattr(lookup, "_BLOCK_SETTINGS", 5 * 64)
        monkeypatch.setattr(lookup, "_FOLD_CELLS", 50)
        block_cells, runs, slabs = [], [], []
        block_keys, fold, group = lookup._block_keys, lookup._fold, lookup._group

        def spied_block_keys(*args, **kwargs):
            keys = block_keys(*args, **kwargs)
            block_cells.append(np.unique(keys >> 1))
            return keys

        def spied_fold(kept):
            runs.extend((keys.copy(), counts.copy(), mirrored, bit)
                        for keys, counts, mirrored, bit in kept)
            return fold(kept)

        def spied_group(keys, counts, masks):
            slabs.append((keys.copy(), counts.copy(), masks.copy()))
            return group(keys, counts, masks)

        monkeypatch.setattr(lookup, "_block_keys", spied_block_keys)
        build_lookup_table(rrrt_config(r_levels=8, t_levels=8, degeneracy_tolerance=0.3))
        _, blocks_per_cell = np.unique(np.concatenate(block_cells), return_counts=True)
        assert len(block_cells) == 8 and blocks_per_cell.max() == 6
        # each slab groups one slice of every run, masked 1 << (1 + bit),
        # and the mirror image of every mirrored slice, masked 1 << (1 - bit)
        monkeypatch.setattr(lookup, "_fold", spied_fold)
        monkeypatch.setattr(lookup, "_group", spied_group)
        build_lookup_table(rrrt_config(r_levels=10, t_levels=7, band=BAND_1K))
        assert sum(mirrored for *_, mirrored, _ in runs) == 7 and len(slabs) > 1

        def entries(keys, counts, masks):
            order = np.lexsort((masks, counts, keys))
            return keys[order].tolist(), counts[order].tolist(), masks[order].tolist()

        mirrored_sizes = []
        for keys, counts, masks in slabs:
            # a slab holds whole (s_u, s_i) groups, between two of the cuts
            low, high = keys.min() >> 21, keys.max() >> 21
            expected = []
            for run_keys, run_counts, mirrored, bit in runs:
                inside = ((run_keys >> 22) >= low) & ((run_keys >> 22) <= high)
                refined, size = run_keys[inside], run_counts[inside]
                expected.append((refined >> 1, size, np.full(len(size), 1 << (1 + bit))))
                if mirrored:
                    mirrored_sizes.append(len(size))
                    # (n, e) of the power index mirrors to (-n - e, e)
                    parity = refined & 1
                    n = ((refined >> 1) & ((1 << 21) - 1)).astype(np.int64) - (1 << 20)
                    image_n = (-n - parity.astype(np.int64) + (1 << 20)).astype(np.uint64)
                    image = ((refined >> 22) << 21) | image_n
                    expected.append((image, size, np.full(len(size), 1 << (1 - bit))))
            assert entries(keys, counts, masks) == entries(
                *(np.concatenate(column) for column in zip(*expected)))
        # some slab takes nothing from any mirrored run
        assert [0] * 7 in [mirrored_sizes[j:j + 7] for j in range(0, len(mirrored_sizes), 7)]

    def test_mirror_of_the_lowest_power_index_leaves_the_key_range(self):
        # k = 1, R_A = R_B = 1: s_u = s_i = T_A + T_B = 1.5 and p = T_B - T_A
        # = -0.5, so at width 2^-20 and p_scale 0.5, x = -2^20 exactly: the
        # setting has index 0 and parity 0, and its mirror -n - e = 2^20
        # is one past the range.  A p_scale a little larger gives parity 1
        # and the mirror 2^20 - 1
        r, t_a, t_b = np.ones(1), np.ones(1), np.full(1, 0.5)
        args = (r, t_a, r, t_b, 1.0, 1.0, 2.0 ** -20)
        keys = lookup._block_keys(*args, 0.5, refine=True)
        assert int(keys[0]) & ((1 << 22) - 1) == 0
        with pytest.raises(ConfigError, match="too narrow"):
            lookup._block_keys(*args, 0.5, refine=True, mirrored=True)
        keys = lookup._block_keys(*args, 0.5 * (1 + 2.0 ** -40), refine=True,
                                  mirrored=True)
        assert int(keys[0]) & ((1 << 22) - 1) == 1

    @pytest.mark.parametrize("stage", ["_block_keys", "_group"], ids=["sort", "fold"])
    def test_stage_failure_propagates(self, stage, monkeypatch):
        # five pairs per block, 8 blocks; the second block's keys fail,
        # or the fold's second `_group`, which merges the second slab
        monkeypatch.setattr(lookup, "_pool_width", lambda: 1)
        monkeypatch.setattr(lookup, "_BLOCK_SETTINGS", 5 * 64)
        monkeypatch.setattr(lookup, "_FOLD_CELLS", 50)
        calls = []
        original = getattr(lookup, stage)

        def failing(*args, **kwargs):
            calls.append(len(args[0]))
            if len(calls) == 2:
                raise RuntimeError(f"{stage} 2 failed")
            return original(*args, **kwargs)

        monkeypatch.setattr(lookup, stage, failing)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match=f"{stage} 2 failed"):
            build_lookup_table(rrrt_config(r_levels=8, t_levels=8))
        assert len(calls) == 2
        assert threading.active_count() == threads

    @pytest.mark.parametrize("failing, first", [
        # block 3 fails on the helper thread before block 2 fails on the
        # calling thread: part 0's error, block 2's, is raised
        ({2, 3}, 2),
        ({2}, 2),
        ({3}, 3),
    ], ids=["both-blocks", "calling-thread", "helper"])
    def test_two_threads_raise_the_first_failing_block(self, failing, first, monkeypatch):
        # two pairs per block, 18 blocks: part 0 keys the even blocks on the
        # calling thread and part 1 the odd ones on a helper, each up to its
        # own first failing block
        monkeypatch.setattr(lookup, "_pool_width", lambda: 2)
        monkeypatch.setattr(lookup, "_BLOCK_SETTINGS", 5 * 64)
        monkeypatch.setattr(lookup, "_MIN_BLOCK_SETTINGS", 5 * 32)
        cfg = rrrt_config(r_levels=8, t_levels=8)
        index = {(r_a.tobytes(), r_b.tobytes()): i for i, (r_a, _, r_b, *_) in enumerate(
            lookup._pair_blocks(cfg.resistance_grid(), cfg.temperature_grid(),
                                cfg.band.bandwidth_hz, cfg.constants.k, 2))}
        assert len(index) == 18
        keyed_blocks, block_3_failed = [], threading.Event()
        block_keys = lookup._block_keys

        def failing_block_keys(r_a, t_a, r_b, *args, **kwargs):
            block = index[r_a.tobytes(), r_b.tobytes()]
            keyed_blocks.append((block, threading.current_thread()))
            if block in failing:
                if block == 3:
                    block_3_failed.set()
                elif 3 in failing:
                    assert block_3_failed.wait(10), "block 3 never failed"
                raise RuntimeError(f"block {block} failed")
            return block_keys(r_a, t_a, r_b, *args, **kwargs)

        monkeypatch.setattr(lookup, "_block_keys", failing_block_keys)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match=f"block {first} failed"):
            build_lookup_table(cfg)
        assert threading.active_count() == threads
        for part in range(2):
            share = list(range(part, 18, 2))
            stop = min((share.index(block) + 1 for block in failing if block % 2 == part),
                       default=len(share))
            assert [block for block, _ in keyed_blocks if block % 2 == part] == share[:stop]
        # the even blocks on the calling thread
        main = threading.current_thread()
        assert all((thread is main) == (block % 2 == 0) for block, thread in keyed_blocks)

    def test_two_thread_build_starts_one_helper_per_pass(self, monkeypatch):
        # 18 blocks and several slabs on two parts: one helper keys its
        # share of the blocks, and one folds its share of the slabs
        monkeypatch.setattr(lookup, "_pool_width", lambda: 2)
        monkeypatch.setattr(lookup, "_BLOCK_SETTINGS", 5 * 64)
        monkeypatch.setattr(lookup, "_MIN_BLOCK_SETTINGS", 5 * 32)
        monkeypatch.setattr(lookup, "_FOLD_CELLS", 50)
        cfg = rrrt_config(r_levels=8, t_levels=8)
        assert len(list(lookup._pair_blocks(cfg.resistance_grid(), cfg.temperature_grid(),
                                            cfg.band.bandwidth_hz, cfg.constants.k,
                                            2))) == 18
        started, start = [], lookup.threading.Thread.start

        def counted_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(lookup.threading.Thread, "start", counted_start)
        table = build_lookup_table(cfg)
        assert len(started) == 2
        assert_table_is_one_shot(cfg, table)

    def test_one_thread_build_starts_no_thread(self, monkeypatch):
        def no_thread(thread):
            raise AssertionError(f"the build started {thread}")

        monkeypatch.setattr(lookup, "_pool_width", lambda: 1)
        monkeypatch.setattr(lookup, "_BLOCK_SETTINGS", 5 * 64)
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        cfg = rrrt_config(r_levels=8, t_levels=8)
        assert_table_is_one_shot(cfg, build_lookup_table(cfg))

    def test_more_threads_than_cores_under_fast_switching(self, monkeypatch):
        # four threads on one pair per block, switching every microsecond:
        # a block keyed or cut in buffers another block holds would show
        monkeypatch.setattr(lookup, "_pool_width", lambda: 4)
        monkeypatch.setattr(lookup, "_BLOCK_SETTINGS", 4 * 64)
        monkeypatch.setattr(lookup, "_MIN_BLOCK_SETTINGS", 64)
        cfg = rrrt_config(r_levels=12, t_levels=8, band=BAND_1K)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            table = build_lookup_table(cfg)
        finally:
            sys.setswitchinterval(interval)
        assert_table_is_one_shot(cfg, table)

    def test_each_slot_reuses_its_buffers(self, monkeypatch):
        # block i is keyed in the buffers of slot i % 2, allocated once
        monkeypatch.setattr(lookup, "_pool_width", lambda: 2)
        monkeypatch.setattr(lookup, "_BLOCK_SETTINGS", 5 * 64)
        monkeypatch.setattr(lookup, "_MIN_BLOCK_SETTINGS", 5 * 32)
        cfg = rrrt_config(r_levels=8, t_levels=8)
        index = {(r_a.tobytes(), r_b.tobytes()): i for i, (r_a, _, r_b, *_) in enumerate(
            lookup._pair_blocks(cfg.resistance_grid(), cfg.temperature_grid(),
                                cfg.band.bandwidth_hz, cfg.constants.k, 2))}
        storage = {}
        block_keys = lookup._block_keys

        def spied_block_keys(r_a, t_a, r_b, *args, out=None, **kwargs):
            if out is not None:  # the build's blocks, not `combo_cells`
                roots = []
                for column in out:
                    while column.base is not None:
                        column = column.base
                    roots.append(column)
                storage[index[r_a.tobytes(), r_b.tobytes()]] = roots
            return block_keys(r_a, t_a, r_b, *args, out=out, **kwargs)

        monkeypatch.setattr(lookup, "_block_keys", spied_block_keys)
        assert_table_is_one_shot(cfg, build_lookup_table(cfg))
        assert sorted(storage) == list(range(18))
        slots = storage[0], storage[1]
        assert len({id(column) for slot in slots for column in slot}) == 8
        for block, roots in storage.items():
            assert all(a is b for a, b in zip(roots, slots[block % 2]))


class TestRunBit:
    def test_classic_bit_statuses(self):
        cfg = classic_config(bits=200)
        report = run_session(cfg)
        statuses = set(o.status for o in report.outcomes)
        assert statuses == {STATUS_SECURE, STATUS_SAME_BIT}

    def test_secure_bits_agree_and_invert(self):
        report = run_session(classic_config(bits=200))
        for o in report.outcomes:
            if o.status != STATUS_SECURE:
                continue
            assert o.alice_bit != o.bob_bit
            assert o.shared_key_bit == {"L": 0, "H": 1}[o.bob_bit]

    def test_partner_recovery_exact_in_analytic_mode(self):
        for cfg in (classic_config(bits=60), rrrt_config(bits=60)):
            report = run_session(cfg)
            for o in report.outcomes:
                if o.status != STATUS_SECURE:
                    continue
                assert o.alice_view_of_bob.resistance == pytest.approx(
                    o.bob_draw.resistance, rel=1e-9)
                assert o.bob_view_of_alice.resistance == pytest.approx(
                    o.alice_draw.resistance, rel=1e-9)

    def test_rrrt_recovers_temperature_too(self):
        report = run_session(rrrt_config(bits=60))
        for o in report.outcomes:
            if o.status != STATUS_SECURE:
                continue
            assert o.alice_view_of_bob.temperature == pytest.approx(
                o.bob_draw.temperature, rel=1e-9)

    def test_vmg_recovery_identifies_partner_state(self):
        report = run_session(vmg_config(bits=120))
        secure = [o for o in report.outcomes if o.status == STATUS_SECURE]
        assert secure
        for o in report.outcomes:
            if o.status not in (STATUS_SECURE, STATUS_SAME_BIT):
                continue
            assert o.alice_view_of_bob.resistance == o.bob_draw.resistance
            assert o.alice_view_of_bob.temperature == o.bob_draw.temperature
            assert o.bob_view_of_alice.resistance == o.alice_draw.resistance

    @pytest.mark.parametrize("make", [classic_config, vmg_config, rr_config,
                                      rrrt_config])
    def test_analytic_decisions_follow_the_draws(self, make):
        # the rule the parties' measured views reproduce on exact data
        cfg = make(bits=200)
        table = (build_lookup_table(cfg) if cfg.variant in ("rr-kljn", "rrrt-kljn")
                 else None)
        # each party's low resistance in the binary variants
        lows = {"classic-kljn": (1000.0, 1000.0), "vmg-kljn": (1000.0, 3000.0)}
        for o in run_session(cfg).outcomes:
            r_a, r_b = o.alice_draw.resistance, o.bob_draw.resistance
            if table is None:
                a_high, b_high = r_a != lows[cfg.variant][0], r_b != lows[cfg.variant][1]
                expected = STATUS_SAME_BIT if a_high == b_high else STATUS_SECURE
            elif r_a == r_b:
                expected = STATUS_TIE
            else:
                b_high = r_b > r_a
                cell = table.cell_indices([r_a], [o.alice_draw.temperature], [r_b],
                                          [o.bob_draw.temperature])
                expected = (STATUS_SINGULAR if table.cell_singular[cell][0]
                            else STATUS_SECURE)
            assert o.status == expected
            assert o.shared_key_bit == (int(b_high) if expected == STATUS_SECURE
                                        else None)

    def test_run_bit_reproducible(self):
        cfg = rrrt_config()
        table = build_lookup_table(cfg)
        o1 = run_bit(cfg, 3, table=table)
        o2 = run_bit(cfg, 3, table=table)
        assert o1.alice_draw == o2.alice_draw
        assert o1.status == o2.status
        assert o1.shared_key_bit == o2.shared_key_bit


class TestRunSession:
    def test_counts_add_up(self):
        report = run_session(rrrt_config(bits=100))
        assert sum(report.counts.values()) == 100
        assert report.efficiency == report.counts.get(STATUS_SECURE, 0) / 100

    def test_empty_session(self):
        report = run_session(classic_config(bits=0))
        assert report.efficiency is None
        assert report.outcomes == []

    @pytest.mark.parametrize("constants", [NORMALIZED, SI], ids=["normalized", "si"])
    @pytest.mark.parametrize("r_bl", [1000.0, 1000.0 * (1 + 1e-11)],
                             ids=["classic-quadruple", "near-classic-quadruple"])
    def test_degenerate_vmg_quadruples_keep_their_bits(self, r_bl, constants):
        # the solved temperatures are (nearly) equal, so the reduced power
        # flow phi is rounding noise; its residual must not fail the bits
        report = run_session(vmg_config(bits=400, master_seed=7, constants=constants,
                                        vmg_resistors=(1000.0, 2000.0, r_bl, 2000.0)))
        assert set(report.counts) == {STATUS_SECURE, STATUS_SAME_BIT}
        assert report.counts[STATUS_SECURE] > 150

    def test_key_bits_match_secure_outcomes(self):
        report = run_session(classic_config(bits=100))
        assert len(report.key_bits) == report.counts[STATUS_SECURE]
        assert set(report.key_bits) <= {0, 1}

    def test_classic_efficiency_near_half(self):
        report = run_session(classic_config(bits=2000))
        assert abs(report.efficiency - 0.5) < 0.05

    def test_rr_session_discards_ties_and_singular(self):
        report = run_session(rr_config(bits=300))
        assert STATUS_SECURE in report.counts
        discard_statuses = set(report.counts) - {STATUS_SECURE}
        assert discard_statuses <= {STATUS_TIE, STATUS_SINGULAR}

    def test_sampled_mode_classic_runs_clean(self):
        cfg = classic_config(bits=40, mode="sampled",
                             band=BandConfig(1.0, 4.0, 8192),
                             estimator_segments=16)
        report = run_session(cfg)
        statuses = set(o.status for o in report.outcomes)
        assert statuses <= {STATUS_SECURE, STATUS_SAME_BIT}
        for o in report.outcomes:
            if o.status == STATUS_SECURE:
                # estimated resistance lands nearer the true partner value
                est = o.alice_view_of_bob.resistance
                true = o.bob_draw.resistance
                other = 3000.0 - true  # the alternative public value
                assert abs(est - true) < abs(est - other)

    def test_sessions_differ_across_seeds(self):
        k1 = run_session(classic_config(bits=100, master_seed=1)).key_bits
        k2 = run_session(classic_config(bits=100, master_seed=2)).key_bits
        assert k1 != k2


SMALL_SAMPLED = dict(mode="sampled", band=BandConfig(1.0, 4.0, 1000),
                     estimator_segments=8)


def reference_bit(cfg, i):
    """The per-bit loop the batch engine replaced: draws in seed order,
    one-trace synthesis and periodogram means.  Returns the draws and
    the observable triple."""
    rng = np.random.default_rng(bit_seed(cfg.master_seed, i))
    if cfg.variant == "classic-kljn":
        pair = (cfg.r_low, cfg.r_high)
        draws = (pair[rng.integers(2)], cfg.t_eff, pair[rng.integers(2)], cfg.t_eff)
    elif cfg.variant == "vmg-kljn":
        r_al, r_ah, r_bl, r_bh = cfg.vmg_resistors
        temps = cfg.vmg_temperatures()
        draws = (((r_al, cfg.t_eff), (r_ah, temps.t_ah))[rng.integers(2)]
                 + ((r_bl, temps.t_bl), (r_bh, temps.t_bh))[rng.integers(2)])
    else:
        r_grid, t_grid = cfg.resistance_grid(), cfg.temperature_grid()
        draws = tuple(float(grid[rng.integers(len(grid))])
                      for grid in (r_grid, t_grid, r_grid, t_grid))
    r_a, t_a, r_b, t_b = draws
    k, band = cfg.constants.k, cfg.band
    if cfg.mode == "analytic":
        return draws, tuple(float(v) for v in analytic_observable_arrays(
            r_a, t_a, r_b, t_b, band.bandwidth_hz, k))
    rng = np.random.default_rng(bit_seed(cfg.master_seed, i, purpose=1))
    n, fs = band.samples_per_bit, band.sample_rate_hz
    freqs = np.fft.rfftfreq(n, d=1.0 / fs)
    in_band = (freqs > 0) & (freqs <= band.bandwidth_hz) & (freqs < fs / 2.0)

    def voltage(psd):
        spectrum = np.zeros(len(freqs), dtype=complex)
        spectrum[in_band] = np.sqrt(psd * fs * n / 4.0) * (
            rng.standard_normal(in_band.sum()) + 1j * rng.standard_normal(in_band.sum()))
        return np.fft.irfft(spectrum, n)

    u_a, u_b = voltage(4.0 * k * t_a * r_a), voltage(4.0 * k * t_b * r_b)
    u, cur = (u_a * r_b + u_b * r_a) / (r_a + r_b), (u_a - u_b) / (r_a + r_b)

    def mean_psd(x):
        seg_len = n // cfg.estimator_segments
        f = np.fft.rfftfreq(seg_len, d=1.0 / fs)
        keep = (f > 0) & (f <= band.bandwidth_hz - fs / seg_len) & (f < fs / 2.0)
        blocks = x[: cfg.estimator_segments * seg_len].reshape(-1, seg_len)
        psd = 2.0 * np.abs(np.fft.rfft(blocks, axis=1)) ** 2 / (fs * seg_len)
        return float(np.mean(psd[:, keep]))

    return draws, (mean_psd(u), mean_psd(cur), -float(np.mean(u * cur)))


class TestBatchEngine:
    """The batch session engine against its one-bit form."""

    @pytest.mark.parametrize("make", [classic_config, vmg_config, rr_config,
                                      rrrt_config])
    @pytest.mark.parametrize("mode, width", [("analytic", 1), ("sampled", 1),
                                             ("sampled", 2)],
                             ids=["analytic", "sampled", "sampled-width-2"])
    def test_session_matches_run_bit_in_any_order(self, make, mode, width,
                                                  monkeypatch):
        extra = SMALL_SAMPLED if mode == "sampled" else {}
        monkeypatch.setattr(lookup, "_pool_width", lambda: width)
        if width == 2:  # 12 bits in chunks of 2, three to a thread
            monkeypatch.setattr(protocol, "_CHUNK_SAMPLES", 2 * 1000)
        cfg = make(bits=40 if mode == "analytic" else 12, **extra)
        report = run_session(cfg)
        table = (build_lookup_table(cfg) if cfg.variant in ("rr-kljn", "rrrt-kljn")
                 else None)
        # draws, observables, status, bits, recovered views and error class
        for i in reversed(range(cfg.bits)):
            assert repr(run_bit(cfg, i, table=table)) == repr(report.outcomes[i])

    @pytest.mark.parametrize("make", [classic_config, vmg_config, rr_config,
                                      rrrt_config])
    @pytest.mark.parametrize("mode", ["analytic", "sampled"])
    def test_matches_per_bit_reference(self, make, mode):
        cfg = make(bits=12, **(SMALL_SAMPLED if mode == "sampled" else {}))
        for o in run_session(cfg).outcomes:
            draws, triple = reference_bit(cfg, o.index)
            assert (o.alice_draw.resistance, o.alice_draw.temperature,
                    o.bob_draw.resistance, o.bob_draw.temperature) == draws
            assert tuple(o.observables) == triple

    @pytest.mark.parametrize("make", [classic_config, vmg_config, rr_config,
                                      rrrt_config])
    @pytest.mark.parametrize("bits_per_chunk", [1, None, 64],
                             ids=["bit-per-chunk", "engine-chunks", "one-chunk"])
    @pytest.mark.parametrize("width", [1, 2], ids=["width-1", "width-2"])
    def test_benchmark_geometry_matches_per_bit_reference(self, make, bits_per_chunk,
                                                          width, monkeypatch):
        # 4096 samples in 64 segments, as the benchmark runs sampled mode
        monkeypatch.setattr(lookup, "_pool_width", lambda: width)
        cfg = make(bits=13, mode="sampled", estimator_segments=64)
        samples = cfg.band.samples_per_bit
        assert samples == 4096
        if bits_per_chunk:
            monkeypatch.setattr(protocol, "_CHUNK_SAMPLES", bits_per_chunk * samples)
        else:
            assert -(-cfg.bits // (protocol._CHUNK_SAMPLES // samples)) >= 3
        for o in run_session(cfg).outcomes:
            draws, triple = reference_bit(cfg, o.index)
            assert (o.alice_draw.resistance, o.alice_draw.temperature,
                    o.bob_draw.resistance, o.bob_draw.temperature) == draws
            assert tuple(o.observables) == triple

    def test_ragged_last_chunk(self, monkeypatch):
        monkeypatch.setattr(lookup, "_pool_width", lambda: 1)  # chunks in order
        cfg = classic_config(bits=10, **SMALL_SAMPLED)
        whole = [repr(o) for o in run_session(cfg).outcomes]
        rows = []
        synthesize = protocol.synthesize_traces
        monkeypatch.setattr(protocol, "synthesize_traces", lambda r_a, *rest:
                            rows.append(len(r_a)) or synthesize(r_a, *rest))
        monkeypatch.setattr(protocol, "_CHUNK_SAMPLES", 3 * 1000 + 5)
        assert [repr(o) for o in run_session(cfg).outcomes] == whole
        assert rows == [3, 3, 3, 1]

    @pytest.mark.parametrize("make", [classic_config, vmg_config, rr_config,
                                      rrrt_config])
    @pytest.mark.parametrize("bits, split", [
        # width: each part's chunk sizes, the calling thread's first; each
        # thread holds 3 bit periods, and a helper thread runs each other part
        (20, {1: [[3, 3, 3, 3, 3, 3, 2]], 2: [[3, 3, 3, 2], [3, 3, 3]],
              3: [[3, 3, 2], [3, 3], [3, 3]]}),
        (10, {1: [[3, 3, 3, 1]], 2: [[3, 3], [3, 1]], 3: [[3, 1], [3], [3]]}),
        (7, {1: [[3, 3, 1]], 2: [[3, 1], [3]], 3: [[3], [3], [1]]}),
        (3, {1: [[3]], 2: [[3]], 3: [[3]]}),
        (0, {1: [[]], 2: [[]], 3: [[]]}),
    ], ids=["three-parts", "ragged", "one-chunk-part", "one-chunk", "empty"])
    def test_widths_give_identical_outcomes(self, make, bits, split, monkeypatch):
        # the chunks are the thread runner's items, part p taking chunks p,
        # p + width, ...: 20 bits at width 3 run as parts of 3, 2 and 2
        # chunks; 7 bits at width 2 as a part of two chunks and one of one
        monkeypatch.setattr(protocol, "_CHUNK_SAMPLES", 3 * 1000 + 5)
        rows, started = {}, []
        synthesize, start = protocol.synthesize_traces, threading.Thread.start
        monkeypatch.setattr(protocol, "synthesize_traces", lambda r_a, *rest: rows.setdefault(
            threading.current_thread(), []).append(len(r_a)) or synthesize(r_a, *rest))
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread) or start(thread))
        cfg = make(bits=bits, **SMALL_SAMPLED)
        outcomes = []
        for width, parts in split.items():
            monkeypatch.setattr(lookup, "_pool_width", lambda: width)
            outcomes.append([repr(o) for o in run_session(cfg).outcomes])
            assert rows.pop(threading.current_thread(), []) == parts[0]
            assert [rows.get(helper, []) for helper in started] == parts[1:]
            rows.clear()
            started.clear()
        assert len(outcomes[0]) == bits
        assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]

    def test_workspaces_are_built_on_the_calling_thread(self, monkeypatch):
        # 13 bits of 4096 samples, four to a chunk, on two threads: every
        # workspace, the helper's too, comes from the calling thread
        built, synthesized = [], set()
        init, synthesize = physics.TraceWorkspace.__init__, protocol.synthesize_traces
        monkeypatch.setattr(physics.TraceWorkspace, "__init__", lambda work, *args: built.append(
            threading.get_ident()) or init(work, *args))
        monkeypatch.setattr(protocol, "synthesize_traces", lambda *args: synthesized.add(
            threading.get_ident()) or synthesize(*args))
        monkeypatch.setattr(lookup, "_pool_width", lambda: 2)
        cfg = classic_config(bits=13, mode="sampled", estimator_segments=64)
        assert run_session(cfg).total_bits == 13
        assert built == [threading.get_ident()] * 2
        assert len(synthesized) == 2 and threading.get_ident() in synthesized

    def test_more_threads_than_cores_under_fast_switching(self, monkeypatch):
        # four threads on one bit period per chunk, switching every
        # microsecond: a generator or row shared between parts would show
        monkeypatch.setattr(protocol, "_CHUNK_SAMPLES", 1000)
        monkeypatch.setattr(lookup, "_pool_width", lambda: 1)
        cfg = rrrt_config(bits=24, **SMALL_SAMPLED)
        expected = [repr(o) for o in run_session(cfg).outcomes]
        monkeypatch.setattr(lookup, "_pool_width", lambda: 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            report = run_session(cfg)
        finally:
            sys.setswitchinterval(interval)
        assert [repr(o) for o in report.outcomes] == expected

    @pytest.mark.parametrize("make", [classic_config, vmg_config, rr_config,
                                      rrrt_config])
    def test_analytic_and_one_chunk_sessions_start_no_thread(self, make, monkeypatch):
        def no_thread(thread):
            raise AssertionError(f"a session started {thread}")

        monkeypatch.setattr(lookup, "_pool_width", lambda: 4)
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        assert run_session(make(bits=40)).total_bits == 40
        # 4096-sample bit periods, four to a chunk
        sampled = make(bits=40, mode="sampled", estimator_segments=64)
        assert run_bit(sampled, 39).index == 39
        assert run_session(make(bits=4, mode="sampled",
                                estimator_segments=64)).total_bits == 4

    def test_sampled_rrrt_errors_are_typed(self):
        # noisy rrrt triples: a party misreads its bit, or cannot recover
        report = run_session(rrrt_config(bits=40, **SMALL_SAMPLED))
        errors = [o.error for o in report.outcomes if o.status == "error"]
        recovery_errors = tuple(cls for cls, _ in resolver.RECOVERY_FAILURES[1:])
        assert errors and all(isinstance(e, (KeyDisagreement, *recovery_errors))
                              for e in errors)
        assert all(isinstance(e, KljnError) for e in errors)
        # a kept traceback would hold the whole session's frame alive
        assert all(e.__traceback__ is None for e in errors)
        assert all(o.error is None for o in report.outcomes if o.status != "error")

    def test_sampled_rrrt_keeps_bits(self):
        # 16 levels, 4096 samples in 64 segments: every non-tie bit recovers
        cfg = rrrt_config(bits=200, master_seed=7, mode="sampled",
                          estimator_segments=64)
        outcomes = run_session(cfg).outcomes
        assert sum(o.status == STATUS_SECURE for o in outcomes) > 0
        errors = [o for o in outcomes if o.error is not None]
        assert not any(isinstance(o.error, NoPositiveRoot) for o in errors)
        assert errors and all(isinstance(o.error, KeyDisagreement) for o in errors)
        # Alice inverts her measured bit, so equal bits are unequal key bits
        assert all(o.alice_bit == o.bob_bit for o in errors)

    @pytest.mark.parametrize("make", [classic_config, vmg_config, rr_config,
                                      rrrt_config])
    @pytest.mark.parametrize("mode", ["analytic", "sampled"])
    def test_sessions_skip_the_scalar_routes(self, make, mode, monkeypatch):
        def scalar_route(*args, **kwargs):
            raise AssertionError("the session path called a scalar recovery route")

        for name in ("recover_partner", "_recover_by_quadratic"):
            monkeypatch.setattr(resolver, name, scalar_route)
        report = run_session(make(bits=12, **(SMALL_SAMPLED if mode == "sampled"
                                              else {})))
        assert sum(report.counts.values()) == 12

    def test_vmg_temperatures_solved_once_per_session(self, monkeypatch):
        calls = []
        solve = protocol.solve_vmg_temperatures
        monkeypatch.setattr(protocol, "solve_vmg_temperatures",
                            lambda *a, **kw: calls.append(1) or solve(*a, **kw))
        cfg = vmg_config(bits=120)
        report = run_session(cfg)
        assert len(calls) == 1
        record = eve_guess_session(cfg, "nearest-class", report=report)
        assert record.n == report.counts[STATUS_SECURE] > 0
        assert len(calls) == 2
