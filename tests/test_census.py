"""The per-bit cell census against the look-up table it replaces on the
rrrt session path, and the sessions it lets run without a table."""

import json
import threading

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from kljn import (
    NORMALIZED,
    SI,
    BandConfig,
    ConfigError,
    ProtocolConfig,
    build_lookup_table,
    lookup,
    protocol,
    run_bit,
    run_session,
)
from kljn.cli import EXIT_OK, EXIT_RUNTIME, main
from kljn.protocol import STATUS_SINGULAR
from kljn.report import read_report

BAND = BandConfig(bandwidth_hz=1.0, sample_rate_hz=4.0, samples_per_bit=4096)


def rr_config(**overrides):
    base = dict(variant="rr-kljn", band=BAND, bits=50, master_seed=13,
                r_range=(1000.0, 2000.0), r_levels=16, t_eff=300.0,
                constants=NORMALIZED)
    return ProtocolConfig(**{**base, **overrides})


def rrrt_config(**overrides):
    base = dict(variant="rrrt-kljn", band=BAND, bits=50, master_seed=14,
                r_range=(1000.0, 2000.0), r_levels=16,
                t_range=(200.0, 400.0), t_levels=16, constants=NORMALIZED)
    return ProtocolConfig(**{**base, **overrides})


def census(cfg, settings):
    return lookup.cell_census(cfg.resistance_grid(), cfg.temperature_grid(),
                              cfg.band.bandwidth_hz, cfg.constants,
                              cfg.degeneracy_tolerance, *settings)


def grid_settings(cfg):
    """Every joint setting, row-major over (r_a, t_a, r_b, t_b) levels."""
    r_grid, t_grid = cfg.resistance_grid(), cfg.temperature_grid()
    r_party, t_party = np.repeat(r_grid, len(t_grid)), np.tile(t_grid, len(r_grid))
    n = len(r_party)
    a, b = np.repeat(np.arange(n), n), np.tile(np.arange(n), n)
    return r_party[a], t_party[a], r_party[b], t_party[b]


def drawn_settings(cfg):
    """The settings a session draws, ties included."""
    alice, bob = run_session(cfg).draws
    return [np.array([getattr(state, name) for state in party])
            for party in (alice, bob) for name in ("resistance", "temperature")]


def assert_census_is_the_table(cfg, table, settings, cells):
    singular, sizes = census(cfg, settings)
    assert sizes.dtype == table.cell_sizes.dtype
    np.testing.assert_array_equal(sizes, table.cell_sizes[cells])
    np.testing.assert_array_equal(singular, table.cell_singular[cells])


@pytest.mark.parametrize("levels", [8, 16, 32, 64])
def test_census_matches_the_table_on_every_drawn_bit(levels):
    # the criterion-8 sessions: seed 108, width 0.01, 1000 bits
    cfg = rrrt_config(bits=1000, master_seed=108, r_levels=levels,
                      t_levels=levels, degeneracy_tolerance=0.01)
    table = build_lookup_table(cfg)
    settings = drawn_settings(cfg)
    assert_census_is_the_table(cfg, table, settings, table.cell_indices(*settings))


@pytest.mark.parametrize("cfg", [
    rr_config(r_levels=16),
    rrrt_config(r_levels=6, t_levels=5, degeneracy_tolerance=0.02),
    rrrt_config(r_levels=8, t_levels=8),
    # a single temperature at the sessions benchmark's resolution
    rr_config(r_levels=64, t_eff=300.0),
], ids=["rr-16", "rrrt-6x5-w0.02", "rrrt-8x8", "rr-64"])
def test_census_matches_the_table_on_every_setting(cfg):
    table = build_lookup_table(cfg)
    assert_census_is_the_table(cfg, table, grid_settings(cfg), table.combo_cells)


def rr_example(si_units, bandwidth_hz):
    return example(variant="rr-kljn", r_low=900.0, r_span=0.7, t_low=290.0,
                   t_span=0.5, r_levels=9, t_levels=2, width_exponent=-2.5,
                   seed=5, si_units=si_units, bandwidth_hz=bandwidth_hz)


@settings(max_examples=40)
@given(variant=st.sampled_from(["rr-kljn", "rrrt-kljn"]),
       r_low=st.floats(1.0, 1e4), r_span=st.floats(1e-3, 2.0),
       t_low=st.floats(1.0, 1e3), t_span=st.floats(1e-3, 1.0),
       r_levels=st.integers(2, 10), t_levels=st.integers(2, 10),
       width_exponent=st.floats(-4.0, -0.5), seed=st.integers(0, 2 ** 16),
       si_units=st.booleans(), bandwidth_hz=st.sampled_from([1.0, 1000.0]))
@rr_example(False, 1.0)
@rr_example(False, 1000.0)
@rr_example(True, 1.0)
@rr_example(True, 1000.0)
def test_census_matches_the_table_on_random_grids(
        variant, r_low, r_span, t_low, t_span, r_levels, t_levels,
        width_exponent, seed, si_units, bandwidth_hz):
    # spans are decades above the low end
    fields = dict(variant=variant, bits=200, master_seed=seed,
                  band=BandConfig(bandwidth_hz, 4.0 * bandwidth_hz, 4096),
                  r_range=(r_low, r_low * 10 ** r_span), r_levels=r_levels,
                  degeneracy_tolerance=10 ** width_exponent,
                  constants=SI if si_units else NORMALIZED)
    if variant == "rr-kljn":
        fields["t_eff"] = t_low
    else:
        fields.update(t_range=(t_low, t_low * 10 ** t_span), t_levels=t_levels)
    cfg = ProtocolConfig(**fields)
    if variant == "rr-kljn":  # whether or not the width fits the key range
        assert STATUS_SINGULAR not in run_session(cfg).counts
    try:
        table = build_lookup_table(cfg)
    except ConfigError:  # a width too narrow for the key range
        assume(False)
    assert_census_is_the_table(cfg, table, grid_settings(cfg), table.combo_cells)
    settings = drawn_settings(cfg)
    assert_census_is_the_table(cfg, table, settings, table.cell_indices(*settings))
    if variant == "rr-kljn":  # singular cells hold ties only
        r_a, _, r_b, _ = grid_settings(cfg)
        singular = table.cell_singular[table.combo_cells]
        np.testing.assert_array_equal(r_a[singular], r_b[singular])


def test_census_of_no_settings():
    singular, sizes = census(rrrt_config(), [np.empty(0)] * 4)
    assert singular.shape == sizes.shape == (0,)


def config_file(tmp_path, cfg, **extra):
    body = {"variant": cfg.variant, "bits": cfg.bits, "master_seed": cfg.master_seed,
            "mode": cfg.mode, "bandwidth_hz": cfg.band.bandwidth_hz,
            "sample_rate_hz": cfg.band.sample_rate_hz,
            "samples_per_bit": cfg.band.samples_per_bit,
            "estimator_segments": cfg.estimator_segments,
            "r_range": list(cfg.r_range), "r_levels": cfg.r_levels,
            "degeneracy_tolerance": cfg.degeneracy_tolerance,
            "normalized_units": True, **extra}
    if cfg.variant == "rr-kljn":
        body["t_eff"] = cfg.t_eff
    else:
        body.update(t_range=list(cfg.t_range), t_levels=cfg.t_levels)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(body))
    return str(path)


def mode_fields(mode):
    return (dict(mode="sampled", band=BandConfig(1.0, 4.0, 1000), estimator_segments=8)
            if mode == "sampled" else {})


@pytest.mark.parametrize("make", [rr_config, rrrt_config])
@pytest.mark.parametrize("mode", ["analytic", "sampled"])
def test_sessions_build_no_table(make, mode, monkeypatch, tmp_path):
    def no_table(*args, **kwargs):
        raise AssertionError("the session path built a look-up table")

    monkeypatch.setattr(lookup, "build_table", no_table)
    monkeypatch.setattr(protocol, "build_table", no_table)
    cfg = make(bits=12, **mode_fields(mode))
    report = run_session(cfg)
    assert sum(report.counts.values()) == 12
    assert repr(run_bit(cfg, 5)) == repr(report.outcome(5))
    path = config_file(tmp_path, cfg)
    for command in ("simulate", "attack"):
        assert main([command, "--config", path, "--out",
                     str(tmp_path / f"{command}.csv"), "--quiet"]) == EXIT_OK


@pytest.mark.parametrize("make", [rr_config, rrrt_config])
@pytest.mark.parametrize("mode", ["analytic", "sampled"])
def test_only_rrrt_sessions_take_the_census(make, mode, monkeypatch, tmp_path):
    # at one temperature no cell but a tie's is singular, so an rr
    # session has nothing to ask the census
    censused = []
    census_of = lookup.cell_census

    def spy(*args):
        censused.append(len(args[-1]))
        return census_of(*args)

    monkeypatch.setattr(lookup, "cell_census", spy)
    monkeypatch.setattr(protocol, "cell_census", spy)
    cfg = make(bits=40, **mode_fields(mode))
    report = run_session(cfg)
    run_bit(cfg, 5)
    assert main(["simulate", "--config", config_file(tmp_path, cfg), "--out",
                 str(tmp_path / "session.csv"), "--quiet"]) == EXIT_OK
    if make is rr_config:
        assert censused == []
        assert STATUS_SINGULAR not in report.counts
    else:
        assert len(censused) == 3 and censused[0] > 0


def test_fine_grid_session_runs_past_the_table_budget(tmp_path):
    # 128 levels: 128^4 settings are over the default max_combinations,
    # which now bounds only `kljn table`
    cfg = rrrt_config(bits=1000, master_seed=108, r_levels=128, t_levels=128,
                      degeneracy_tolerance=0.01)
    assert (128 * 128) ** 2 > cfg.max_combinations
    path = config_file(tmp_path, cfg)
    out = tmp_path / "session.csv"
    assert main(["simulate", "--config", path, "--out", str(out), "--quiet"]) == EXIT_OK
    assert read_report(out).summary["efficiency"] > 0.98
    assert main(["table", "--config", path, "--quiet"]) == EXIT_RUNTIME


WIDE_CELLS = [
    rrrt_config(r_levels=16, t_levels=16, degeneracy_tolerance=0.3),
    rrrt_config(r_levels=32, t_levels=32, degeneracy_tolerance=0.1),
    rr_config(r_levels=64, degeneracy_tolerance=0.5),
]


@pytest.mark.parametrize("cfg", WIDE_CELLS, ids=["rrrt-16-w0.3", "rrrt-32-w0.1", "rr-64-w0.5"])
def test_census_matches_the_table_on_wide_cells(cfg):
    # the median setting shares its cell with over 1000 others, so the
    # census runs few distinct cells whose candidates span many pieces
    table = build_lookup_table(cfg)
    assert np.median(table.cell_sizes[table.combo_cells]) > 1000
    assert_census_is_the_table(cfg, table, grid_settings(cfg), table.combo_cells)


def test_census_pieces_do_not_change_the_verdict(monkeypatch):
    # pieces of 7 values cut every stage between and within cells, and
    # one cell runs per chunk of (cell, R_A) bounds
    cfg = rrrt_config(r_levels=8, t_levels=6, degeneracy_tolerance=0.05)
    table = build_lookup_table(cfg)
    monkeypatch.setattr(lookup, "_CENSUS_PIECE", 7)
    assert_census_is_the_table(cfg, table, grid_settings(cfg), table.combo_cells)


@pytest.mark.parametrize("width", [1, 2, 3])
@pytest.mark.parametrize("cfg, stride", [
    (rrrt_config(r_levels=8, t_levels=6, degeneracy_tolerance=0.05), 1),
    *((cfg, (cfg.r_levels * len(cfg.temperature_grid())) ** 2 // 64) for cfg in WIDE_CELLS),
], ids=["rrrt-8x6-w0.05", "rrrt-16-w0.3", "rrrt-32-w0.1", "rr-64-w0.5"])
def test_census_parts_do_not_change_the_verdict(cfg, stride, width, monkeypatch):
    # pieces of 7 values make one cell per chunk, so the chunks spread
    # over every part; every `stride`-th setting keeps the wide grids quick
    table = build_lookup_table(cfg)
    settings = [values[::stride] for values in grid_settings(cfg)]
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda thread: started.append(thread) or start(thread))
    monkeypatch.setattr(lookup, "_CENSUS_PIECE", 7)
    monkeypatch.setattr(lookup, "_pool_width", lambda: width)
    assert_census_is_the_table(cfg, table, settings, table.combo_cells[::stride])
    assert len(started) == width - 1


def test_census_of_one_chunk_starts_no_thread(monkeypatch):
    # the size of the sessions benchmark's rrrt session: 200 bits at 16
    # levels draw at most 200 cells, one chunk of 2^14 // 16 cells
    cfg = rrrt_config(bits=200, master_seed=7, degeneracy_tolerance=0.01)
    settings = drawn_settings(cfg)

    def no_thread(thread):
        raise AssertionError(f"a one-chunk census started {thread}")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    monkeypatch.setattr(lookup, "_pool_width", lambda: 2)
    assert lookup._CENSUS_PIECE // cfg.r_levels >= cfg.bits
    singular, sizes = census(cfg, settings)
    assert len(sizes) == cfg.bits and (sizes > 0).all()


def test_keys_outside_the_key_range_raise_or_drop():
    # k = 1, equal resistances: s_u = s_i = 2 T, so T = 0.5 has index 0
    # and T = 1000 has index ln(2000) / 1e-7, far beyond 2^20
    r, t = np.ones(2), np.array([0.5, 1000.0])
    args = (r, t, r, t, 1.0, 1.0, 1e-7, 1.0)
    with pytest.raises(ConfigError, match="too narrow"):
        lookup._block_keys(*args)
    keys = lookup._block_keys(*args, drop_outside=True)
    assert keys[1] == -1
    assert keys[0] == lookup._block_keys(r[:1], t[:1], r[:1], t[:1], *args[4:])
