"""End-to-end command-line tests: exit codes, outputs, determinism."""

import csv
import io
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from kljn import cli, lookup, protocol
from kljn.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from kljn.config import load_config
from kljn.errors import KljnError
from kljn.protocol import build_lookup_table
from kljn.report import read_report, write_report

BASE = {
    "bits": 40, "master_seed": 7, "bandwidth_hz": 1.0,
    "sample_rate_hz": 4.0, "samples_per_bit": 4096,
    "normalized_units": True,
}


def config_file(tmp_path, name="config.json", **fields):
    body = {**BASE, **fields}
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def fresh_main(argv, module, width=None):
    """`main(argv)`'s exit code in a fresh interpreter, its threads pinned
    to `width` if given, and whether it left `module` imported."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    script = ("import sys; from kljn import lookup; from kljn.cli import main; "
              + (f"lookup._pool_width = lambda: {width}; " if width else "")
              + f"code = main({argv!r}); print(code, {module!r} in sys.modules)")
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    code, imported = done.stdout.split()
    return int(code), imported == "True"


@pytest.fixture
def classic_cfg(tmp_path):
    return config_file(tmp_path, variant="classic-kljn",
                       r_low=1000.0, r_high=2000.0, t_eff=300.0)


@pytest.fixture
def vmg_cfg(tmp_path):
    return config_file(tmp_path, variant="vmg-kljn", t_eff=300.0,
                       vmg_resistors=[1000.0, 2000.0, 3000.0, 4000.0])


@pytest.fixture
def rrrt_cfg(tmp_path):
    return config_file(tmp_path, variant="rrrt-kljn",
                       r_range=[1000.0, 2000.0], r_levels=8,
                       t_range=[200.0, 400.0], t_levels=8)


class TestSimulate:
    def test_writes_report_and_summary_line(self, classic_cfg, tmp_path, capsys):
        out = tmp_path / "session.csv"
        assert main(["simulate", "--config", classic_cfg,
                     "--out", str(out)]) == EXIT_OK
        printed = capsys.readouterr().out
        assert "efficiency=" in printed and "eve[" in printed
        report = read_report(out)
        assert len(report.rows) == 40
        assert report.summary["variant"] == "classic-kljn"

    @pytest.mark.parametrize("fields", [
        dict(variant="classic-kljn", r_low=1000, r_high=2000, t_eff=300),
        dict(variant="vmg-kljn", vmg_resistors=[1000, 2000, 1200, 2500], t_eff=300),
        dict(variant="rr-kljn", r_range=[1000, 2000], r_levels=2, t_eff=300),
    ], ids=["classic", "vmg", "rr"])
    def test_draws_written_as_their_states_hold_them(self, tmp_path, fields):
        # integer config values stay integers in the drawn states
        # (classic: 2000,300, not 2000.0,300.0); the attack indexes the
        # same secure bits
        cfg = config_file(tmp_path, **fields)
        session, attack = tmp_path / "session.csv", tmp_path / "attack.csv"
        for command, out in (("simulate", session), ("attack", attack)):
            assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_OK
        written = [[f"{s.resistance},{s.temperature}" for s in party]
                   for party in protocol.party_states(load_config(cfg)[0])]
        if fields["variant"] == "classic-kljn":
            assert written == [["1000,300", "2000,300"]] * 2
        lines = session.read_text().splitlines()
        rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
        assert len(rows) == 40
        for row in rows:
            assert ",".join(row[2:4]) in written[0] and ",".join(row[4:6]) in written[1]
        assert [r["index"] for r in read_report(attack).rows] == [
            int(row[0]) for row in rows if row[9] == "secure"]

    def test_quiet_suppresses_stdout(self, classic_cfg, capsys):
        assert main(["simulate", "--config", classic_cfg, "--quiet"]) == EXIT_OK
        assert capsys.readouterr().out == ""

    def test_seed_override_changes_session(self, classic_cfg, tmp_path):
        outs = []
        for seed in ("1", "2"):
            out = tmp_path / f"s{seed}.csv"
            main(["simulate", "--config", classic_cfg, "--seed", seed,
                  "--out", str(out), "--quiet"])
            outs.append(read_report(out))
        assert outs[0].summary["master_seed"] == 1
        assert outs[0].rows != outs[1].rows

    @pytest.mark.parametrize("failing, first", [({0, 2}, 0), ({1, 2}, 1)],
                             ids=["calling-thread", "helper"])
    def test_first_failing_sampled_part_raises_after_the_join(
            self, tmp_path, capsys, monkeypatch, failing, first):
        # 40 bits of 4096 samples, one to a chunk, on three threads: parts
        # from bits 0 (the calling thread's), 13 and 26.  Part 2 fails
        # first, but part `first`'s error is the one raised
        monkeypatch.setattr(lookup, "_pool_width", lambda: 3)
        monkeypatch.setattr(protocol, "_CHUNK_SAMPLES", 4096)
        part_of, part_2_failed = {}, threading.Event()
        noise_generators, synthesize = protocol._noise_generators, protocol.synthesize_traces

        def recorded_noise_generators(config, indices):
            part_of[threading.current_thread()] = {0: 0, 13: 1, 26: 2}[indices[0]]
            return noise_generators(config, indices)

        def failing_synthesize(*args, **kwargs):
            part = part_of[threading.current_thread()]
            if part in failing:
                if part == 2:
                    part_2_failed.set()
                else:
                    assert part_2_failed.wait(10), "part 2 never failed"
                raise KljnError(f"part {part} failed")
            return synthesize(*args, **kwargs)

        monkeypatch.setattr(protocol, "_noise_generators", recorded_noise_generators)
        monkeypatch.setattr(protocol, "synthesize_traces", failing_synthesize)
        cfg = config_file(tmp_path, variant="classic-kljn", r_low=1000.0,
                          r_high=2000.0, t_eff=300.0, mode="sampled",
                          estimator_segments=64)
        threads = threading.active_count()
        assert main(["simulate", "--config", cfg, "--quiet"]) == EXIT_RUNTIME
        assert capsys.readouterr().err == f"error: part {first} failed\n"
        assert threading.active_count() == threads
        assert sorted(part_of.values()) == [0, 1, 2]

    def test_sampled_simulate_leaves_concurrent_futures_unimported(self, rrrt_cfg,
                                                                    tmp_path):
        # a sampled session's and a table build's helper threads are plain
        # threads: the import would cost about 0.6 MB
        cfg = config_file(tmp_path, "sampled.json", variant="classic-kljn", r_low=1000.0,
                          r_high=2000.0, t_eff=300.0, mode="sampled",
                          estimator_segments=64)
        for argv in (["simulate", "--config", cfg, "--quiet"],
                     ["table", "--config", rrrt_cfg, "--out",
                      str(tmp_path / "table.csv"), "--quiet"]):
            assert fresh_main(argv, "concurrent.futures", width=2) == (EXIT_OK, False)

    def test_deterministic_given_seed(self, rrrt_cfg, tmp_path):
        texts = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            main(["simulate", "--config", rrrt_cfg, "--out", str(out),
                  "--quiet"])
            texts.append(out.read_text())
        assert texts[0] == texts[1]


class TestAttack:
    def test_classic_pair_table(self, classic_cfg, tmp_path):
        out = tmp_path / "attack.csv"
        assert main(["attack", "--config", classic_cfg, "--out", str(out),
                     "--quiet"]) == EXIT_OK
        report = read_report(out)
        assert report.columns == ["index", "r_pair_low", "r_pair_high",
                                  "degenerate"]
        assert report.rows  # one row per secure bit
        for row in report.rows:
            assert row["r_pair_low"] == pytest.approx(1000.0, rel=1e-9)
            assert row["r_pair_high"] == pytest.approx(2000.0, rel=1e-9)
        lo = report.summary["eve_wilson99_low"]
        hi = report.summary["eve_wilson99_high"]
        assert lo <= 0.5 <= hi or report.summary["secure_bits"] < 30

    def test_rrrt_family_table(self, rrrt_cfg, tmp_path):
        out = tmp_path / "family.csv"
        assert main(["attack", "--config", rrrt_cfg, "--out", str(out),
                     "--quiet"]) == EXIT_OK
        report = read_report(out)
        assert "implied_alpha" in report.columns
        by_index = {}
        for row in report.rows:
            assert row["residual"] < 1e-9
            by_index.setdefault(row["index"], set()).add(
                row["implied_alice_bit"])
        # every attacked bit admits both assignments somewhere in its family
        assert any({"L", "H"} <= bits for bits in by_index.values())


    def test_vmg_class_table(self, vmg_cfg, tmp_path):
        out = tmp_path / "attack.csv"
        assert main(["attack", "--config", vmg_cfg, "--out", str(out),
                     "--quiet"]) == EXIT_OK
        report = read_report(out)
        assert report.columns == ["index", "eve_class"]
        assert len(report.rows) == report.summary["secure_bits"] > 0
        # LH and HL give one wire triple: every secure bit is ambiguous
        assert {row["eve_class"] for row in report.rows} == {"LH-or-HL"}

    @pytest.mark.parametrize("fields", [
        pytest.param({"variant": "classic-kljn", "r_low": 1000.0,
                      "r_high": 2000.0}, id="classic"),
        pytest.param({"variant": "rr-kljn", "r_range": [1000.0, 2000.0],
                      "r_levels": 16}, id="rr"),
    ])
    def test_sampled_pair_table(self, tmp_path, fields):
        cfg = config_file(tmp_path, mode="sampled", estimator_segments=64,
                          t_eff=300.0, **fields)
        out = tmp_path / "attack.csv"
        assert main(["attack", "--config", cfg, "--out", str(out),
                     "--quiet"]) == EXIT_OK
        report = read_report(out)
        indices = [row["index"] for row in report.rows]
        assert len(set(indices)) == len(indices) == report.summary["secure_bits"] > 0
        for row in report.rows:
            # a bit whose noisy triple admits no pair has only its index
            cells = [row[c] for c in report.columns[1:]]
            assert cells.count(None) in (0, len(cells))

    def test_vmg_temperatures_solved_per_session(self, tmp_path, monkeypatch):
        calls = []
        solve = protocol.solve_vmg_temperatures
        monkeypatch.setattr(protocol, "solve_vmg_temperatures",
                            lambda *a, **kw: calls.append(1) or solve(*a, **kw))
        cfg = config_file(tmp_path, variant="vmg-kljn", t_eff=300.0, bits=200,
                          vmg_resistors=[1000.0, 2000.0, 1200.0, 2500.0])
        assert main(["attack", "--config", cfg, "--quiet"]) == EXIT_OK
        # the session, Eve's guesses and her class table: not once per bit
        assert len(calls) == 3

    def test_empty_attack_round_trips(self, tmp_path):
        cfg = config_file(tmp_path, variant="classic-kljn", r_low=1000.0,
                          r_high=2000.0, t_eff=300.0, bits=0)
        out = tmp_path / "attack.csv"
        assert main(["attack", "--config", cfg, "--out", str(out),
                     "--quiet"]) == EXIT_OK
        report = read_report(out)
        assert report.summary["eve_accuracy"] is None
        copy = tmp_path / "copy.csv"
        write_report(report, copy)
        assert copy.read_bytes() == out.read_bytes()


class TestVmgSolve:
    def test_prints_triple_and_residual(self, vmg_cfg, capsys):
        assert main(["vmg-solve", "--config", vmg_cfg]) == EXIT_OK
        printed = capsys.readouterr().out
        assert "t_ah=225.0" in printed
        assert "t_bl=100.0" in printed
        assert "t_bh=112.5" in printed

    def test_csv_output(self, vmg_cfg, tmp_path):
        out = tmp_path / "vmg.csv"
        main(["vmg-solve", "--config", vmg_cfg, "--out", str(out), "--quiet"])
        report = read_report(out)
        assert report.rows[0]["t_ah"] == 225.0
        assert report.rows[0]["residual"] < 1e-12

    def test_wrong_variant_is_config_error(self, classic_cfg, capsys):
        assert main(["vmg-solve", "--config", classic_cfg]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err


class TestTable:
    def test_dump(self, rrrt_cfg, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["table", "--config", rrrt_cfg, "--out", str(out),
                     "--quiet"]) == EXIT_OK
        report = read_report(out)
        assert report.summary["settings"] == (8 * 8) ** 2
        assert sum(row["size"] for row in report.rows) == (8 * 8) ** 2
        assert 0.0 <= report.summary["singular_fraction"] <= 1.0

    def test_member_lists_match_cell_members(self, rrrt_cfg, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["table", "--config", rrrt_cfg, "--out", str(out),
                     "--quiet"]) == EXIT_OK
        table = build_lookup_table(load_config(rrrt_cfg)[0])
        rows = read_report(out).rows
        assert len(rows) == table.n_cells
        for row in rows:
            members = [int(m) for m in str(row["members"]).split(";")]
            assert members == np.flatnonzero(table.combo_cells == row["cell"]).tolist()

    def test_large_dump_matches_csv_writer(self, tmp_path):
        # 32 levels: over _MEMBER_DUMP_LIMIT, so no members column and the
        # integer rows take write_csv's array path
        cfg = config_file(tmp_path, variant="rrrt-kljn",
                          r_range=[1000.0, 2000.0], r_levels=32,
                          t_range=[200.0, 400.0], t_levels=32)
        out = tmp_path / "table.csv"
        assert main(["table", "--config", cfg, "--out", str(out),
                     "--quiet"]) == EXIT_OK
        table = build_lookup_table(load_config(cfg)[0])
        assert table.n_settings > cli._MEMBER_DUMP_LIMIT
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["cell", "size", "singular"])
        writer.writerows(zip(range(table.n_cells), table.cell_sizes.tolist(),
                             table.cell_singular.astype(int).tolist()))
        lines = out.read_text().splitlines(keepends=True)
        # line lists, so that a failure reports the first differing row
        assert [line for line in lines if not line.startswith("#")] == \
            expected.getvalue().splitlines(keepends=True)

    def test_too_narrow_cells_exit_2(self, tmp_path, capsys):
        cfg = config_file(tmp_path, variant="rrrt-kljn",
                          r_range=[1000.0, 2000.0], r_levels=16,
                          t_range=[200.0, 400.0], t_levels=16,
                          degeneracy_tolerance=1e-5)
        assert main(["table", "--config", cfg, "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "1e-05" in err

    def test_too_narrow_cells_fail_the_rr_table_but_not_its_session(self, tmp_path,
                                                                    capsys):
        # an rr session discards ties only, so its cell width is never keyed
        cfg = config_file(tmp_path, variant="rr-kljn", r_range=[1000.0, 2000.0],
                          r_levels=16, t_eff=300.0, degeneracy_tolerance=1e-7)
        for command in ("simulate", "attack"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / f"{command}.csv"),
                         "--quiet"]) == EXIT_OK
        assert main(["table", "--config", cfg, "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "too narrow" in err

    @pytest.mark.parametrize("command", ["table", "simulate"])
    def test_rrrt_commands_leave_numpy_ma_unimported(self, rrrt_cfg, tmp_path, command):
        # numpy 2.4's np.unique without return_inverse imports numpy.ma
        assert fresh_main([command, "--config", rrrt_cfg, "--out",
                           str(tmp_path / "out.csv"), "--quiet"],
                          "numpy.ma") == (EXIT_OK, False)

    def test_too_narrow_cells_on_a_later_block_exit_2(self, tmp_path, capsys,
                                                      monkeypatch):
        # four resistance pairs per block: the first 6 of the 7 mirrored
        # blocks keep their indices in the key range, the 7th does not,
        # so the error fires after the 6th block is keyed (one thread)
        monkeypatch.setattr(lookup, "_pool_width", lambda: 1)
        monkeypatch.setattr(lookup, "_BLOCK_SETTINGS", 16)
        keyed_blocks = []
        block_keys = lookup._block_keys

        def counted_block_keys(*args, **kwargs):
            keys = block_keys(*args, **kwargs)
            keyed_blocks.append(len(keys))
            return keys

        monkeypatch.setattr(lookup, "_block_keys", counted_block_keys)
        cfg = config_file(tmp_path, variant="rrrt-kljn",
                          r_range=[1.0, 1e5], r_levels=8,
                          t_range=[1.0, 2.0], t_levels=2,
                          degeneracy_tolerance=1e-5)
        threads = threading.active_count()
        assert main(["table", "--config", cfg, "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "1e-05" in err
        assert "Traceback" not in err
        assert len(keyed_blocks) == 6
        assert threading.active_count() == threads

    def test_budget_exceeded_is_runtime_error(self, tmp_path, capsys):
        cfg = config_file(tmp_path, variant="rrrt-kljn",
                          r_range=[1000.0, 2000.0], r_levels=16,
                          t_range=[200.0, 400.0], t_levels=16,
                          max_combinations=100)
        assert main(["table", "--config", cfg, "--quiet"]) == EXIT_RUNTIME
        assert "refused" in capsys.readouterr().err


class TestErrorPaths:
    def test_malformed_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["simulate", "--config", str(path)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["simulate", "--config",
                     str(tmp_path / "absent.json")]) == EXIT_CONFIG

    def test_unknown_key_exits_2(self, tmp_path):
        cfg = config_file(tmp_path, variant="classic-kljn", r_low=1000.0,
                          r_high=2000.0, t_eff=300.0, typo_key=1)
        assert main(["simulate", "--config", cfg]) == EXIT_CONFIG

    @pytest.mark.parametrize("fields, name", [
        pytest.param({"t_eff": -1}, "t_eff", id="negative-t_eff"),
        pytest.param({"t_eff": 0}, "t_eff", id="zero-t_eff"),
        pytest.param({"t_eff": float("nan")}, "t_eff", id="nan-t_eff"),
        pytest.param({"r_low": 0}, "r_low", id="zero-r_low"),
        pytest.param({"r_high": float("inf")}, "r_high", id="inf-r_high"),
        pytest.param({"variant": "vmg-kljn",
                      "vmg_resistors": [1000.0, 2000.0, -5.0, 2500.0]},
                     "r_bl", id="negative-vmg-resistor"),
        pytest.param({"variant": "rr-kljn", "r_range": [1000.0, float("inf")],
                      "r_levels": 4}, "r_range", id="inf-r_range"),
        pytest.param({"variant": "rrrt-kljn", "r_range": [1000.0, 2000.0],
                      "r_levels": 4, "t_range": [200.0, float("nan")],
                      "t_levels": 4}, "t_range", id="nan-t_range"),
        pytest.param({"recovery_tolerance": float("nan")}, "recovery_tolerance",
                     id="nan-recovery_tolerance"),
        pytest.param({"recovery_tolerance": -1}, "recovery_tolerance",
                     id="negative-recovery_tolerance"),
        pytest.param({"degeneracy_tolerance": float("nan")}, "degeneracy_tolerance",
                     id="nan-degeneracy_tolerance"),
        pytest.param({"degeneracy_tolerance": 0}, "degeneracy_tolerance",
                     id="zero-degeneracy_tolerance"),
        pytest.param({"estimator_segments": 0}, "estimator_segments",
                     id="zero-estimator_segments"),
        pytest.param({"mode": "sampled", "estimator_segments": 4096},
                     "estimator_segments", id="one-sample-segments"),
        pytest.param({"bandwidth_hz": float("inf"), "sample_rate_hz": float("inf")},
                     "bandwidth", id="inf-bandwidth"),
        pytest.param({"mode": "sampled", "samples_per_bit": 64,
                      "estimator_segments": 32}, "estimator_segments",
                     id="no-in-band-bin"),
        pytest.param({"eve_strategy": "clairvoyant"}, "eve_strategy",
                     id="unknown-eve_strategy"),
        pytest.param({"eve_strategy": "pair-extraction"}, "eve_strategy",
                     id="removed-eve_strategy"),
        pytest.param({"eve_grid_points": 0}, "eve_grid_points",
                     id="zero-eve_grid_points"),
        pytest.param({"family_tolerance": -1}, "family_tolerance",
                     id="negative-family_tolerance"),
        pytest.param({"family_tolerance": float("nan")}, "family_tolerance",
                     id="nan-family_tolerance"),
        pytest.param({"master_seed": -5}, "master_seed", id="negative-master_seed"),
        # one ulp apart, the 4 levels repeat values: [1, 1, 1 + 2^-52, 1 + 2^-52]
        pytest.param({"variant": "rrrt-kljn", "bits": 200, "r_range": [1.0, 1.0000000000000002],
                      "r_levels": 4, "t_range": [200.0, 400.0], "t_levels": 8},
                     "r_range", id="one-ulp-r_range"),
        # log-spaced levels this close even fall back: no strict order
        pytest.param({"variant": "rr-kljn", "r_range": [1000.0, 1000.0 * (1 + 2.0 ** -50)],
                      "r_levels": 6}, "r_range", id="non-monotone-r_range"),
        pytest.param({"variant": "rrrt-kljn", "r_range": [1000.0, 2000.0], "r_levels": 4,
                      "t_range": [200.0, 200.00000000000003], "t_levels": 4},
                     "t_range", id="one-ulp-t_range"),
        *(pytest.param({"variant": "rrrt-kljn", "r_range": [1000.0, 2000.0],
                        "r_levels": 4, "t_range": [200.0, 400.0], "t_levels": 4,
                        "max_combinations": budget}, "max_combinations",
                       id=f"max_combinations-{budget}") for budget in (0, -1)),
    ])
    def test_bad_physical_input_exits_2(self, tmp_path, capsys, fields, name):
        # json writes nan and inf as the NaN / Infinity tokens it also reads
        cfg = config_file(tmp_path, **{"variant": "classic-kljn",
                                       "r_low": 1000.0, "r_high": 2000.0,
                                       "t_eff": 300.0, **fields})
        assert main(["simulate", "--config", cfg, "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and name in err

    def test_negative_seed_flag_exits_2(self, classic_cfg, capsys):
        assert main(["simulate", "--config", classic_cfg, "--seed", "-1",
                     "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "master_seed" in err
