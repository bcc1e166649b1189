"""End-to-end command-line tests: exit codes, outputs, determinism."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from kljn import NORMALIZED, adversary, cli, lookup, physics, protocol, report
from kljn.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from kljn.config import load_config
from kljn.errors import InconsistentObservables, KljnError, ModelMismatch
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
        # 40 bits of 4096 samples, one to a chunk, on three threads: part p
        # (part 0 the calling thread's) takes bits p, p + 3, ...  Part 2
        # fails first, but part `first`'s error is the one raised
        monkeypatch.setattr(lookup, "_pool_width", lambda: 3)
        monkeypatch.setattr(protocol, "_CHUNK_SAMPLES", 4096)
        part_of, part_2_failed = {}, threading.Event()
        run_parts, synthesize = lookup._run_parts, protocol.synthesize_traces

        def recorded_run_parts(width, items, task):
            def recorded_task(p, item):
                part_of[threading.current_thread()] = p
                return task(p, item)
            return run_parts(width, items, recorded_task)

        def failing_synthesize(*args, **kwargs):
            part = part_of[threading.current_thread()]
            if part in failing:
                if part == 2:
                    part_2_failed.set()
                else:
                    assert part_2_failed.wait(10), "part 2 never failed"
                raise KljnError(f"part {part} failed")
            return synthesize(*args, **kwargs)

        monkeypatch.setattr(lookup, "_run_parts", recorded_run_parts)
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


    @pytest.mark.parametrize("fields", [
        # a two-point grid and a residual bound below rounding leave some
        # secure bits without a family
        dict(variant="rrrt-kljn", r_range=[1000.0, 2000.0], r_levels=16,
             t_range=[200.0, 400.0], t_levels=16, eve_grid_points=2,
             family_tolerance=1e-17),
        dict(variant="vmg-kljn", vmg_resistors=[1000.0, 2000.0, 1200.0, 2500.0],
             t_eff=300.0),
        dict(variant="rr-kljn", r_range=[1000.0, 2000.0], r_levels=16, t_eff=300.0),
    ], ids=["rrrt", "vmg", "rr"])
    def test_prints_the_table_row_count(self, tmp_path, capsys, fields):
        cfg = config_file(tmp_path, **{**fields, "bits": 200})
        out = tmp_path / "attack.csv"
        assert main(["attack", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rows = read_report(out).rows
        assert capsys.readouterr().out.endswith(f" table_rows={len(rows)}\n")
        if fields["variant"] == "rrrt-kljn":  # two-point families and empty rows
            empty = [row for row in rows if row["residual"] is None]
            assert empty and all(set(row.values()) == {row["index"], None} for row in empty)
            assert len(rows) > len({row["index"] for row in rows})

    def test_family_rows_match_the_points(self, tmp_path):
        # one row per family point, as the one-triple sweep's points give
        # them, and one empty row in place for a bit with no family; at
        # alpha == 1.0 (assumed R_A 1000 on an R_A = R_B = 1000 triple) the
        # implied bit is a tie, an empty cell
        config = load_config(config_file(
            tmp_path, variant="rrrt-kljn", r_range=[1000.0, 2000.0], r_levels=4,
            t_range=[200.0, 400.0], t_levels=4))[0]
        settings = [np.array(column) for column in zip(
            (1000.0, 250.0, 1000.0, 380.0), (1200.0, 300.0, 1700.0, 220.0),
            (1500.0, 250.0, 1100.0, 390.0))]
        observables = list(physics.analytic_observable_arrays(*settings, 1.0, 1.0))
        observables[0][1] = 0.0  # a spectrum no loop gives: no family
        columns, rows = cli._attack_rows(config, {"eve_grid_points": 2}, [4, 9, 17],
                                         observables)
        out = tmp_path / "attack.csv"
        report.write_csv(columns, rows, {}, out)
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(columns)
        grid = adversary.default_assumed_grid(config, 2)
        for index, triple in zip([4, 9, 17], zip(*(c.tolist() for c in observables))):
            view = adversary.EveView(physics.WireObservables(*triple), 1.0)
            try:
                family = adversary.eve_rrrt_solution_family(view, grid, 1e-9, NORMALIZED)
            except InconsistentObservables:
                family = []
            writer.writerows([(index, p.assumed_r_a, p.implied_t_a, p.implied_alpha,
                               p.implied_beta, p.implied_alice_bit(), p.residual)
                              for p in family] or [(index,) + (None,) * 6])
        assert out.read_text() == expected.getvalue()
        assert "4,1000.0,250.0,1.0,1.52,,0.0\n" in out.read_text()
        assert "\n9,,,,,,\n" in out.read_text()

    @pytest.mark.parametrize("code, triple", [
        (1, (None, None, 1.0)),  # the fitted pair's spectra, but a power flow
        (2, (1.0, 0.0, 0.0)),
        (3, (1e12, 0.4, 0.0)),
        (4, (5e-324, 1.0, 0.0)),  # the product underflows: a zero root
    ], ids=["power-flow", "zero-s_i", "negative-discriminant", "zero-root"])
    def test_pair_rows_empty_only_the_failing_lane(self, tmp_path, code, triple):
        # a failing lane between two fitted pairs gets empty cells, its
        # neighbours the pairs the one-lane wrapper extracts alone, and the
        # wrapper raises the error class of the lane's code
        config = load_config(config_file(tmp_path, variant="rr-kljn", r_range=[1000.0, 2000.0],
                                         r_levels=4, t_eff=300.0))[0]
        fitted = [np.array(column) for column in physics.analytic_observable_arrays(
            np.array([1000.0, 1500.0]), 300.0, np.array([2000.0, 1100.0]), 300.0, 1.0, 1.0)]
        triple = tuple(fitted[k][0] if value is None else value
                       for k, value in enumerate(triple))
        observables = [np.array([good[0], bad, good[1]]) for good, bad in zip(fitted, triple)]
        tolerance = config.effective_recovery_tolerance()
        *_, failure = adversary.eve_pair_extractions(observables, 1.0, 300.0, NORMALIZED,
                                                     tolerance)
        assert failure.tolist() == [0, code, 0]
        columns, rows = cli._attack_rows(config, {}, [3, 8, 12], observables)
        out = tmp_path / "attack.csv"
        report.write_csv(columns, rows, {}, out)
        pairs = [adversary.eve_pair_extraction(
            adversary.EveView(physics.WireObservables(*(column[j] for column in fitted)), 1.0),
            300.0, NORMALIZED, tolerance) for j in range(2)]
        assert [value for pair in pairs for value in pair[:2]] == pytest.approx(
            [1000.0, 2000.0, 1100.0, 1500.0], rel=1e-12)
        assert out.read_text() == "".join([
            "index,r_pair_low,r_pair_high,degenerate\n",
            f"3,{pairs[0].low!r},{pairs[0].high!r},0\n", "8,,,\n",
            f"12,{pairs[1].low!r},{pairs[1].high!r},0\n"])
        error = ModelMismatch if code == 1 else InconsistentObservables
        assert adversary.PAIR_FAILURES[code][0] is error
        with pytest.raises(error):
            adversary.eve_pair_extraction(adversary.EveView(
                physics.WireObservables(*triple), 1.0), 300.0, NORMALIZED, tolerance)

    @pytest.mark.parametrize("fields, digest", [
        (dict(bits=200, r_levels=64),
         "3d47142c94f8c7eabb2d5a3a2e96ca5fb8d13c95003c751b268d974a1a84498a"),
        (dict(bits=60, r_levels=16, samples_per_bit=1024, mode="sampled",
              estimator_segments=16),
         "4fdb1b3954da3dcdcaba28a45c9bd98878cfe532b3a79f789e5e3952acd6b42d"),
    ], ids=["analytic", "sampled"])
    def test_rr_attack_csv_is_frozen(self, tmp_path, fields, digest):
        # frozen regression digests of the one CLI path through Eve's pair
        # pass; 14 of the sampled session's secure bits get empty cells
        cfg = config_file(tmp_path, variant="rr-kljn", r_range=[1000.0, 2000.0],
                          t_eff=300.0, **fields)
        out = tmp_path / "attack.csv"
        assert main(["attack", "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_OK
        data = out.read_bytes()
        assert data.count(b",,,\n") == (14 if fields.get("mode") else 0)
        assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize("command, fields, floats", [
        ("simulate", dict(variant="classic-kljn", r_low=1000, r_high=2000.0, t_eff=300),
         [6, 7, 8]),
        ("simulate", dict(variant="rrrt-kljn", r_range=[1000.0, 2000.0], r_levels=8,
                          t_range=[200.0, 400.0], t_levels=8, mode="sampled",
                          estimator_segments=64), [6, 7, 8]),
        ("attack", dict(variant="rrrt-kljn", r_range=[1000.0, 2000.0], r_levels=8,
                        t_range=[200.0, 400.0], t_levels=8), [1, 2, 3, 4, 6]),
        ("attack", dict(variant="rrrt-kljn", r_range=[1000.0, 2000.0], r_levels=16,
                        t_range=[200.0, 400.0], t_levels=16, eve_grid_points=2,
                        family_tolerance=1e-17), []),
        ("attack", dict(variant="vmg-kljn", vmg_resistors=[1000.0, 2000.0, 1200.0, 2500.0],
                        t_eff=300.0, bits=200), []),
        ("attack", dict(variant="rr-kljn", r_range=[1000.0, 2000.0], r_levels=16,
                        t_eff=300.0, bits=200), [1, 2]),
        ("attack", dict(variant="rr-kljn", r_range=[1000.0, 2000.0], r_levels=16,
                        t_eff=300.0, mode="sampled", samples_per_bit=1024,
                        estimator_segments=16), []),
        ("vmg-solve", dict(variant="vmg-kljn", vmg_resistors=[1000, 2000, 1200, 2500],
                           t_eff=300), [0, 1, 2, 3, 4]),
        ("table", dict(variant="rrrt-kljn", r_range=[1000.0, 2000.0], r_levels=4,
                       t_range=[200.0, 400.0], t_levels=4), []),
    ], ids=["simulate-classic", "simulate-sampled-rrrt", "attack-rrrt",
            "attack-rrrt-empty-families", "attack-vmg", "attack-rr",
            "attack-sampled-rr-empty-pairs", "vmg-solve", "table-members"])
    def test_tables_reach_write_csv_as_columns(self, tmp_path, monkeypatch, command,
                                               fields, floats):
        # the columns must be equal-length numpy arrays or str/None
        # sequences, the float columns float64 arrays (with no empty cell)
        handed = []
        monkeypatch.setattr(cli, "write_csv", lambda columns, rows, summary, path:
                            handed.append(rows) or report.write_csv(columns, rows,
                                                                    summary, path))
        cfg = config_file(tmp_path, **fields)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out.csv"),
                     "--quiet"]) == EXIT_OK
        rows, = handed
        assert isinstance(rows, tuple) and len({len(values) for values in rows}) == 1
        table = read_report(tmp_path / "out.csv").rows
        assert len(rows[0]) == len(table) > 0
        kinds = [values.dtype.kind if isinstance(values, np.ndarray) else "list"
                 for values in rows]
        assert [k for k, kind in enumerate(kinds) if kind == "f"] == floats
        assert set(kinds) <= {"f", "i", "u", "b", "O", "list"}
        for values in rows:
            if not isinstance(values, np.ndarray) or values.dtype.kind == "O":
                assert {type(value) for value in values} <= {str, type(None)}
        if fields.get("mode") == "sampled" and command == "attack":
            assert any(row["r_pair_low"] is None for row in table)


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

    @pytest.mark.parametrize("members", [True, False], ids=["members", "columns"])
    @pytest.mark.parametrize("fold_cells, dump_piece, slabs, pieces", [
        (2000, 5000, 17, 11),
        (1 << 15, 30000, 1, 2),
    ], ids=["uneven-shares", "more-parts-than-slabs-and-pieces"])
    def test_table_bytes_do_not_depend_on_the_thread_count(
            self, tmp_path, monkeypatch, members, fold_cells, dump_piece, slabs, pieces):
        # 51 289 cells of 65 536 settings at 16 levels, whose slabs and
        # pieces split unevenly over two and three parts, or are fewer
        # than three; with the member lists, a piece formats the distinct
        # values of each of its three integer and bool columns apart
        cfg = config_file(tmp_path, variant="rrrt-kljn",
                          r_range=[1000.0, 2000.0], r_levels=16,
                          t_range=[200.0, 400.0], t_levels=16)
        monkeypatch.setattr(lookup, "_FOLD_CELLS", fold_cells)
        monkeypatch.setattr(report, "_DUMP_PIECE", dump_piece)
        if not members:
            monkeypatch.setattr(cli, "_MEMBER_DUMP_LIMIT", 0)
        calls = {"_group": 0, "_int_piece": 0}
        for module, name in ((lookup, "_group"), (report, "_int_piece")):
            def counted(*args, original=getattr(module, name), name=name):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(module, name, counted)
        outputs = []
        for width in (1, 2, 3):
            monkeypatch.setattr(lookup, "_pool_width", lambda: width)
            out = tmp_path / f"table-{width}.csv"
            assert main(["table", "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_OK
            outputs.append(out.read_bytes())
        assert calls == {"_group": 3 * slabs, "_int_piece": 3 * pieces * (3 if members else 1)}
        assert outputs[0].startswith(b"cell,size,singular" + b",members" * members + b"\n")
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    @pytest.mark.parametrize("width, helpers", [(1, 0), (2, 3), (3, 5)])
    def test_table_starts_one_helper_per_part_and_pass(self, tmp_path, monkeypatch,
                                                       width, helpers):
        # the fold's 17 slabs and the dump's 11 pieces each take one pass
        # of `width` parts, the keys one of at most two (their blocks hold
        # at least _MIN_BLOCK_SETTINGS); on one CPU the calling thread does
        # all
        cfg = config_file(tmp_path, variant="rrrt-kljn",
                          r_range=[1000.0, 2000.0], r_levels=16,
                          t_range=[200.0, 400.0], t_levels=16)
        monkeypatch.setattr(lookup, "_pool_width", lambda: width)
        monkeypatch.setattr(lookup, "_FOLD_CELLS", 2000)
        monkeypatch.setattr(report, "_DUMP_PIECE", 5000)
        monkeypatch.setattr(cli, "_MEMBER_DUMP_LIMIT", 0)
        started, start = [], threading.Thread.start

        def counted_start(thread):
            if width == 1:
                raise AssertionError(f"a one-CPU table started {thread}")
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted_start)
        assert main(["table", "--config", cfg, "--out", str(tmp_path / "table.csv"),
                     "--quiet"]) == EXIT_OK
        assert len(started) == helpers


class TestErrorPaths:
    def test_malformed_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["simulate", "--config", str(path)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["simulate", "--config",
                     str(tmp_path / "absent.json")]) == EXIT_CONFIG

    @pytest.mark.parametrize("make", [
        pytest.param(lambda path: path.mkdir(), id="directory"),
        pytest.param(lambda path: path.write_bytes(b'{"variant": "\xff"}'), id="non-utf-8"),
    ])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, make):
        path = tmp_path / "config.json"
        make(path)
        assert main(["simulate", "--config", str(path), "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: ") and err.count("\n") == 1

    def test_out_into_a_missing_directory_exits_1(self, classic_cfg, tmp_path, capsys):
        out = tmp_path / "absent" / "session.csv"
        assert main(["simulate", "--config", classic_cfg, "--out", str(out),
                     "--quiet"]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err and err.count("\n") == 1

    @pytest.mark.parametrize("command, work", [
        ("table", "build_lookup_table"),
        ("simulate", "run_session"),
        ("attack", "run_session"),
    ])
    def test_out_into_a_missing_directory_fails_before_the_work(
            self, rrrt_cfg, tmp_path, capsys, monkeypatch, command, work):
        def no_work(*args, **kwargs):
            raise AssertionError(f"{command} called {work}")

        monkeypatch.setattr(cli, work, no_work)
        out = tmp_path / "absent" / "out.csv"
        assert main([command, "--config", rrrt_cfg, "--out", str(out),
                     "--quiet"]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err and err.count("\n") == 1
        assert not out.parent.exists()

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
        # list elements must be JSON numbers, bool excluded, and as many as the key takes
        *(pytest.param({"variant": "rr-kljn", "r_range": [value, 2000.0], "r_levels": 4},
                       "r_range", id=f"r_range-{label}")
          for label, value in (("string", "a"), ("null", None), ("bool", True),
                               ("numeric-string", "1000"))),
        pytest.param({"variant": "rrrt-kljn", "r_range": [1000.0, 2000.0], "r_levels": 4,
                      "t_range": ["a", 400.0], "t_levels": 4}, "t_range", id="string-t_range"),
        pytest.param({"variant": "vmg-kljn", "vmg_resistors": [1000, 2000, "x", 2500]},
                     "vmg_resistors", id="string-vmg_resistors"),
    ])
    def test_bad_physical_input_exits_2(self, tmp_path, capsys, fields, name):
        # json writes nan and inf as the NaN / Infinity tokens it also reads
        cfg = config_file(tmp_path, **{"variant": "classic-kljn",
                                       "r_low": 1000.0, "r_high": 2000.0,
                                       "t_eff": 300.0, **fields})
        assert main(["simulate", "--config", cfg, "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and name in err

    @pytest.mark.parametrize("mode", ["sampled", "analytic"])
    @pytest.mark.parametrize("rate", [float("inf"), float("nan")], ids=["Infinity", "NaN"])
    @pytest.mark.parametrize("command", ["simulate", "attack", "table"])
    def test_non_finite_sample_rate_exits_2(self, tmp_path, capsys, command, rate, mode):
        # json writes the rate as the Infinity / NaN token it also reads
        cfg = config_file(tmp_path, variant="rr-kljn", r_range=[1000.0, 2000.0], r_levels=4,
                          t_eff=300.0, sample_rate_hz=rate, mode=mode, estimator_segments=64)
        assert main([command, "--config", cfg, "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "sample rate" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("fields, commands", [
        pytest.param({"r_low": 1e150, "r_high": 2e150}, ["simulate", "attack"],
                     id="classic-overflow"),
        pytest.param({"r_low": 1e-160, "r_high": 2e-160}, ["simulate", "attack"],
                     id="classic-underflow"),
        pytest.param({"t_eff": 1e305}, ["simulate", "attack"], id="classic-hot"),
        pytest.param({"variant": "rr-kljn", "r_range": [1e150, 2e150], "r_levels": 16},
                     ["simulate", "attack", "table"], id="rr-overflow"),
        pytest.param({"variant": "vmg-kljn",
                      "vmg_resistors": [1000e150, 2000e150, 1200e150, 2500e150]},
                     ["simulate", "attack"], id="vmg-overflow"),
    ])
    def test_wire_past_the_float_range_exits_2(self, tmp_path, capsys, fields, commands):
        # observables that overflow or underflow would fail every bit; the
        # config is refused before any float warning reaches stderr
        cfg = config_file(tmp_path, **{"variant": "classic-kljn", "r_low": 1000.0,
                                       "r_high": 2000.0, "t_eff": 300.0, **fields})
        for command in commands:
            out = tmp_path / f"{command}.csv"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
            captured = capsys.readouterr()
            assert captured.out == "" and not out.exists()
            assert captured.err.startswith("config error:") and captured.err.count("\n") == 1
            assert "float range" in captured.err

    @pytest.mark.parametrize("command", ["vmg-solve", "simulate", "attack"])
    @pytest.mark.parametrize("scale", [1e150, 1e155, 1e-170, 1e-155],
                             ids=["solve-to-nan", "square-overflows", "square-underflows",
                                  "entries-underflow"])
    def test_vmg_matching_past_the_float_range_exits_2(self, tmp_path, capsys, scale,
                                                       command):
        # the matching system's squares overflow (a Python float's ** would
        # raise) or underflow to 0, its entries overflow and the solve
        # gives NaN temperatures, or its entries underflow to 0 and the
        # system would look singular: each is refused, whatever the command
        cfg = config_file(tmp_path, variant="vmg-kljn", t_eff=300.0, vmg_resistors=[
            r * scale for r in (1000.0, 2000.0, 1200.0, 2500.0)])
        out = tmp_path / f"{command}.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("config error:") and captured.err.count("\n") == 1
        assert "float range" in captured.err

    def test_subnormal_wire_still_runs(self, tmp_path, capsys):
        # SI units at 1e-290 K: s_u is about 5e-311, subnormal but positive
        cfg = config_file(tmp_path, variant="classic-kljn", r_low=1000.0, r_high=2000.0,
                          t_eff=1e-290, bits=20, normalized_units=False)
        for command in ("simulate", "attack"):
            assert main([command, "--config", cfg]) == EXIT_OK
            captured = capsys.readouterr()
            assert "secure=9 " in captured.out and captured.err == ""

    def test_negative_seed_flag_exits_2(self, classic_cfg, capsys):
        assert main(["simulate", "--config", classic_cfg, "--seed", "-1",
                     "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "master_seed" in err
