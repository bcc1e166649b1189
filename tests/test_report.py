"""CSV report writing/parsing and JSON config loading."""

import csv
import io
import json
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from kljn import ConfigError, NORMALIZED, SI, lookup, report
from kljn import eve_guess_session, run_session
from kljn.cli import main
from kljn.config import load_config
from kljn.report import read_report, write_csv, write_report

SESSION_COLUMNS = [
    "index", "variant", "alice_r", "alice_t", "bob_r", "bob_t",
    "s_u", "s_i", "p_ab", "status", "alice_bit", "bob_bit",
    "shared_key_bit", "eve_guess", "eve_correct",
]


def simulated(tmp_path, bits=30, seed=31):
    """A classic session, Eve's record of it and the CSV `simulate`
    writes for it."""
    config_path = write_config(tmp_path, bits=bits, master_seed=seed)
    out = tmp_path / "session.csv"
    assert main(["simulate", "--config", str(config_path), "--out", str(out),
                 "--quiet"]) == 0
    config, _ = load_config(config_path)
    report = run_session(config)
    return report, eve_guess_session(config, "nearest-class", report), out


class TestSessionReport:
    def test_columns_and_rows(self, tmp_path):
        _, _, out = simulated(tmp_path)
        csv_report = read_report(out)
        assert csv_report.columns == SESSION_COLUMNS
        assert len(csv_report.rows) == 30
        assert csv_report.summary["schema"] == "kljn-csv-1"
        assert csv_report.summary["total_bits"] == 30
        assert csv_report.summary["eve_strategy"] == "nearest-class"

    def test_guess_columns_populated_only_for_secure_bits(self, tmp_path):
        _, guesses, out = simulated(tmp_path)
        rows = read_report(out).rows
        for row in rows:
            if row["status"] == "secure":
                assert row["eve_guess"] in (0, 1)
                assert row["eve_correct"] in (0, 1)
            else:
                assert row["eve_guess"] is None
                assert row["shared_key_bit"] is None
        secure = [row for row in rows if row["status"] == "secure"]
        assert [row["eve_guess"] for row in secure] == guesses.guesses
        assert [row["eve_correct"] for row in secure] == [
            int(g == t) for g, t in zip(guesses.guesses, guesses.truths)]

    def test_round_trip_lossless(self, tmp_path):
        report, _, out = simulated(tmp_path)
        recovered = read_report(out)
        for row, o in zip(recovered.rows, report.outcomes, strict=True):
            expected = {
                "index": o.index, "variant": "classic-kljn",
                "alice_r": o.alice_draw.resistance, "alice_t": o.alice_draw.temperature,
                "bob_r": o.bob_draw.resistance, "bob_t": o.bob_draw.temperature,
                "status": o.status, "alice_bit": o.alice_bit, "bob_bit": o.bob_bit,
                "shared_key_bit": o.shared_key_bit}
            assert {name: row[name] for name in expected} == expected
        copy = tmp_path / "copy.csv"
        write_report(recovered, copy)
        assert copy.read_bytes() == out.read_bytes()

    def test_float_round_trip_exact(self, tmp_path):
        # repr serialization must preserve doubles bit-for-bit
        report, _, out = simulated(tmp_path)
        rows = read_report(out).rows
        for name, column in zip(("s_u", "s_i", "p_ab"), report.observables):
            assert [row[name] for row in rows] == column.tolist()

    def test_summary_lines_are_csv_comments(self, tmp_path):
        _, _, out = simulated(tmp_path)
        lines = out.read_text().splitlines()
        table = [ln for ln in lines if not ln.startswith("#")]
        assert table[0].split(",") == SESSION_COLUMNS
        assert any(ln.startswith("# efficiency,") for ln in lines)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ConfigError):
            read_report(path)


def integer_column(dtype, rows):
    """A column of `rows` values of `dtype`: small values (leading zeros
    of every length), the type's extremes and anything between."""
    if dtype is np.bool_:
        return arrays(dtype, rows)
    info = np.iinfo(dtype)
    lo, hi = int(info.min), int(info.max)
    elements = (st.integers(max(lo, -999), min(hi, 999)) | st.integers(lo, hi)
                | st.sampled_from([0, lo, hi]))
    return arrays(dtype, rows, elements=elements)


@st.composite
def integer_columns(draw, dtypes):
    """A tuple of 1 to 4 equal-length columns, 0 to 30 values each, of
    dtypes drawn from `dtypes`."""
    rows = draw(st.integers(0, 30))
    return tuple(draw(integer_column(dtype, rows))
                 for dtype in draw(st.lists(st.sampled_from(dtypes), min_size=1, max_size=4)))


HEADER = ["a", "b", "c", "d"]


def written(tmp_dir, name, columns):
    """The bytes write_csv writes for `columns`."""
    path = tmp_dir / name
    write_csv(HEADER[:len(columns)], columns,
              {"schema": "test", "rows": len(columns[0])}, path)
    return path.read_bytes()


def by_csv_writer(columns, rows):
    """The bytes csv.writer writes for `rows`, with the header and the
    summary of :func:`written` for `columns`: the reference."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(HEADER[:len(columns)])
    writer.writerows(rows)
    text.write(f"# schema,test\n# rows,{len(columns[0])}\n")
    return text.getvalue().encode()


def as_csv_writer_rows(columns):
    """`columns` as rows of Python objects, what csv.writer is given: ints
    (a bool as 0 or 1), floats, and text columns as they are."""
    return list(zip(*(values if isinstance(values, list)
                      else values.astype(int if values.dtype == bool else object).tolist()
                      for values in columns)))


class TestIntegerRows:
    """The column path of write_csv writes what csv.writer writes."""

    @settings(max_examples=80)
    @given(columns=integer_columns([np.bool_, np.uint8, np.uint32, np.int64,
                                    np.uint64, np.int32, np.uint16, np.int8]))
    @pytest.mark.parametrize("width", [1, 3])
    def test_matches_csv_writer(self, columns, width, tmp_path_factory):
        tmp_dir = tmp_path_factory.mktemp("rows")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(report, "_DUMP_PIECE", 7)  # pieces cut the rows
            patch.setattr(lookup, "_pool_width", lambda: width)
            actual = written(tmp_dir, "columns.csv", columns)
        assert actual == by_csv_writer(columns, as_csv_writer_rows(columns))

    @pytest.mark.parametrize("matrix", [
        np.array([[0, -1, 1], [-(2 ** 63), 2 ** 63 - 1, 10 ** 18]], dtype=np.int64),
        np.array([[2 ** 64 - 1], [0], [10 ** 19]], dtype=np.uint64),
        np.array([[-5], [40], [-300]], dtype=np.int16),
        np.zeros((0, 3), dtype=np.int64),
        # magnitudes up to 2^32 - 1 are formatted as uint32, larger as uint64
        np.array([[2 ** 32 - 1, -(2 ** 32 - 1), 2 ** 32, -(2 ** 32)],
                  [10, -9, 0, 1]], dtype=np.int64),
        np.array([[2 ** 32 - 1], [0], [10 ** 9]], dtype=np.uint64),
        # no sign slot: unsigned and bool columns are never negative
        np.array([[2 ** 32 - 1, 0], [0, 1], [10, 2 ** 31]], dtype=np.uint32),
        np.array([[True, False], [False, False], [True, True]]),
    ], ids=["int64-extremes", "uint64-one-column", "int16-negative", "no-rows",
            "int64-at-the-uint32-switch", "uint64-largest-fits-uint32",
            "uint32-extremes", "bool"])
    def test_edge_cases(self, matrix, tmp_path):
        columns = tuple(matrix.T)
        assert written(tmp_path, "columns.csv", columns) == by_csv_writer(
            columns, as_csv_writer_rows(columns))

    def test_mixed_table_columns(self, tmp_path):
        # the columns `kljn table` passes: uint32 cells, int64 sizes and
        # bool flags, written as 0 and 1
        columns = (np.arange(3, dtype=np.uint32), np.array([7, 0, 2 ** 40]),
                   np.array([True, False, True]))
        assert written(tmp_path, "columns.csv", columns) == (
            b"a,b,c\n0,7,1\n1,0,0\n2,1099511627776,1\n# schema,test\n# rows,3\n")

    def test_failing_piece_raises_after_the_join(self, tmp_path, monkeypatch):
        # 10 pieces on three parts: a helper's piece 4 fails, and the other
        # helper formats piece 8 only after that; the error is raised once
        # both are joined, the failing part formats no later piece (7), and
        # the file holds the header but no table row
        monkeypatch.setattr(report, "_DUMP_PIECE", 3)
        monkeypatch.setattr(lookup, "_pool_width", lambda: 3)
        int_piece, formatted, piece_4_failed = report._int_piece, [], threading.Event()

        def failing_int_piece(columns):
            piece = int(columns[0][0]) // 3
            if piece == 4:
                piece_4_failed.set()
                raise RuntimeError("piece 4 failed")
            if piece == 8:
                assert piece_4_failed.wait(10), "piece 4 never failed"
            formatted.append(piece)
            return int_piece(columns)

        monkeypatch.setattr(report, "_int_piece", failing_int_piece)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="piece 4 failed"):
            written(tmp_path, "columns.csv", (np.arange(30),))
        assert threading.active_count() == threads
        assert sorted(formatted) == [0, 1, 2, 3, 5, 6, 8, 9]
        assert (tmp_path / "columns.csv").read_text() == "a\n"


#: floats where repr changes notation, sign or precision
SPECIAL_FLOATS = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, 1e16, 9999999999999998.0,
                  1e-4, 1e-5]


@st.composite
def mixed_columns(draw):
    """A tuple of 1 to 4 equal-length columns, 0 to 30 values each: float64
    (special values, repeats of a few values, or any double), integer,
    bool, or text (str, holding delimiters, quotes and line breaks, or
    None)."""
    rows = draw(st.integers(0, 30))
    floats = st.sampled_from(SPECIAL_FLOATS) | st.floats(width=64)
    kinds = {
        "float": arrays(np.float64, rows, elements=floats | st.sampled_from(
            draw(st.lists(floats, min_size=1, max_size=3)))),
        "int": integer_column(np.int64, rows),
        "bool": integer_column(np.bool_, rows),
        "text": st.lists(st.none() | st.text(alphabet='ab ,"\r\n;', max_size=4),
                         min_size=rows, max_size=rows),
    }
    return tuple(draw(kinds[kind]) for kind in draw(
        st.lists(st.sampled_from(sorted(kinds)), min_size=1, max_size=4)))


class TestColumnRows:
    """Float, integer, bool and text columns, written by the column path
    of write_csv, as csv.writer writes them."""

    @settings(max_examples=150)
    @given(columns=mixed_columns())
    @pytest.mark.parametrize("width", [1, 3])
    def test_matches_csv_writer(self, columns, width, tmp_path_factory):
        tmp_dir = tmp_path_factory.mktemp("rows")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(report, "_DUMP_PIECE", 7)  # pieces cut the rows
            patch.setattr(lookup, "_pool_width", lambda: width)
            actual = written(tmp_dir, "columns.csv", columns)
        assert actual == by_csv_writer(columns, as_csv_writer_rows(columns))

    @pytest.mark.parametrize("columns", [
        (np.zeros(0), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool), []),
        (["", None, "x"],),
        (["a,b", 'say "hi"', None, "plain"], np.array([0.5, -0.0, 0.5, np.nan])),
        (np.array(SPECIAL_FLOATS), [None, "", "L", "H", "", None, "1", "0", "a\rb", "c\nd"]),
    ], ids=["no-rows", "one-column-empty-cells", "quoted-text", "special-floats"])
    def test_edge_cases(self, columns, tmp_path):
        assert written(tmp_path, "columns.csv", columns) == by_csv_writer(
            columns, as_csv_writer_rows(columns))


#: one column of Python objects that csv.writer formats apart: 0.0 and
#: -0.0, 1 and 1.0, nan and inf, text it quotes, and None
MIXED_VALUES = [0.0, -0.0, 1, 1.0, float("nan"), float("inf"), -float("inf"), None,
                "a,b", 'say "hi"', "x\r\ny", "", "plain", 2 ** 70, -7]


class TestWriteReport:
    """write_report writes a CsvReport's rows as csv.writer writes them."""

    @pytest.mark.parametrize("columns, rows", [
        (["a", "b", "c"], [{"a": value, "b": MIXED_VALUES[-1 - k], "c": k}
                           for k, value in enumerate(MIXED_VALUES)]),
        (["a"], [{"a": value} for value in MIXED_VALUES]),
        (["a", "b"], [{"a": 1.0}, {"b": "only b"}, {}]),
        (["a", "b"], []),
    ], ids=["python-objects", "one-column", "missing-keys", "no-rows"])
    def test_matches_csv_writer(self, tmp_path, columns, rows):
        path = tmp_path / "report.csv"
        write_report(report.CsvReport(columns, rows, {"schema": "test", "rows": len(rows)}),
                     path)
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([row.get(column) for column in columns] for row in rows)
        expected.write(f"# schema,test\n# rows,{len(rows)}\n")
        assert path.read_bytes() == expected.getvalue().encode()


def test_csv_writer_writes_no_table_rows():
    # every table reaches write_csv as columns; csv.writer writes only the
    # header and quotes text cells
    sources = Path(report.__file__).parent.glob("*.py")
    assert [path.name for path in sources if "writerows" in path.read_text()] == []


def write_config(tmp_path, **overrides):
    base = {
        "variant": "classic-kljn", "bits": 10, "master_seed": 5,
        "bandwidth_hz": 1.0, "sample_rate_hz": 4.0, "samples_per_bit": 4096,
        "r_low": 1000.0, "r_high": 2000.0, "t_eff": 300.0,
        "normalized_units": True,
    }
    base.update(overrides)
    base = {k: v for k, v in base.items() if v is not None}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base))
    return path


class TestLoadConfig:
    def test_valid_classic(self, tmp_path):
        config, extras = load_config(write_config(tmp_path))
        assert config.variant == "classic-kljn"
        assert config.bits == 10
        assert config.constants is NORMALIZED
        assert extras == {"normalized_units": True}

    def test_si_default(self, tmp_path):
        config, _ = load_config(write_config(tmp_path, normalized_units=None))
        assert config.constants is SI

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, r_lwo=1000.0)
        with pytest.raises(ConfigError, match="r_lwo"):
            load_config(path)

    def test_wrong_type_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="bits"):
            load_config(write_config(tmp_path, bits="ten"))
        # bool is not an acceptable int
        with pytest.raises(ConfigError, match="bits"):
            load_config(write_config(tmp_path, bits=True))

    def test_missing_required_key(self, tmp_path):
        with pytest.raises(ConfigError, match="master_seed"):
            load_config(write_config(tmp_path, master_seed=None))

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"variant": "classic-kljn",\n  "bits": }\n')
        with pytest.raises(ConfigError, match="bad.json:2"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")

    def test_non_object_top_level(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ConfigError, match="object"):
            load_config(path)

    def test_variant_field_errors_carry_path(self, tmp_path):
        path = write_config(tmp_path, t_eff=None)
        with pytest.raises(ConfigError, match="t_eff"):
            load_config(path)

    def test_range_length_checked(self, tmp_path):
        path = write_config(tmp_path, variant="rr-kljn", r_low=None,
                            r_high=None, r_range=[100.0, 200.0, 300.0],
                            r_levels=8)
        with pytest.raises(ConfigError, match="r_range"):
            load_config(path)

    def test_vmg_config_round_trip(self, tmp_path):
        path = write_config(tmp_path, variant="vmg-kljn", r_low=None,
                            r_high=None,
                            vmg_resistors=[1000.0, 2000.0, 3000.0, 4000.0])
        config, _ = load_config(path)
        assert config.vmg_resistors == (1000.0, 2000.0, 3000.0, 4000.0)

    def test_rrrt_config(self, tmp_path):
        path = write_config(tmp_path, variant="rrrt-kljn", r_low=None,
                            r_high=None, t_eff=None,
                            r_range=[1000.0, 2000.0], r_levels=8,
                            t_range=[200.0, 400.0], t_levels=8,
                            eve_strategy="random")
        config, extras = load_config(path)
        assert config.r_levels == 8
        assert extras["eve_strategy"] == "random"
