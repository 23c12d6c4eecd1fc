import csv
import io
import math
import warnings
from datetime import datetime, timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riskforge.errors import DuplicateCohortRow, IoFailure, MissingColumn
from riskforge import frame as frame_mod
from riskforge.frame import (KINDS, PatientFrame, _block_rows, _format_column,
                             aggregate_by_key, join, parse_time, format_time, read_back,
                             read_csv, segment_means, write_csv)
from riskforge.harmonize import stay_window, window_24h


def nan_where(missing, values):
    """Numeric values with NaN, the missing value, where ``missing`` is set."""
    return np.where(missing, np.nan, np.asarray(values, dtype=float))


def make_frame(**cols):
    """Frame from name=(kind, values[, missing]); missing numbers become NaN."""
    spec = []
    for name, (kind, values, *missing) in cols.items():
        spec.append((name, kind, nan_where(missing[0], values) if missing else values))
    return PatientFrame.from_columns(spec)


class TestReadCsv:
    def test_blank_numeric_cell_becomes_masked(self, tmp_path):
        p = tmp_path / "ev.csv"
        p.write_text("hadm_id,valuenum\n1,5.5\n2,\n3,7.25\n")
        f = read_csv(p, [("hadm_id", "int"), ("valuenum", "num")])
        assert f.n_rows == 3
        mask = f.mask("valuenum")
        assert mask.tolist() == [False, True, False]
        vals = f.values("valuenum")
        assert vals[0] == 5.5 and vals[2] == 7.25

    def test_unparseable_numeric_masked_not_zero(self, tmp_path):
        p = tmp_path / "ev.csv"
        p.write_text("hadm_id,valuenum\n1,oops\n")
        f = read_csv(p, [("hadm_id", "int"), ("valuenum", "num")])
        assert f.mask("valuenum").tolist() == [True]

    def test_header_only_gives_zero_rows(self, tmp_path):
        p = tmp_path / "ev.csv"
        p.write_text("hadm_id,valuenum\n")
        f = read_csv(p, [("hadm_id", "int"), ("valuenum", "num")])
        assert f.n_rows == 0

    def test_missing_schema_column_raises(self, tmp_path):
        p = tmp_path / "ev.csv"
        p.write_text("subject_id,valuenum\n1,2\n")
        with pytest.raises(MissingColumn):
            read_csv(p, [("hadm_id", "int"), ("valuenum", "num")])

    def test_nonexistent_file_is_io_failure(self, tmp_path):
        from riskforge.errors import IoFailure
        with pytest.raises(IoFailure):
            read_csv(tmp_path / "absent.csv", [("x", "num")])

    def test_row_order_preserved(self, tmp_path):
        p = tmp_path / "ev.csv"
        p.write_text("x\n3\n1\n2\n")
        f = read_csv(p, [("x", "num")])
        assert f.values("x").tolist() == [3.0, 1.0, 2.0]


num_column = st.lists(
    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False), min_size=0, max_size=12)


@settings(max_examples=40, deadline=None)
@given(vals=num_column, data=st.data())
def test_csv_round_trip_idempotent(tmp_path_factory, vals, data):
    n = len(vals)
    mask = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    svals = data.draw(st.lists(
        st.text(alphabet="abc ,\"'x", max_size=6), min_size=n, max_size=n))
    frame = make_frame(
        subject_id=("int", np.arange(n, dtype=float)),
        v=("num", np.array(vals) if n else np.array([]), np.array(mask, dtype=bool)),
        note=("str", svals),
        t=("time", np.full(n, parse_time("2150-03-04 05:06:07"))),
    )
    d = tmp_path_factory.mktemp("rt")
    write_csv(frame, d / "a.csv")
    f2 = read_csv(d / "a.csv", [("subject_id", "int"), ("v", "num"),
                                ("note", "str"), ("t", "time")])
    write_csv(f2, d / "b.csv")
    f3 = read_csv(d / "b.csv", [("subject_id", "int"), ("v", "num"),
                                ("note", "str"), ("t", "time")])
    assert f2.equals(f3)
    assert f2.mask("v").tolist() == list(mask)


def test_time_format_round_trip():
    s = "2152-11-30 23:59:59"
    assert format_time(parse_time(s)) == s


class TestJoin:
    def test_inner_drops_unmatched(self):
        left = make_frame(hadm_id=("int", [1.0, 2.0]), a=("num", [10.0, 20.0]))
        right = make_frame(hadm_id=("int", [2.0]), b=("num", [99.0]))
        out = join(left, right, ["hadm_id"], "inner")
        assert out.n_rows == 1
        assert out.values("a").tolist() == [20.0]
        assert out.values("b").tolist() == [99.0]

    def test_left_masks_unmatched_right_cells(self):
        left = make_frame(hadm_id=("int", [1.0, 2.0]), a=("num", [10.0, 20.0]))
        right = make_frame(hadm_id=("int", [1.0]), b=("num", [99.0]))
        out = join(left, right, ["hadm_id"], "left")
        assert out.n_rows == 2
        assert out.mask("b").tolist() == [False, True]

    def test_disjoint_inner_empty(self):
        left = make_frame(hadm_id=("int", [1.0]))
        right = make_frame(hadm_id=("int", [9.0]), b=("num", [1.0]))
        out = join(left, right, ["hadm_id"], "inner")
        assert out.n_rows == 0

    def test_colliding_column_raises(self):
        left = make_frame(hadm_id=("int", [1.0]), v=("num", [1.0]))
        right = make_frame(hadm_id=("int", [1.0]), v=("num", [2.0]))
        with pytest.raises(ValueError, match="duplicate column names"):
            join(left, right, ["hadm_id"], "inner")

    def test_key_missing(self):
        left = make_frame(hadm_id=("int", [1.0]))
        right = make_frame(other=("int", [1.0]))
        with pytest.raises(MissingColumn):
            join(left, right, ["hadm_id"], "inner")
        with pytest.raises(MissingColumn):
            join(right, left, ["hadm_id"], "left")

    def test_repeated_right_key_raises_naming_every_key(self):
        left = make_frame(subject_id=("int", [1.0]), hadm_id=("int", [10.0]))
        right = make_frame(subject_id=("int", [2.0, 1.0, 2.0, 1.0]),
                           hadm_id=("int", [10.0, 11.0, 10.0, 12.0]), b=("num", [1.0] * 4))
        with pytest.raises(DuplicateCohortRow, match="^subject_id 2, hadm_id 10 "):
            join(left, right, ["subject_id", "hadm_id"], "left")
        with pytest.raises(DuplicateCohortRow, match="^hadm_id 10 "):
            join(left, right.drop(["subject_id"]), ["hadm_id"], "inner")

    def test_repeated_missing_right_keys_are_no_row(self):
        left = make_frame(k=("int", [1.0, np.nan]), j=("int", [5.0, 5.0]))
        right = make_frame(k=("int", [np.nan, 1.0, np.nan]), j=("int", [5.0, 5.0, 5.0]),
                           b=("num", [1.0, 2.0, 3.0]))
        out = join(left, right, ["k", "j"], "left")
        assert np.array_equal(out.values("b"), [2.0, np.nan], equal_nan=True)
        assert join(left, right.drop(["j"]), ["k"], "inner").values("b").tolist() == [2.0]

    def test_unknown_kind_raises(self):
        f = make_frame(k=("int", [1.0]))
        with pytest.raises(ValueError, match="outer"):
            join(f, f, ["k"], "outer")

    @settings(max_examples=30, deadline=None)
    @given(lk=st.lists(st.integers(0, 20), min_size=0, max_size=15, unique=True),
           rk=st.lists(st.integers(0, 20), min_size=0, max_size=15, unique=True))
    def test_inner_count_bounded_for_unique_keys(self, lk, rk):
        left = make_frame(hadm_id=("int", [float(k) for k in lk]))
        right = make_frame(hadm_id=("int", [float(k) for k in rk]),
                           b=("num", [0.0] * len(rk)))
        out = join(left, right, ["hadm_id"], "inner")
        assert out.n_rows <= min(len(lk), len(rk))
        assert out.n_rows == len(set(lk) & set(rk))


def long_events(keys, codes, values):
    """Long-format events: one (stay_id, variable, valuenum) per row, each
    variable a position in the list of names it is aggregated under."""
    return PatientFrame.from_columns([("stay_id", "int", keys), ("variable", "int", codes),
                                      ("valuenum", "num", values)])


class TestAggregate:
    def test_mean_min_max(self):
        f = long_events([7.0, 7.0], [0, 0], [60.0, 80.0])
        out = aggregate_by_key(f, "stay_id", ["hr"])
        assert out.names == ["stay_id", "hr_mean", "hr_min", "hr_max"]
        assert out.values("hr_mean").tolist() == [70.0]
        assert out.values("hr_min").tolist() == [60.0]
        assert out.values("hr_max").tolist() == [80.0]

    def test_all_masked_group_stays_masked(self):
        f = long_events([7.0, 7.0], [0, 0], [np.nan, np.nan])
        out = aggregate_by_key(f, "stay_id", ["hr"])
        assert out.values("stay_id").tolist() == [7.0]
        assert out.mask("hr_mean").tolist() == [True]
        assert out.mask("hr_min").tolist() == [True]

    def test_single_value_identity(self):
        f = long_events([1.0], [0], [98.6])
        out = aggregate_by_key(f, "stay_id", ["bt"])
        assert out.values("bt_mean")[0] == out.values("bt_min")[0] == 98.6

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(5)
        n = 600
        keys = rng.integers(0, 40, n).astype(float)
        # 0 is w, 1 is v; -1 and 2 are outside the list
        codes = rng.integers(-1, 3, n)
        vals = nan_where(rng.uniform(size=n) < 0.25, rng.normal(50, 10, n))
        out = aggregate_by_key(long_events(keys, codes, vals), "stay_id", ["w", "v"])
        assert out.names[1:] == [f"{v}_{s}" for v in "wv" for s in ("mean", "min", "max")]

        # independent oracle: plain python scan
        oracle = {}
        for k, code, v in zip(keys, codes, vals):
            if not math.isnan(v):
                oracle.setdefault((k, int(code)), []).append(v)
        assert out.values("stay_id").tolist() == sorted(set(keys.tolist()))
        for i, k in enumerate(out.values("stay_id")):
            for code, name in enumerate("wv"):
                if (k, code) in oracle:
                    vs = oracle[k, code]
                    assert out.values(f"{name}_mean")[i] == pytest.approx(sum(vs) / len(vs))
                    assert out.values(f"{name}_min")[i] == min(vs)
                    assert out.values(f"{name}_max")[i] == max(vs)
                else:
                    assert out.mask(f"{name}_mean")[i]


def test_frames_are_value_immutable_after_construction():
    f = make_frame(a=("num", [1.0, 2.0]))
    vals = f.values("a")
    vals[0] = 99.0
    assert f.values("a").tolist() == [1.0, 2.0]


# --- per-cell reference codec: the cell semantics the column codec keeps ---

EPOCH = datetime(1970, 1, 1)
TIME_FORMAT = "%Y-%m-%d %H:%M:%S"


def reference_cell(text, kind):
    """(value, missing) of one cell, parsed on its own."""
    if kind == "str":
        return text, False
    if text == "":
        return math.nan, True
    try:
        if kind == "time":
            return (datetime.strptime(text, TIME_FORMAT) - EPOCH).total_seconds(), False
        if kind == "int":
            return float(int(float(text))), False
        v = float(text)
        return v, math.isnan(v)  # a NaN is a missing value
    except (ValueError, OverflowError):
        return math.nan, True


def reference_format(value, missing, kind):
    """One cell as written, formatted on its own."""
    if missing:
        return ""
    if kind == "str":
        return str(value)
    if kind == "int":
        return str(int(round(float(value))))
    if kind == "time":
        return (EPOCH + timedelta(seconds=float(value))).strftime(TIME_FORMAT)
    return repr(float(value))


TRICKY = {
    "num": ["1.5", " 1.5 ", "1_0", "nan", "NaN", "inf", "-inf", "1e400", "-1e400",
            "1e-400", "-0.5", "-0.0", "abc", " ", "\t2\t", "+3", ".5", "5.", "0x10", ""],
    "int": ["7.9", "-7.9", "-0.5", "1e20", "1e400", "nan", "inf", "1_0", " 3 ",
            "abc", "12", "-4", ""],
    "time": ["2150-03-04 05:06:07", "2150-3-4 5:6:7", "2150-03-04",
             "2150-03-04T05:06:07", " 2150-03-04 05:06:07", "2150-03-04 05:06:07 ",
             "2150-03-04 24:00:00", "2150-03-04 23:60:00", "2150-03-04 23:59:60",
             "2150-02-30 00:00:00", "2151-02-29 00:00:00", "2152-02-29 12:00:00",
             "0000-01-01 00:00:00", "1969-12-31 23:59:59", "abc", " ", ""],
    "str": ["", " a ", "x,y", '"q"', "nan", "2150-03-04"],
}

VALID = {
    "num": st.floats(allow_nan=False).map(repr),
    "int": st.integers(-10 ** 9, 10 ** 9).map(str),
    "time": st.datetimes(min_value=datetime(1000, 1, 1),
                         max_value=datetime(9999, 12, 31)).map(
                             lambda d: d.strftime(TIME_FORMAT)),
    "str": st.text(alphabet="ab ,\"'", max_size=5),
}


def write_cells(path, columns):
    """Write {name: [cell, ...]} through the csv module, quoting as it does."""
    names = list(columns)
    n = len(columns[names[0]])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for r in range(n):
            writer.writerow([columns[c][r] for c in names])


def assert_matches_reference(frame, name, kind, cells):
    vals, mask = frame.values(name), frame.mask(name)
    expected = [reference_cell(c, kind) for c in cells]
    assert mask.tolist() == [m for _, m in expected], (name, cells)
    for cell, v, m, (ev, em) in zip(cells, vals, mask, expected):
        if m:
            continue
        if kind == "str":
            assert v == ev
        else:
            # bitwise: -0.0 and 0.0 must not be confused either
            assert np.float64(v).tobytes() == np.float64(ev).tobytes(), (cell, v, ev)


WIDE_COLUMNS = 70
WIDE_KINDS = ("num", "int", "time", "str")


class TestReadCsvOracle:
    @pytest.mark.parametrize("kind", ["num", "int", "time", "str"])
    def test_tricky_cells_match_per_cell_reference(self, tmp_path, kind):
        cells = TRICKY[kind]
        write_cells(tmp_path / "x.csv", {"x": cells})
        frame = read_csv(tmp_path / "x.csv", [("x", kind)])
        assert_matches_reference(frame, "x", kind, cells)

    @pytest.mark.parametrize("kind", ["num", "int", "time"])
    def test_each_tricky_cell_alone_in_a_valid_column(self, tmp_path, kind):
        # one odd cell among well-formed ones, so a column-wide parse must
        # not decide the odd cell's fate for its neighbours or vice versa
        good = {"num": "2.25", "int": "3", "time": "2150-01-01 00:00:01"}[kind]
        for i, odd in enumerate(TRICKY[kind]):
            cells = [good, odd, good]
            write_cells(tmp_path / f"x{i}.csv", {"x": cells})
            frame = read_csv(tmp_path / f"x{i}.csv", [("x", kind)])
            assert_matches_reference(frame, "x", kind, cells)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_columns_match_per_cell_reference(self, tmp_path_factory, data):
        n = data.draw(st.integers(0, 10))
        columns = {}
        for kind in ("num", "int", "time", "str"):
            cell = st.one_of(st.sampled_from(TRICKY[kind]), VALID[kind])
            columns[kind] = data.draw(st.lists(cell, min_size=n, max_size=n))
        path = tmp_path_factory.mktemp("oracle") / "x.csv"
        write_cells(path, columns)
        frame = read_csv(path, [(k, k) for k in columns])
        assert frame.n_rows == n
        for kind, cells in columns.items():
            assert_matches_reference(frame, kind, kind, cells)

    def test_wide_multi_block_table_matches_per_cell_reference(self, tmp_path):
        # 70 columns make 256-row blocks, so 600 rows span three; odd cells
        # sit only past the first block in half the columns, so one block
        # converts column-wide while the next falls back cell by cell
        n, rng = 600, np.random.default_rng(8)
        assert _block_rows(WIDE_COLUMNS) < n // 2
        valid = {
            "num": lambda: repr(float(rng.normal(0, 1e3))),
            "int": lambda: str(int(rng.integers(-10 ** 9, 10 ** 9))),
            "time": lambda: (EPOCH + timedelta(seconds=int(rng.integers(0, 6 * 10 ** 9)))
                             ).strftime(TIME_FORMAT),
            "str": lambda: "".join(rng.choice(list("ab ,\"'"), 3)),
        }
        columns = {}
        for j in range(WIDE_COLUMNS):
            kind = WIDE_KINDS[j % 4]
            cells = [valid[kind]() for _ in range(n)]
            if j % 8 >= 4:
                odd = TRICKY[kind]
                for r in rng.integers(_block_rows(WIDE_COLUMNS), n, 20):
                    cells[r] = odd[int(rng.integers(len(odd)))]
            columns[f"{kind}{j}"] = cells
        write_cells(tmp_path / "wide.csv", columns)
        frame = read_csv(tmp_path / "wide.csv",
                         [(name, WIDE_KINDS[j % 4]) for j, name in enumerate(columns)])
        assert frame.n_rows == n
        for j, (name, cells) in enumerate(columns.items()):
            assert_matches_reference(frame, name, WIDE_KINDS[j % 4], cells)

    def test_short_rows_read_as_blank_cells(self, tmp_path):
        p = tmp_path / "ev.csv"
        p.write_text("a,b,c\n1,2,3\n4\n\n7,8\n")
        f = read_csv(p, [("a", "num"), ("c", "num"), ("b", "str")])
        assert f.mask("a").tolist() == [False, False, True, False]
        assert f.mask("c").tolist() == [False, True, True, True]
        assert f.values("b").tolist() == ["2", "", "", "8"]


class TestWriteCsvOracle:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_bytes_match_per_cell_reference(self, tmp_path_factory, data):
        n = data.draw(st.integers(0, 10))
        draw = lambda strat: data.draw(st.lists(strat, min_size=n, max_size=n))  # noqa: E731
        half = st.integers(-20, 20).map(lambda k: k + 0.5)
        columns = {
            "num": ("num", draw(st.one_of(st.floats(allow_nan=False),
                                          st.sampled_from([-0.0, 0.0, 0.1, 1e16])))),
            "int": ("int", draw(st.one_of(st.integers(-10 ** 12, 10 ** 12).map(float), half))),
            "time": ("time", draw(st.one_of(
                st.floats(-1e9, 1e10),
                st.sampled_from([-0.5, 1.9999994, 1.9999996, 0.0000005, 0.0000015,
                                 5685656767.9999996, -1.0000004])))),
            "str": ("str", draw(VALID["str"])),
        }
        masks = {name: np.array(draw(st.booleans()), dtype=bool) for name in columns}
        frame = PatientFrame.from_columns([
            (name, kind, nan_where(masks[name], vals) if kind != "str" else vals)
            for name, (kind, vals) in columns.items()])
        path = tmp_path_factory.mktemp("fmt") / "x.csv"
        write_csv(frame, path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(columns)
        assert len(rows) == n + 1
        for j, (name, (kind, vals)) in enumerate(columns.items()):
            mask = masks[name] if kind != "str" else np.zeros(n, dtype=bool)
            expected = [reference_format(v, m, kind) for v, m in zip(vals, mask)]
            assert [r[j] for r in rows[1:]] == expected, name

    def test_wide_multi_block_table_matches_per_cell_reference(self, tmp_path):
        # 70 columns make 256-row blocks, so 600 rows span three
        n, rng = 600, np.random.default_rng(9)
        assert _block_rows(WIDE_COLUMNS) < n // 2
        draw = {
            "num": lambda: rng.normal(0, 1e3, n),
            "int": lambda: rng.integers(-20, 20, n) + rng.choice([0.0, 0.5], n),
            "time": lambda: rng.uniform(-1e9, 1e10, n),
            "str": lambda: ["".join(rng.choice(list("ab ,\"'"), 3)) for _ in range(n)],
        }
        columns = {}
        for j in range(WIDE_COLUMNS):
            kind = WIDE_KINDS[j % 4]
            mask = rng.uniform(size=n) < 0.1 if kind != "str" else np.zeros(n, dtype=bool)
            columns[f"{kind}{j}"] = (kind, draw[kind](), mask)
        frame = PatientFrame.from_columns([
            (name, kind, vals if kind == "str" else nan_where(mask, vals))
            for name, (kind, vals, mask) in columns.items()])
        write_csv(frame, tmp_path / "wide.csv")
        with open(tmp_path / "wide.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(columns)
        assert len(rows) == n + 1
        for j, (name, (kind, vals, mask)) in enumerate(columns.items()):
            expected = [reference_format(v, m, kind) for v, m in zip(vals, mask)]
            assert [r[j] for r in rows[1:]] == expected, name


# --- the lean writer against csv.writer ---

# text with every character csv.writer quotes for
QUOTABLE = st.text(alphabet='ab ,"\r\n', max_size=4)


def csv_writer_bytes(frame):
    """The file a plain csv.writer makes of the frame's formatted cells."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(frame.names)
    writer.writerows(zip(*[_format_column(frame._columns[i], frame.kind(n))
                           for i, n in enumerate(frame.names)]))
    return buf.getvalue().encode("utf-8")


def draw_frame(data, n_rows, n_cols):
    """A frame of ``n_cols`` columns of any kind; text cells and names that
    need quoting, blanks and missing numbers among them."""
    names = data.draw(st.lists(QUOTABLE, min_size=n_cols, max_size=n_cols, unique=True))
    cells = {
        "num": st.one_of(st.floats(), st.sampled_from([-0.0, np.inf, np.nan])),
        "int": st.one_of(st.integers(-10 ** 12, 10 ** 12).map(float), st.just(np.nan)),
        "time": st.one_of(st.integers(-30_000_000_000, 200_000_000_000).map(float),
                          st.just(np.nan)),
        "str": QUOTABLE,
    }
    spec = []
    for name in names:
        kind = data.draw(st.sampled_from(KINDS))
        spec.append((name, kind, data.draw(st.lists(cells[kind], min_size=n_rows,
                                                     max_size=n_rows))))
    return PatientFrame.from_columns(spec)


def assert_read_back(back, path):
    """``back`` is the frame read_csv reads from ``path``, column for column
    bitwise, with read-only columns."""
    disk = read_csv(path, [(n, back.kind(n)) for n in back.names])
    assert disk.names == back.names
    for i, name in enumerate(back.names):
        a, b = back._columns[i], disk._columns[i]
        assert not a.flags.writeable
        if back.kind(name) == "str":
            assert a.dtype == b.dtype == object and a.tolist() == b.tolist()
        else:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


class TestLeanWriter:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_bytes_match_csv_writer(self, tmp_path_factory, data):
        # tiny blocks, so that a few rows span several of them
        n_cols = data.draw(st.integers(1, 4))
        frame = draw_frame(data, data.draw(st.integers(0, 9)), n_cols)
        path = tmp_path_factory.mktemp("lean") / "x.csv"
        with mock.patch.object(frame_mod, "_BLOCK_MIN_ROWS", 2), \
                mock.patch.object(frame_mod, "_BLOCK_CELLS", 4):
            write_csv(frame, path)
        assert path.read_bytes() == csv_writer_bytes(frame)

    @pytest.mark.parametrize("special", [",", '"', "\r", "\n"])
    def test_each_quoted_character(self, tmp_path, special):
        for names in (["a", "b"], ["a", f"b{special}"]):
            frame = PatientFrame.from_columns([(names[0], "num", [1.5, 2.0]),
                                               (names[1], "str", ["x", f"y{special}z"])])
            write_csv(frame, tmp_path / "x.csv")
            assert (tmp_path / "x.csv").read_bytes() == csv_writer_bytes(frame)

    def test_one_column_blank_cells_are_quoted(self, tmp_path):
        frame = make_frame(a=("num", [1.0, 0.0, 2.0], [False, True, False]))
        write_csv(frame, tmp_path / "x.csv")
        assert (tmp_path / "x.csv").read_bytes() == b'a\r\n1.0\r\n""\r\n2.0\r\n'
        assert read_csv(tmp_path / "x.csv", [("a", "num")]).equals(frame)

    def test_zero_row_frame_writes_its_header(self, tmp_path):
        frame = make_frame(**{"a,b": ("num", []), "c": ("str", [])})
        write_csv(frame, tmp_path / "x.csv")
        assert (tmp_path / "x.csv").read_bytes() == b'"a,b",c\r\n'

    def test_multi_block_frame_matches_csv_writer(self, tmp_path):
        n, rng = 700, np.random.default_rng(4)
        texts = ["plain", "a,b", 'say "x"', "two\nlines", "cr\r", ""]
        frame = PatientFrame.from_columns([
            ("v", "num", np.where(rng.uniform(size=n) < 0.2, np.nan, rng.normal(0, 1e3, n))),
            ("k", "int", rng.integers(-5, 5, n).astype(float)),
            ("t", "time", rng.uniform(0, 1e9, n)),
            # quotable text in the second block only
            ("s", "str", [texts[i % 6] if i >= 300 else "ok" for i in range(n)]),
        ] + [(f"f{j}", "num", rng.normal(0, 1, n)) for j in range(WIDE_COLUMNS - 4)])
        assert _block_rows(frame.n_cols) < 300
        write_csv(frame, tmp_path / "x.csv")
        assert (tmp_path / "x.csv").read_bytes() == csv_writer_bytes(frame)


# seconds at the first and last instants a time cell parses in, and just past them
TIME_EDGES = [np.datetime64(d, "s").astype(np.int64).item()
              for d in ("0000-12-31T23:59:59", "0001-01-01", "9999-12-31T23:59:59",
                        "10000-01-01")]
NEGATIVE_NAN = -np.float64(np.nan)  # the sign bit set, as 0 * inf makes
# cells around the rounding and range edges of each numeric kind
EDGE_CELLS = {
    "num": st.one_of(st.floats(), st.sampled_from([-0.0, np.inf, NEGATIVE_NAN])),
    "int": st.one_of(st.integers(-10 ** 12, 10 ** 12).map(float),
                     st.integers(-9, 9).map(lambda h: h / 2),  # halves round to even
                     st.floats(-1e3, 1e3),
                     st.sampled_from([-0.0, 1e20, 1e300, np.inf, -np.inf, np.nan, NEGATIVE_NAN])),
    "time": st.one_of(
        st.floats(-7e10, 3e11, allow_nan=False),
        st.builds(lambda t, d: t + d, st.sampled_from(TIME_EDGES),
                  st.sampled_from([-1.0, -0.5, -5e-7, 0.0, 0.4999995, 0.5, 0.9999995])),
        st.sampled_from([np.nan, np.inf, -np.inf, 1e300, -1e300, -0.0, 0.5, -0.5, 1.5])),
    "str": QUOTABLE,
}


class TestReadBack:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_equals_read_csv_of_what_write_csv_writes(self, tmp_path_factory, data):
        n_rows = data.draw(st.integers(0, 9))
        names = data.draw(st.lists(QUOTABLE, min_size=1, max_size=4, unique=True))
        kinds = [data.draw(st.sampled_from(KINDS)) for _ in names]
        columns = [np.array(data.draw(st.lists(EDGE_CELLS[k], min_size=n_rows, max_size=n_rows)),
                            dtype=object if k == "str" else float) for k in kinds]
        frame = PatientFrame(names, kinds, columns)
        path = tmp_path_factory.mktemp("back") / "x.csv"
        # tiny blocks, so that a column's blocks take different parse paths
        with mock.patch.object(frame_mod, "_BLOCK_MIN_ROWS", 2), \
                mock.patch.object(frame_mod, "_BLOCK_CELLS", 4):
            write_csv(frame, path)
        back = read_back(frame)
        assert_read_back(back, path)
        for col, kept in zip(columns, back._columns):
            assert (kept.base is col) == (col.tobytes() == kept.tobytes())

    def test_a_shared_array_is_formatted_once_per_block_through_a_memo(self, tmp_path):
        n = 2 * _block_rows(3) + 1  # three blocks
        shared, text = np.linspace(0, 1, n), np.array(["x"] * n, dtype=object)
        # "b" holds equal values in distinct arrays: a memo matches arrays, not values
        frames = [PatientFrame(["a", "b", "c"], ["num", "num", "str"], [shared, shared * k, text])
                  for k in (1, 1)]
        memo = {}
        with mock.patch.object(frame_mod, "_format_column",
                               wraps=frame_mod._format_column) as fmt:
            for k, f in enumerate(frames):
                write_csv(f, tmp_path / f"{k}.csv", memo)
        formatted = [c.args[1] for c in fmt.call_args_list]
        # per block: "a" once for both writes, "b" and "c" once per write
        assert (formatted.count("num"), formatted.count("str")) == (3 * 3, 2 * 3)
        for k, f in enumerate(frames):
            assert (tmp_path / f"{k}.csv").read_bytes() == csv_writer_bytes(f)

    @pytest.mark.parametrize("kind", ["int", "time"])
    def test_non_finite_and_out_of_range_cells_are_written_blank(self, kind):
        # 1e300 seconds is past the year 9999; as an int it is a whole number
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cells = _format_column(np.array([np.inf, -np.inf, 1e300, np.nan]), kind)
        assert cells == ["", "", "" if kind == "time" else str(int(1e300)), ""]

    def test_nan_payloads_read_back_canonical(self, tmp_path):
        frame = PatientFrame(["v"], ["num"], [np.array([NEGATIVE_NAN, 1.0])])
        write_csv(frame, tmp_path / "x.csv")
        back = read_back(frame)
        assert_read_back(back, tmp_path / "x.csv")
        assert back._columns[0].view(np.uint64)[0] == np.array(np.nan).view(np.uint64)
        assert back._columns[0].base is not frame._columns[0]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_read_of_write_equals_original(tmp_path_factory, data):
    n = data.draw(st.integers(0, 12))
    draw = lambda strat: data.draw(st.lists(strat, min_size=n, max_size=n))  # noqa: E731
    mask = lambda: np.array(draw(st.booleans()), dtype=bool)  # noqa: E731
    frame = PatientFrame.from_columns([
        ("k", "int", nan_where(mask(), draw(st.integers(-10 ** 12, 10 ** 12)))),
        ("v", "num", nan_where(mask(), draw(st.floats(allow_nan=False)))),
        ("t", "time", nan_where(mask(), draw(st.integers(-30_000_000_000, 200_000_000_000)))),
        ("s", "str", draw(st.text(alphabet="ab ,\"'\n", max_size=6))),
    ])
    path = tmp_path_factory.mktemp("rt") / "a.csv"
    write_csv(frame, path)
    back = read_csv(path, [("k", "int"), ("v", "num"), ("t", "time"), ("s", "str")])
    assert back.equals(frame)
    # bitwise, every NaN canonical: the reader returns what was written
    for i in range(3):
        assert back._columns[i].tobytes() == frame._columns[i].tobytes()


def reference_join(left, right, keys, kind):
    """(left_row, right_row-or-None) pairs by nested loops over the rows."""
    def key(frame, r):
        out = tuple(float(frame.values(k)[r]) for k in keys)
        return None if any(math.isnan(v) for v in out) else out

    pairs = []
    for l in range(left.n_rows):
        kl = key(left, l)
        matches = [(l, r) for r in range(right.n_rows)
                   if kl is not None and key(right, r) == kl]
        pairs += matches or ([(l, None)] if kind == "left" else [])
    return pairs


def assert_join_matches_reference(left, right, keys, kind):
    out = join(left, right, keys, kind)
    pairs = reference_join(left, right, keys, kind)
    assert out.n_rows == len(pairs)
    lrows = np.array([p[0] for p in pairs], dtype=int)
    for name in left.names:
        vals, mask = left.values(name), left.mask(name)
        assert out.mask(name).tolist() == mask[lrows].tolist()
        assert out.values(name).tolist() == vals[lrows].tolist() or \
            np.array_equal(out.values(name), vals[lrows], equal_nan=True)
    extra = [n for n in right.names if n not in keys]
    assert out.names == left.names + extra
    for name in extra:
        vals, got = right.values(name), out.values(name)
        text = right.kind(name) == "str"
        for i, (_, r) in enumerate(pairs):
            # an unmatched right cell is NaN, or "" for text
            want = ("" if text else np.nan) if r is None else vals[r]
            assert got[i] == want or (not text and np.isnan(got[i]) and np.isnan(want))


class TestJoinOracle:
    def test_masked_keys_never_match(self):
        left = make_frame(hadm_id=("int", [np.nan, 1.0], np.array([True, False])),
                          a=("num", [1.0, 2.0]))
        right = make_frame(hadm_id=("int", [np.nan, 1.0], np.array([True, False])),
                           b=("num", [5.0, 6.0]))
        inner = join(left, right, ["hadm_id"], "inner")
        assert inner.values("a").tolist() == [2.0]
        outer = join(left, right, ["hadm_id"], "left")
        assert outer.mask("b").tolist() == [True, False]
        assert outer.values("b")[1] == 6.0

    def test_two_keys_match_only_on_both(self):
        left = make_frame(subject_id=("int", [1.0, 1.0, 2.0]),
                          hadm_id=("int", [10.0, 11.0, 10.0]))
        right = make_frame(subject_id=("int", [1.0, 2.0, 1.0]),
                           hadm_id=("int", [11.0, 10.0, 12.0]),
                           b=("str", ["x", "y", "z"]))
        out = join(left, right, ["subject_id", "hadm_id"], "left")
        assert out.values("b").tolist() == ["", "x", "y"]

    def test_left_order_is_output_order(self):
        left = make_frame(k=("int", [3.0, 1.0, 2.0, 1.0]))
        right = make_frame(k=("int", [1.0, 2.0, 3.0]), b=("num", [1.0, 2.0, 3.0]))
        out = join(left, right, ["k"], "inner")
        assert out.values("k").tolist() == [3.0, 1.0, 2.0, 1.0]
        assert out.values("b").tolist() == [3.0, 1.0, 2.0, 1.0]

    def test_left_join_with_empty_right_keeps_left_rows(self):
        left = make_frame(k=("int", [1.0, 2.0]))
        right = make_frame(k=("int", []), b=("str", []))
        out = join(left, right, ["k"], "left")
        assert out.values("k").tolist() == [1.0, 2.0]
        assert out.values("b").tolist() == ["", ""]

    def test_unmatched_text_cell_survives_a_csv_round_trip(self, tmp_path):
        left = make_frame(k=("int", [1.0, 2.0]))
        right = make_frame(k=("int", [1.0]), note=("str", ["x"]), b=("num", [3.0]))
        out = join(left, right, ["k"], "left")
        write_csv(out, tmp_path / "j.csv")
        back = read_csv(tmp_path / "j.csv", [("k", "int"), ("note", "str"), ("b", "num")])
        assert back.equals(out)
        assert out.values("note").tolist() == ["x", ""]
        assert out.mask("note").tolist() == [False, False]

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(["inner", "left"]),
           two_keys=st.booleans())
    def test_random_frames_match_nested_loops(self, data, kind, two_keys):
        """Random frames, empty ones and missing keys included. With its
        repeated key rows dropped, the right frame joins as the nested
        loops do; with them kept, the join raises."""
        keys = ["k1", "k2"] if two_keys else ["k1"]

        def side(name):
            n = data.draw(st.integers(0, 8), label=f"{name} rows")
            rows = lambda strat: data.draw(st.lists(strat, min_size=n, max_size=n))  # noqa: E731
            spec = []
            for k in keys:
                missing = np.array(rows(st.integers(0, 4))) == 0
                spec.append((k, "int", nan_where(missing, rows(st.integers(0, 3)))))
            v = rows(st.floats(-5, 5))
            spec.append(("v" if name == "left" else "w", "num",
                         nan_where(np.array(rows(st.booleans()), dtype=bool), v)))
            spec.append((f"only_{name}", "str", rows(st.sampled_from(["p", "q", ""]))))
            return PatientFrame.from_columns(spec)

        left, right = side("left"), side("right")
        seen, first = set(), []
        for r in range(right.n_rows):
            key = tuple(float(right.values(k)[r]) for k in keys)
            if any(math.isnan(v) for v in key) or key not in seen:
                first.append(r)
            seen.add(key)
        if len(first) < right.n_rows:
            with pytest.raises(DuplicateCohortRow):
                join(left, right, keys, kind)
        assert_join_matches_reference(left, right.take(first), keys, kind)


def reference_aggregate(events, key, variables):
    """The wide path that ``aggregate_by_key`` replaced: sort the events by
    key (missing keys last), spread each variable into a column that is NaN
    on every other variable's rows, and group that wide table by key in
    first-appearance order, which the sort makes ascending."""
    events = events.take(np.argsort(events.values(key), kind="stable"))
    keys = events.values(key)
    wide = [np.where(events.values("variable") == code, events.values("valuenum"), np.nan)
            for code in range(len(variables))]
    live = np.flatnonzero(~np.isnan(keys))
    _, first, inv = np.unique(keys[live], return_index=True, return_inverse=True)
    n_groups = len(first)
    rank = np.empty(n_groups, dtype=int)
    rank[np.argsort(first)] = np.arange(n_groups)
    group = rank[inv]
    by_group = np.argsort(group, kind="stable")
    rows, group = live[by_group], group[by_group]
    out = [(key, events.kind(key), keys[live[np.sort(first)]])]
    for name, column in zip(variables, wide):
        vals = column[rows]
        ok = ~np.isnan(vals)
        vals, g = vals[ok], group[ok]
        counts = np.bincount(g, minlength=n_groups)
        starts = np.cumsum(counts) - counts
        has = counts > 0
        for stat in ("mean", "min", "max"):
            res = np.full(n_groups, np.nan)
            if stat == "mean":
                res[has] = segment_means(vals, starts[has], counts[has])
            elif has.any():
                ufunc = np.minimum if stat == "min" else np.maximum
                res[has] = ufunc.reduceat(vals, starts[has])
            out.append((f"{name}_{stat}", "num", res))
    return PatientFrame.from_columns(out)


def assert_bitwise_equal(got, want):
    assert (got.names, [got.kind(n) for n in got.names]) == \
        (want.names, [want.kind(n) for n in want.names])
    for name in got.names:
        assert got.values(name).tobytes() == want.values(name).tobytes(), name


class TestAggregateOracle:
    def test_matches_wide_reference_on_random_cases(self):
        """400 random cases, bitwise: missing keys, missing values, unlisted
        variables, zero rows and keys with only missing values."""
        rng = np.random.default_rng(16)
        seen = set()
        for case in range(400):
            n = 0 if case % 40 == 0 else int(rng.integers(1, 200))
            keys = nan_where(rng.uniform(size=n) < 0.1,
                             rng.integers(0, int(rng.integers(1, 30)), n))
            pool = ["a", "b", "c", "d"]
            variables = rng.choice(pool, n)
            vals = rng.normal(0, 1, n) * 10.0 ** rng.integers(-3, 6, n)
            vals = nan_where(rng.uniform(size=n) < rng.uniform(0, 0.6), vals)
            vals[rng.uniform(size=n) < 0.05] = -0.0
            listed = [str(v) for v in rng.permutation(pool)[:int(rng.integers(0, 4))]]
            # each name as its position in the list, an unlisted one as -1
            codes = [listed.index(v) if v in listed else -1 for v in variables]
            events = long_events(keys, codes, vals)
            assert_bitwise_equal(aggregate_by_key(events, "stay_id", listed),
                                 reference_aggregate(events, "stay_id", listed))
            in_list = np.isin(variables, listed)
            valued = keys[in_list & ~np.isnan(vals)]
            seen.update(name for name, hit in (
                ("zero rows", n == 0), ("missing key", np.isnan(keys).any()),
                ("missing value", np.isnan(vals).any()), ("unlisted", not in_list.all()),
                ("key without values", not np.isin(keys[~np.isnan(keys)], valued).all()))
                if hit)
        assert seen == {"zero rows", "missing key", "missing value", "unlisted",
                        "key without values"}

    def test_mean_is_bitwise_per_group_np_mean(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 3000))
            keys = rng.integers(0, int(rng.integers(1, 60)), n).astype(float)
            codes = rng.integers(0, 2, n)
            vals = rng.normal(0, 1, n) * 10.0 ** rng.integers(-3, 6, n)
            vals = nan_where(rng.uniform(size=n) < 0.2, vals)
            out = aggregate_by_key(long_events(keys, codes, vals), "stay_id", ["v", "w"])
            assert out.values("stay_id").tolist() == sorted(set(keys.tolist()))
            for i, k in enumerate(out.values("stay_id")):
                for code, name in enumerate("vw"):
                    live = vals[(keys == k) & (codes == code) & ~np.isnan(vals)]
                    if live.size == 0:
                        assert out.mask(f"{name}_mean")[i] and out.mask(f"{name}_max")[i]
                        continue
                    assert out.values(f"{name}_mean")[i] == np.mean(live)
                    assert out.values(f"{name}_min")[i] == live.min()
                    assert out.values(f"{name}_max")[i] == live.max()

    def test_masked_key_rows_dropped_and_keys_ascend(self):
        f = long_events([2.0, 1.0, 2.0, np.nan, 3.0], [0, 0, 0, 0, -1],
                        [1.0, 2.0, 3.0, 4.0, 5.0])
        out = aggregate_by_key(f, "stay_id", ["v"])
        assert out.values("stay_id").tolist() == [1.0, 2.0, 3.0]
        assert out.values("v_mean").tolist()[:2] == [2.0, 2.0]
        assert out.mask("v_mean").tolist() == [False, False, True]


# --- reads through a 24 h window ---

DAY = 86400.0
T0 = parse_time("2150-01-01 00:00:00")
# keys and intimes: a NaN intime, a fractional one and a nine-digit key
# (none of which takes part in the scan), a one-digit key and a zero key
WINDOW_STAYS = PatientFrame.from_columns([
    ("stay_id", "int", [30000000, 30000001, 7, 0, 30000002, 123456789, 30000003]),
    ("intime", "time", [T0, T0 + 1.5 * DAY, T0 + 3 * DAY, T0 - DAY, np.nan, T0, T0 + 0.5]),
])
# stays every one of whose lines the scan can rule on
PLAIN_STAYS = WINDOW_STAYS.take([0, 1, 2, 3, 4])
EVENT_SCHEMA = [("stay_id", "int"), ("charttime", "time"), ("valuenum", "num")]
ODD_KEYS = ["030000000", " 30000000", "3e7", "30000000.0", "+30000000", "30000000 ",
            "", "99999999", "00"]
ODD_TIMES = ["2150-01-05  00:00:00", "2150-01-05  1:00:00", "2150-01-05T00:00:00",
             "0000-01-05 00:00:00", "2150-13-05 00:00:00", "2150-01-05 24:00:00",
             "2150-02-30 00:00:00", " 2150-01-05 00:00:0", "2150-01-05 00:00:00 ",
             "2150-01-05", ""]
# raw lines: first four on which csv splits rows or fields elsewhere than a
# comma split would (quotes, a lone CR, a NUL), then blank, short and long rows
ODD_LINES = ['30000000,"2150-01-05 00:00:00",1.0', '"30000000",2150-01-05 00:00:00,1.0',
             "30000000,2150-01-05 00:00:00,1.0\r30000000,2150-01-05 00:00:00,2.0",
             "30000000,2150-01-05 00:00:00,1\x00.0", "", "30000000", "30000000,",
             "30000000,2150-01-05 00:00:00,1.0,extra"]


def windowed_read(path, stays, schema=EVENT_SCHEMA):
    return read_csv(path, schema, stay_window(stays, "stay_id"))


def window_cells(rng, stays, n):
    """``n`` canonical (key, time) cells: keys of ``stays`` or of no stay,
    times at and around each stay's window edges or anywhere near them."""
    keys = stays.values("stay_id").astype(int).tolist() + [99999999]
    intimes = stays.values("intime").tolist() + [T0]
    cells = []
    for _ in range(n):
        k = int(rng.integers(len(keys)))
        base = T0 if np.isnan(intimes[k]) else intimes[k]
        offset = [-1.0, 0.0, DAY - 1, DAY, float(rng.integers(-2 * DAY, 3 * DAY))][
            int(rng.integers(5))]
        cells.append((str(keys[k]), format_time(np.floor(base) + offset)))
    return cells


def write_events(path, cells, order=("stay_id", "charttime", "valuenum"), newline="\n",
                 odd_lines=(), end=True):
    """An event file of (key, time) cells with a value each; ``odd_lines``
    (position, raw line) are put in as they stand."""
    lines = [",".join(order)]
    for i, (key, time) in enumerate(cells):
        row = {"stay_id": key, "charttime": time, "valuenum": repr(i + 0.5)}
        lines.append(",".join(row[name] for name in order))
    for pos, line in sorted(odd_lines, reverse=True):
        lines.insert(1 + pos, line)
    path.write_bytes((newline.join(lines) + (newline if end else "")).encode("utf-8"))


def assert_bitwise_equal(a, b):
    assert a.names == b.names and a.n_rows == b.n_rows
    for name in a.names:
        assert a.values(name).tobytes() == b.values(name).tobytes(), name


def assert_window_agrees(path, stays=WINDOW_STAYS):
    """Read-then-window and the windowed read then the window agree bitwise,
    unlinked counts included, or both raise the same error."""
    try:
        plain = read_csv(path, EVENT_SCHEMA)
    except (csv.Error, ValueError) as exc:  # a NUL (before Python 3.11), bad UTF-8
        with pytest.raises(type(exc)):
            windowed_read(path, stays)
        return None
    windowed = windowed_read(path, stays)
    (want, want_unlinked), (got, got_unlinked) = (window_24h(plain, stays),
                                                   window_24h(windowed, stays))
    assert_bitwise_equal(got, want)
    assert got_unlinked == want_unlinked
    return plain, windowed


class TestWindowedRead:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_random_files_agree_with_read_then_window(self, tmp_path_factory, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        cells = window_cells(rng, WINDOW_STAYS, data.draw(st.integers(0, 40)))
        for i in range(len(cells)):
            if rng.random() < 0.15:
                cells[i] = (ODD_KEYS[int(rng.integers(len(ODD_KEYS)))], cells[i][1])
            if rng.random() < 0.15:
                cells[i] = (cells[i][0], ODD_TIMES[int(rng.integers(len(ODD_TIMES)))])
        odd = data.draw(st.lists(st.tuples(st.integers(0, len(cells)),
                                           st.sampled_from(ODD_LINES)), max_size=2))
        order = data.draw(st.sampled_from([("stay_id", "charttime", "valuenum"),
                                           ("valuenum", "charttime", "stay_id")]))
        path = tmp_path_factory.mktemp("window") / "ev.csv"
        write_events(path, cells, order, data.draw(st.sampled_from(["\n", "\r\n"])),
                     odd, end=data.draw(st.booleans()))
        with mock.patch.object(frame_mod, "_SCAN_BYTES", data.draw(st.sampled_from(
                [1, 40, 97, 1 << 20]))):
            assert_window_agrees(path)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), scan=st.sampled_from([40, 97, 1 << 20]),
           newline=st.sampled_from(["\n", "\r\n"]),
           order=st.permutations(["stay_id", "charttime", "valuenum"]))
    def test_canonical_files_keep_exactly_in_window_and_unlinked_rows(
            self, tmp_path_factory, seed, scan, newline, order):
        cells = window_cells(np.random.default_rng(seed), PLAIN_STAYS, 60)
        path = tmp_path_factory.mktemp("window") / "ev.csv"
        write_events(path, cells, order, newline)
        with mock.patch.object(frame_mod, "_SCAN_BYTES", scan):
            plain, windowed = assert_window_agrees(path, PLAIN_STAYS)
        row = frame_mod.index_of(PLAIN_STAYS.values("stay_id"), plain.values("stay_id"))
        intime = np.append(PLAIN_STAYS.values("intime"), np.nan)[row]
        t = plain.values("charttime")
        wanted = np.isnan(intime) | ((t >= intime) & (t < intime + DAY))
        assert_bitwise_equal(windowed, plain.filter(wanted))

    def test_window_edges(self, tmp_path):
        edges = ["2149-12-31 23:59:59", "2150-01-01 00:00:00", "2150-01-01 23:59:59",
                 "2150-01-02 00:00:00"]
        write_events(tmp_path / "ev.csv", [("30000000", t) for t in edges])
        got = windowed_read(tmp_path / "ev.csv", WINDOW_STAYS)
        assert [format_time(t) for t in got.values("charttime")] == edges[1:3]

    def test_odd_keys_and_times_are_left_to_the_window(self, tmp_path):
        # every cell here is out of its window if read loosely; only the
        # canonical times, which all parse to NaN, may be skipped
        cells = [(k, "2150-01-05 00:00:00") for k in ODD_KEYS]
        cells += [("30000000", t) for t in ODD_TIMES]
        write_events(tmp_path / "ev.csv", cells)
        plain, windowed = assert_window_agrees(tmp_path / "ev.csv")
        skipped = set(plain.values("valuenum")) - set(windowed.values("valuenum"))
        assert sorted(cells[int(v)][1] for v in skipped) == [
            "0000-01-05 00:00:00", "2150-01-05 24:00:00", "2150-02-30 00:00:00",
            "2150-13-05 00:00:00"]

    def test_stays_outside_the_scan_keep_their_lines(self, tmp_path):
        # a NaN intime, a nine-digit key, and a fractional intime whose window
        # ends half a second after the whole second its bound formats to
        cells = [("30000002", "2150-01-09 00:00:00"), ("123456789", "2150-01-09 00:00:00"),
                 ("30000003", "2150-01-02 00:00:00")]
        write_events(tmp_path / "ev.csv", cells)
        plain, windowed = assert_window_agrees(tmp_path / "ev.csv")
        assert windowed.n_rows == plain.n_rows == 3
        assert window_24h(windowed, WINDOW_STAYS)[0].values("valuenum").tolist() == [2.5]

    def test_a_fractional_end_takes_no_part(self, tmp_path):
        # the end formats to the whole second before it, still in the window
        write_events(tmp_path / "ev.csv", [("30000000", "2150-01-01 23:59:59")])
        window = frame_mod.Window("stay_id", "charttime", [30000000.0], [T0], [T0 + DAY - 0.5])
        assert read_csv(tmp_path / "ev.csv", EVENT_SCHEMA, window).n_rows == 1

    def test_header_line_is_always_read(self, tmp_path):
        # a header whose key and time names would be ruled out as a data line
        (tmp_path / "ev.csv").write_text("7,2150-01-09 00:00:00\n7,2150-01-09 00:00:00\n")
        schema = [("7", "int"), ("2150-01-09 00:00:00", "str")]
        window = frame_mod.Window("7", "2150-01-09 00:00:00", [7.0], [T0], [T0 + DAY])
        got = read_csv(tmp_path / "ev.csv", schema, window)
        assert got.n_rows == 0 and got.names == ["7", "2150-01-09 00:00:00"]

    @pytest.mark.parametrize("odd", ODD_LINES[:4])
    def test_rest_of_the_file_passes_from_a_chunk_that_cannot_be_split(self, tmp_path, odd):
        # one line per chunk: the lines before the odd one are skipped, the
        # odd one and every line after it are read
        cells = [("30000000", "2150-01-05 00:00:00")] * 6
        write_events(tmp_path / "ev.csv", cells, odd_lines=[(3, odd)])
        size = len("30000000,2150-01-05 00:00:00,0.5\n")
        with mock.patch.object(frame_mod, "_SCAN_BYTES", size):
            plain, windowed = assert_window_agrees(tmp_path / "ev.csv")
        assert windowed.n_rows == plain.n_rows - 3

    def test_header_with_a_quote_passes_the_file(self, tmp_path):
        cells = [("30000000", "2150-01-05 00:00:00")] * 3
        write_events(tmp_path / "ev.csv", cells)
        text = (tmp_path / "ev.csv").read_text().replace("valuenum", '"valuenum"', 1)
        (tmp_path / "ev.csv").write_text(text)
        plain, windowed = assert_window_agrees(tmp_path / "ev.csv")
        assert windowed.n_rows == plain.n_rows == 3

    def test_line_across_chunks_and_no_trailing_newline(self, tmp_path):
        cells = [("30000000", "2150-01-05 00:00:00"), ("30000000", "2150-01-01 05:00:00"),
                 ("30000000", "2150-01-05 00:00:00")]
        write_events(tmp_path / "ev.csv", cells, end=False)
        with mock.patch.object(frame_mod, "_SCAN_BYTES", 7):
            plain, windowed = assert_window_agrees(tmp_path / "ev.csv")
        # the last line, with no newline, is read as it stands
        assert windowed.values("valuenum").tolist() == [1.5, 2.5]

    def test_invalid_utf8_in_a_skipped_line_raises(self, tmp_path):
        # far enough from the header that reading the header decodes none of it
        write_events(tmp_path / "ev.csv", [("30000000", "2150-01-05 00:00:00")] * 1000)
        raw = (tmp_path / "ev.csv").read_bytes().replace(b",900.5", b",900.\xff5")
        (tmp_path / "ev.csv").write_bytes(raw)
        assert frame_mod.read_header(tmp_path / "ev.csv") == ["stay_id", "charttime", "valuenum"]
        with pytest.raises(IoFailure, match="ev.csv: 'utf-8' codec"):
            read_csv(tmp_path / "ev.csv", EVENT_SCHEMA)
        for scan in (8, 1 << 20):
            with mock.patch.object(frame_mod, "_SCAN_BYTES", scan), \
                    pytest.raises(IoFailure, match="ev.csv: 'utf-8' codec"):
                windowed_read(tmp_path / "ev.csv", WINDOW_STAYS)

    def test_invalid_utf8_in_the_header_raises(self, tmp_path):
        (tmp_path / "ev.csv").write_bytes(b"stay_id,chart\xfftime\n1,2\n")
        for read in (frame_mod.read_header, lambda p: read_csv(p, [("stay_id", "int")])):
            with pytest.raises(IoFailure, match="ev.csv: 'utf-8' codec"):
                read(tmp_path / "ev.csv")

    def test_window_columns_must_be_in_the_header(self, tmp_path):
        (tmp_path / "ev.csv").write_text("stay_id,time\n30000000,2150-01-05 00:00:00\n")
        with pytest.raises(MissingColumn, match="charttime"):
            windowed_read(tmp_path / "ev.csv", WINDOW_STAYS, [("stay_id", "int")])


def test_invalid_date_in_a_long_time_block_reads_as_nan():
    # the scan compares time bytes and never casts them: numpy 2.4 crashes
    # casting a bytes array of 1000+ cells with an invalid date to
    # datetime64, while the list of str _parse_column passes raises
    cells = [format_time(T0 + 3600.0 * i) for i in range(2340)]
    cells[1234] = "2150-13-45 99:99:99"
    got = frame_mod._parse_column(cells, "time")
    assert np.isnan(got[1234])
    want = np.array(cells[:1234] + cells[1235:], dtype="datetime64[s]").astype(np.int64)
    assert got[np.arange(2340) != 1234].tobytes() == want.astype(float).tobytes()
