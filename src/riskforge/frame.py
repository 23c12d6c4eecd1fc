"""Column-oriented in-memory table; a NaN is a missing number.

A PatientFrame stores each column as a numpy array: numeric columns as
floats, where NaN marks a missing cell, so "blank" and "zero" stay
distinguishable end to end; text columns as strings, which are never
missing (a blank text cell is the empty string). Frames are immutable:
every operation returns a new frame, no operation writes to a column
array, and frames may share them (``values`` hands out a copy). On disk a
missing number is a blank cell, and a blank numeric cell reads back as
NaN, so a round trip keeps every gap.

The CSV codec converts whole columns (in blocks of rows, to bound memory)
and keeps the rules of a cell-by-cell parser. A blank cell is missing, and
so is a numeric cell that does not parse, never zero. ``num`` cells parse as
``float`` does ("nan" is missing, "inf" is kept); ``int`` cells truncate
toward zero as ``int(float(text))`` does, and non-finite ones are missing;
``str`` cells are read as they stand. A numeric column converts in one
``np.array(cells, dtype=float)`` and, if a malformed cell makes that raise,
cell by cell. A ``time`` column whose cells all read ``YYYY-MM-DD
HH:MM:SS`` parses through ``datetime64[s]``; any other goes cell by cell
through ``strptime``, since off that form the two disagree (numpy takes a
bare date, a ``T`` or a leading space, strptime unpadded fields).

A read through a Window (a key column, a time column, and per key a
[start, end) of seconds) skips, before any parsing, the lines a numpy
scan of the raw bytes proves to fall outside their key's window: the key
cell is byte-equal to the key's ``str(int(k))`` and the time cell is
canonical ``YYYY-MM-DD HH:MM:SS`` sorting outside the formatted bounds.
Such a cell parses to the time it sorts as or to NaN, so the window
applied to the parsed frame would drop the line too; every other line,
and the rest of a file from the first chunk whose fields a comma split
might misplace (a quote, a NUL, a lone CR), is parsed as without one.

Writing formats each column once per block of rows: a ``num`` column in
one ``repr`` of its list, whose cells round-trip every float. The writer
follows csv.writer's minimal quoting. A cell is quoted when it holds a
comma, a double quote, a carriage return or a line feed, which only a
text cell can, and a one-column row whose cell is blank is written as
``""``. A block with such a cell goes through csv.writer; every other
block is joined with "," and "\\r\\n", which writes the same bytes. A
memo dict passed to successive writes formats a column array they share
once per block. ``read_back`` computes, from the values alone, the frame
read_csv reads from what write_csv writes, so a process need not parse
the CSV it has just written.

A join is a lookup: each left row takes the one right row whose numeric
keys all equal its own, found through ``index_of``, and a repeated right
key is an error. The one group-by reduces long-format (key, variable,
value) events, each variable an integer position in the caller's list of
names, to a per-key mean, min and max of each variable through one stable
sort of (key, variable) cell codes.
"""

import csv
import gc
import io
import itertools
import re
from collections import namedtuple
from datetime import datetime, timedelta

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DuplicateCohortRow, IoFailure, MissingColumn

KINDS = ("num", "int", "str", "time")
NUMERIC_KINDS = ("num", "int", "time")
TIME_FORMAT = "%Y-%m-%d %H:%M:%S"
_EPOCH = datetime(1970, 1, 1)
# cells converted per block of rows; bounds the cell strings held at once,
# though a block never has fewer than _BLOCK_MIN_ROWS rows, so that a wide
# table is not converted a few rows per numpy call
_BLOCK_CELLS = 1 << 14
_BLOCK_MIN_ROWS = 256
# a time cell numpy and strptime read alike; year 0 is left to strptime
_TIME_CELL = re.compile(
    r"(?:(?!0000)[0-9]{4}-[0-9]{2}-[0-9]{2} [0-9]{2}:[0-9]{2}:[0-9]{2})?")
# a character that makes csv.writer quote a cell
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')
# bytes per chunk of a windowed read's scan. Numpy passes over a whole
# event table would hold several arrays of its size at once; 64 KiB keeps
# every buffer of a chunk under malloc's default 128 KiB mmap threshold.
# Measured on the 2-vCPU host: 1 MiB chunks scanned a 17.7 MB table in
# 99-144 ms and 64 KiB ones in 93-121 ms, but 256 KiB and larger ones left
# heap behind that later stages' peaks added to (perfbench wide_notes
# peak_rss_mb +2.4%, against +0.5% with 64 KiB)
_SCAN_BYTES = 1 << 16
# a canonical 'YYYY-MM-DD HH:MM:SS' cell byte by byte: its lowest bytes, how
# far each may rise (9 for a digit, 0 for a separator), and each digit's
# place value in one YYYYMMDDhhmmss number
_STAMP_LOW = np.frombuffer(b"0000-00-00 00:00:00", np.uint8)
_STAMP_SPAN = np.frombuffer(b"9999-99-99 99:99:99", np.uint8) - _STAMP_LOW
_STAMP_WEIGHTS = np.zeros(19)
_STAMP_WEIGHTS[_STAMP_SPAN > 0] = 10.0 ** np.arange(13, -1, -1)
_STAMP_ZERO = 48 * _STAMP_WEIGHTS.sum()
# the low k bytes of a little-endian word, k = 0..8
_BYTE_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
# seconds at 0000-01-01 and 10000-01-01: the years a four-digit cell holds
_STAMP_MIN, _STAMP_END = (np.datetime64(d, "s").astype(np.int64).item()
                          for d in ("0000-01-01", "10000-01-01"))
# seconds at 0001-01-01: a cell of year 0000 parses to NaN
_TIME_FIRST = np.datetime64("0001-01-01", "s").astype(np.int64).item()

# Lines of an event table that read_csv may skip: those whose ``key`` cell
# names one of ``keys`` and whose ``time`` cell falls outside that key's
# [start, end) seconds
Window = namedtuple("Window", "key time keys start end")


def parse_time(text):
    """'YYYY-MM-DD HH:MM:SS' -> float seconds since 1970-01-01."""
    dt = datetime.strptime(text, TIME_FORMAT)
    return (dt - _EPOCH).total_seconds()


def format_time(seconds):
    return (_EPOCH + timedelta(seconds=float(seconds))).strftime(TIME_FORMAT)


class PatientFrame:
    def __init__(self, names, kinds, columns):
        if not (len(names) == len(kinds) == len(columns)):
            raise ValueError("frame arrays out of step")
        lengths = {len(c) for c in columns}
        if len(lengths) > 1:
            raise ValueError(f"ragged columns: lengths {sorted(lengths)}")
        if len(set(names)) != len(names):
            raise ValueError("duplicate column names")
        for k in kinds:
            if k not in KINDS:
                raise ValueError(f"unknown column kind {k!r}")
        self._names = list(names)
        self._kinds = list(kinds)
        self._columns = [np.asarray(c) for c in columns]
        self._index = {n: i for i, n in enumerate(self._names)}

    # --- introspection ---

    @property
    def names(self):
        return list(self._names)

    @property
    def n_rows(self):
        return 0 if not self._columns else len(self._columns[0])

    @property
    def n_cols(self):
        return len(self._names)

    def has_column(self, name):
        return name in self._index

    def kind(self, name):
        return self._kinds[self._col(name)]

    def values(self, name):
        return self._columns[self._col(name)].copy()

    def mask(self, name):
        """Missing cells of a column: its NaNs; a text cell is never missing."""
        i = self._col(name)
        if self._kinds[i] == "str":
            return np.zeros(self.n_rows, dtype=bool)
        return np.isnan(self._columns[i])

    def matrix(self, names):
        """The named columns as one rows x names float array; missing cells are NaN."""
        cols = [self._columns[self._col(n)].astype(float) for n in names]
        return np.column_stack(cols) if cols else np.zeros((self.n_rows, 0))

    def _col(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise MissingColumn(name) from None

    # --- constructors ---

    @classmethod
    def from_columns(cls, spec):
        """Build from [(name, kind, values), ...].

        Numeric values are floats, NaN where a cell is missing; text values
        are strings, with None read as "".
        """
        names, kinds, cols = [], [], []
        for name, kind, values in spec:
            if kind in NUMERIC_KINDS:
                arr = np.array(values, dtype=float)
            else:
                arr = np.array(["" if v is None else str(v) for v in values], dtype=object)
            names.append(name)
            kinds.append(kind)
            cols.append(arr)
        return cls(names, kinds, cols)

    # --- derived frames ---

    def take(self, row_idx):
        idx = np.asarray(row_idx, dtype=int)
        return PatientFrame(self._names, self._kinds, [c[idx] for c in self._columns])

    def filter(self, keep):
        keep = np.asarray(keep, dtype=bool)
        return self.take(np.flatnonzero(keep))

    def select(self, names):
        idx = [self._col(n) for n in names]
        return PatientFrame(
            [self._names[i] for i in idx],
            [self._kinds[i] for i in idx],
            [self._columns[i] for i in idx],
        )

    def drop(self, names):
        gone = set(names)
        return self.select([n for n in self._names if n not in gone])

    def with_column(self, name, kind, values):
        """New frame with a column appended (or replaced in place)."""
        added = PatientFrame.from_columns([(name, kind, values)])
        if added.n_rows != self.n_rows and self.n_cols > 0:
            raise ValueError("column length does not match frame")
        names, kinds = list(self._names), list(self._kinds)
        cols = list(self._columns)
        if name in self._index:
            i = self._index[name]
            kinds[i] = kind
            cols[i] = added._columns[0]
        else:
            names.append(name)
            kinds.append(kind)
            cols.append(added._columns[0])
        return PatientFrame(names, kinds, cols)

    def rename(self, mapping):
        return PatientFrame([mapping.get(n, n) for n in self._names], self._kinds,
                            self._columns)

    def equals(self, other):
        if self._names != other._names or self._kinds != other._kinds:
            return False
        if self.n_rows != other.n_rows:
            return False
        return all(np.array_equal(a, b, equal_nan=k != "str")
                   for a, b, k in zip(self._columns, other._columns, self._kinds))


# --- CSV round trip ---


def _or_nan(parse, text):
    try:
        return parse(text)
    except (ValueError, OverflowError):
        return np.nan


def _parse_column(cells, kind):
    """One column of cell strings -> its values."""
    if kind == "str":
        return np.array(cells, dtype=object)
    try:
        if kind != "time":
            text = np.array(cells, dtype=object)
            text[text == ""] = "nan"
            vals = text.astype(float)
        elif all(map(_TIME_CELL.fullmatch, cells)):
            stamps = np.array(cells, dtype="datetime64[s]")
            vals = np.where(np.isnat(stamps), np.nan, stamps.astype(np.int64))
        else:
            raise ValueError("a time cell off the canonical form")
    except ValueError:  # a malformed cell: parse the column cell by cell
        parse = parse_time if kind == "time" else float
        vals = np.array([_or_nan(parse, c) for c in cells], dtype=float)
    if kind == "int":
        vals[~np.isfinite(vals)] = np.nan
        vals = np.trunc(vals) + 0.0  # +0.0: int(-0.5) is 0, not -0
    return vals


def read_header(path):
    """The column names on the first line of a CSV file."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            header = next(csv.reader(fh), None)
    except OSError as exc:
        raise IoFailure(f"{path}: {exc}") from exc
    if header is None:
        raise IoFailure(f"{path}: empty file, no header")
    return header


def _block_rows(n_cols):
    """Rows per converted block: max(16 384, 256 * n_cols) cells at most."""
    return max(_BLOCK_MIN_ROWS, _BLOCK_CELLS // max(1, n_cols))


def _stamps(cells):
    """Rows of 19 cell bytes -> YYYYMMDDhhmmss as a float (exact: each
    partial sum is an integer below 2**53), which orders canonical cells
    as their bytes sort; -1 where a row is off the canonical ``YYYY-MM-DD
    HH:MM:SS`` form."""
    ok = ((cells - _STAMP_LOW) <= _STAMP_SPAN).all(axis=1)  # a byte below wraps
    return np.where(ok, cells @ _STAMP_WEIGHTS - _STAMP_ZERO, -1.0)


def _key_words(padded, start, size):
    """The bytes of each key cell (``start``, ``size``) in ``padded``, its
    first 8 zero-padded, as one little-endian word: cells of at most 8
    bytes, none of them a NUL, have equal words where their bytes are equal."""
    cells = sliding_window_view(padded, 8)[start].view("<u8")[:, 0]
    return cells & _BYTE_MASKS[np.minimum(size, 8)]


def _window_stays(window):
    """The stays a line can be ruled out against: (their key cells as
    ``_key_words``, ascending, and their window bounds as ``_stamps``).
    Only a key that is a whole number in [0, 1e8) with whole-second bounds
    in years 0000-9999 takes part, so each key's cell, ``str(int(k))``,
    fits one word and each bound formats to a canonical cell."""
    keys, start, end = (np.asarray(v, dtype=float)
                        for v in (window.keys, window.start, window.end))
    ok = ((keys >= 0) & (keys < 1e8) & (np.trunc(keys) == keys)
          & (start >= _STAMP_MIN) & (end < _STAMP_END)
          & (np.trunc(start) == start) & (np.trunc(end) == end))
    words = keys[ok].astype(np.int64).astype("S8").view("<u8")
    order = np.argsort(words, kind="stable")
    text = _format_times(np.concatenate([start[ok][order], end[ok][order]]))
    bounds = _stamps(np.frombuffer(text.astype("S19").tobytes(), np.uint8).reshape(-1, 19))
    return words[order], bounds[:words.size], bounds[words.size:]


def _in_window(chunk, fields, stays):
    """Per line of ``chunk`` (bytes ending in a newline): False where its
    key cell is that of a stay in ``stays`` and its time cell, canonical,
    sorts outside that stay's bounds; with each line's first byte and the
    byte after its newline. None where a quote, a NUL or a CR not followed
    by LF could make a CSV row or field end elsewhere than at a newline or
    a comma.

    Every comma and newline is a delimiter; field j of a line runs from
    the delimiter j places after the line's own first one (the newline
    before it) to the next, so fields need no per-line loop.
    """
    if b'"' in chunk or b"\0" in chunk:
        return None
    keys, lower, upper = stays
    # zero bytes past the end, so that a cell's first 19 bytes can always be read
    padded = np.frombuffer(chunk + bytes(19), np.uint8)
    arr = padded[:len(chunk)]
    delim = np.concatenate(([-1], np.flatnonzero((arr == 44) | (arr == 10))))
    last = np.flatnonzero(arr[delim[1:]] == 10) + 1  # each line's newline in delim
    if np.count_nonzero(arr == 13) != np.count_nonzero(arr[delim[last] - 1] == 13):
        return None
    first = np.concatenate(([0], last[:-1]))
    keep = np.ones(last.size, dtype=bool)
    # a short line (too few fields) is never ruled out
    rows = np.flatnonzero(first + max(fields) < last)

    def cell(rows, j):
        """Start and size of field j of each line in ``rows``; a CR before
        the newline is not part of the last field."""
        start = delim[first[rows] + j] + 1
        end = delim[first[rows] + j + 1]
        return start, end - (arr[end - 1] == 13) - start

    start, size = cell(rows, fields[0])
    words = _key_words(padded, start, size)
    stay = np.minimum(np.searchsorted(keys, words), keys.size - 1)
    ok = (size <= 8) & (keys[stay] == words)
    rows, stay = rows[ok], stay[ok]
    start, size = cell(rows, fields[1])
    whole = size == 19
    rows, stay = rows[whole], stay[whole]
    stamp = _stamps(sliding_window_view(padded, 19)[start[whole]])
    keep[rows[(stamp >= 0) & ((stamp < lower[stay]) | (stamp >= upper[stay]))]] = False
    return keep, delim[first] + 1, delim[last] + 1


def _window_bytes(fh, header, window):
    """The bytes of the CSV open as binary ``fh``, in pieces of whole lines,
    less lines ``window`` rules out (``read_csv`` says which).

    The bytes are scanned in chunks of about ``_SCAN_BYTES`` cut after a
    newline. Every chunk that is not ASCII is decoded whole, so a UTF-8
    error anywhere raises. From the first chunk ``_in_window`` cannot
    split into fields, the header's included, the rest passes unfiltered;
    so does a last line with no newline. The header line is always kept.
    """
    stays = _window_stays(window)
    fields = (header.index(window.key), header.index(window.time))
    scan, top, tail = stays[0].size > 0, True, b""
    while True:
        more = fh.read(_SCAN_BYTES)
        buf = tail + more
        cut = buf.rfind(b"\n") + 1 if more else len(buf)
        chunk, tail = buf[:cut], buf[cut:]
        if not chunk.isascii():
            chunk.decode("utf-8")
        if scan and chunk.endswith(b"\n"):
            # the cells are compared as bytes, never cast: numpy 2.4 crashes
            # casting a bytes (S) array of 1000+ cells with an invalid date
            # to datetime64, where a list of str raises ValueError
            found = _in_window(chunk, fields, stays)
            scan = found is not None
            if scan:
                keep, begin, stop = found
                keep[0] |= top  # the header line
                if not keep.all():
                    # one slice per run of kept lines
                    edge = np.flatnonzero(np.diff(np.concatenate(([0], keep, [0]))))
                    chunk = b"".join([chunk[s:e] for s, e in zip(
                        begin[edge[0::2]].tolist(), stop[edge[1::2] - 1].tolist())])
        if chunk:
            top = False
            yield chunk
        if not more:
            return


def read_csv(path, schema, window=None):
    """Read a CSV into a PatientFrame.

    ``schema`` is [(name, kind), ...]; file columns not in the schema are
    ignored, schema columns absent from the header raise MissingColumn.
    Blank cells are missing; short rows read as blank cells. Row order is
    preserved. The module docstring gives the cell rules.

    With a ``window`` (a Window), a byte scan skips lines that provably
    fall outside their stay's window: the line's ``window.key`` cell is
    byte-equal to ``str(int(k))`` of a stay key k in [0, 1e8) whose bounds
    are whole seconds, and its ``window.time`` cell is 19 bytes of canonical ``YYYY-MM-DD
    HH:MM:SS`` that sort below that stay's ``start`` or at or above its
    ``end``, formatted as the writer formats times. Such a cell parses to
    the time it sorts as, or to NaN, so the same rule applied to the parsed
    frame drops the line too. Every other line is read as without a window.
    """
    header = read_header(path)
    for name in [n for n, _ in schema] + ([] if window is None else [window.key, window.time]):
        if name not in header:
            raise MissingColumn(name)
    positions = [header.index(name) for name, _ in schema]
    block_rows = _block_rows(len(header))
    blocks = []
    # the reader makes a list per row and the transpose a tuple per column;
    # none can be part of a cycle, so collecting meanwhile is wasted work
    # (a quarter of the read time on a 300 000-row file)
    collecting = gc.isenabled()
    gc.disable()
    try:
        with (open(path, "r", encoding="utf-8", newline="") if window is None
              else open(path, "rb")) as fh:
            # each piece is decoded and split into lines as the file would be
            reader = csv.reader(fh if window is None else itertools.chain.from_iterable(
                io.TextIOWrapper(io.BytesIO(piece), encoding="utf-8", newline="")
                for piece in _window_bytes(fh, header, window)))
            next(reader)  # the header
            while True:
                rows = list(itertools.islice(reader, block_rows))
                cells = list(itertools.zip_longest(*rows, fillvalue=""))
                blank = ("",) * len(rows)
                blocks.append([_parse_column(cells[j] if j < len(cells) else blank, kind)
                               for j, (_, kind) in zip(positions, schema)])
                if len(rows) < block_rows:
                    break
    except OSError as exc:
        raise IoFailure(f"{path}: {exc}") from exc
    finally:
        if collecting:
            gc.enable()
    columns = [np.concatenate([b[c] for b in blocks]) for c in range(len(schema))]
    return PatientFrame([n for n, _ in schema], [k for _, k in schema], columns)


def _whole_seconds(seconds):
    """Seconds as ``format_time`` writes them: timedelta rounds to the
    microsecond, half to even, and strftime drops the fraction."""
    whole = np.trunc(seconds)
    return whole + np.floor(np.rint((seconds - whole) * 1e6) / 1e6)


def _format_times(seconds):
    """Cells as ``format_time`` writes them."""
    if seconds.size == 0:
        return np.zeros(0, dtype=object)
    stamps = _whole_seconds(seconds).astype(np.int64).astype("datetime64[s]")
    return np.char.replace(np.datetime_as_string(stamps, unit="s"), "T", " ")


def _format_column(values, kind):
    """One column -> list of cell strings, blank where missing."""
    if kind == "str":
        return values.tolist()
    if values.size == 0:
        return []
    if kind == "num":
        # one C call; a float's repr holds no ", " and only a NaN's reads "nan"
        return repr(np.asarray(values, dtype=float).tolist())[1:-1] \
            .replace("nan", "").split(", ")
    missing = np.isnan(values)
    live = np.where(missing, 0.0, values)
    if kind == "int":
        cells = np.array(list(map(str, map(round, live.tolist()))), dtype=object)
    else:
        cells = _format_times(live).astype(object)
    cells[missing] = ""
    return cells.tolist()


def _plain(cells, kinds):
    """Whether csv.writer would quote no cell of these columns, so that
    joining with "," writes the same bytes: no text cell holds a comma, a
    quote or a line break, and no one-cell row is blank."""
    if len(cells) == 1 and "" in cells[0]:
        return False
    return not any(_NEEDS_QUOTES.search("".join(c)) for c, k in zip(cells, kinds)
                   if k == "str")


def write_csv(frame, path, memo=None):
    """Write ``frame`` as CSV, formatting each column once per block of rows.

    A block with a cell that csv.writer would quote goes through it; every
    other block is joined with "," and "\\r\\n", the same bytes. A ``memo``
    dict passed to successive writes keeps each non-text block's cells,
    joined by "\\n", under the column array's identity: a later write of the
    same array object reuses them. A text cell may hold a newline, so text
    is never kept.
    """
    names, kinds, columns = frame._names, frame._kinds, frame._columns
    block_rows = _block_rows(len(names))
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(names)
            for start in range(0, frame.n_rows, block_rows):
                cells = []
                for kind, col in zip(kinds, columns):
                    if memo is None or kind == "str":
                        cells.append(_format_column(col[start:start + block_rows], kind))
                        continue
                    # an entry holds its array, so no other takes its id meanwhile
                    key = (id(col), kind, start, block_rows)
                    if key in memo:
                        cells.append(memo[key][1].split("\n"))
                    else:
                        cells.append(_format_column(col[start:start + block_rows], kind))
                        memo[key] = (col, "\n".join(cells[-1]))
                if _plain(cells, kinds):
                    fh.write("\r\n".join(map(",".join, zip(*cells))))
                    fh.write("\r\n")
                else:
                    writer.writerows(zip(*cells))
    except OSError as exc:
        raise IoFailure(f"{path}: {exc}") from exc


def _read_back_column(col, kind):
    """The values read_csv parses from the cells ``_format_column`` writes
    for ``col``: a number as written (repr round-trips a float), an integer
    rounded half to even, a time rounded as ``_format_times`` rounds it and
    missing outside the years 0001-9999; every NaN canonical."""
    if kind == "str":
        return col.astype(object, copy=False)
    vals = np.asarray(col, dtype=float)
    if kind == "int":
        vals = np.rint(vals) + 0.0
    elif kind == "time":
        finite = np.isfinite(vals)
        whole = _whole_seconds(np.where(finite, vals, 0.0))
        vals = np.where(finite & (whole >= _TIME_FIRST) & (whole < _STAMP_END),
                        whole + 0.0, np.nan)
    missing = np.isnan(vals)
    return np.where(missing, np.nan, vals) if missing.any() else vals


def read_back(frame):
    """The frame read_csv reads from what write_csv writes of ``frame``,
    under its own kinds, computed from the values alone. Every column is
    read-only; one whose read-back is bitwise equal to it is a view of it."""
    columns = []
    for kind, col in zip(frame._kinds, frame._columns):
        back = _read_back_column(col, kind)
        if back is col or (back.dtype == col.dtype == np.float64
                           and np.array_equal(back.view(np.int64), col.view(np.int64))):
            back = col.view()
        back.flags.writeable = False
        columns.append(back)
    return PatientFrame(frame._names, frame._kinds, columns)


# --- key lookups ---


def index_of(keys, wanted):
    """Position in ``keys`` of each value of ``wanted``: -1 where absent or
    missing (a NaN equals nothing), the last position where a key repeats."""
    keys = np.asarray(keys, dtype=float)
    wanted = np.asarray(wanted, dtype=float)
    if keys.size == 0:
        return np.full(wanted.shape, -1)
    order = np.argsort(keys, kind="stable")
    pos = np.maximum(np.searchsorted(keys[order], wanted, side="right") - 1, 0)
    return np.where(keys[order][pos] == wanted, order[pos], -1)


def _position(keys, wanted):
    """``index_of`` as floats, NaN where a wanted value is absent."""
    pos = index_of(keys, wanted).astype(float)
    pos[pos < 0] = np.nan
    return pos


def _row_codes(left, right, keys):
    """One float per row of ``left`` and one per row of ``right``: equal
    where every key is equal, NaN where a key is missing or names no right
    row. Each key after the first pairs the position of a right row with
    the same code so far and that of one with the same value, so only the
    right side is searched and no code reaches its row count squared."""
    lcode, rcode = left.values(keys[0]), right.values(keys[0])
    for k in keys[1:]:
        values = right.values(k)
        lcode = _position(rcode, lcode) * right.n_rows + _position(values, left.values(k))
        rcode = _position(rcode, rcode) * right.n_rows + _position(values, values)
    return lcode, rcode


def require_unique(frame, keys):
    """Raise DuplicateCohortRow, naming every key and its value, where two
    rows of ``frame`` share all ``keys``. A row with a missing key names no
    row, so it never repeats."""
    _require_unique_codes(frame, keys, _row_codes(frame, frame, keys)[1])


def _require_unique_codes(frame, keys, code):
    """``require_unique`` on ``code``, the right-side codes ``_row_codes``
    gives ``frame`` for ``keys``."""
    last = index_of(code, code)
    repeated = np.flatnonzero((last >= 0) & (last != np.arange(frame.n_rows)))
    if repeated.size:
        named = ", ".join(f"{k} {frame.values(k)[repeated[0]]:.0f}" for k in keys)
        raise DuplicateCohortRow(f"{named} names more than one row (a repeated input row)")


def join(left, right, keys, how):
    """Each left row with the columns of the one right row whose ``keys``,
    numeric columns, all equal its own, looked up through ``index_of``.

    The right keys must be unique (``require_unique``). ``inner`` drops a
    left row that has no match; ``left`` keeps it, with every right-side
    cell missing: NaN in a numeric column, "" in a text one. A row with a
    missing key never matches. Rows keep the left order; the columns are
    the left's followed by the right's non-key ones, and a right column
    that shares a left name is a ValueError.
    """
    if how not in ("inner", "left"):
        raise ValueError(f"unknown join kind {how!r}")
    lcode, rcode = _row_codes(left, right, keys)
    _require_unique_codes(right, keys, rcode)
    row = index_of(rcode, lcode)
    if how == "inner":
        left, row = left.filter(row >= 0), row[row >= 0]
    names, kinds, cols = list(left._names), list(left._kinds), list(left._columns)
    for name, kind, col in zip(right._names, right._kinds, right._columns):
        if name not in keys:
            names.append(name)
            kinds.append(kind)
            # -1 (no match) picks the blank cell appended to the column
            cols.append(np.append(col, "" if kind == "str" else np.nan)[row])
    return PatientFrame(names, kinds, cols)


# --- grouped statistics ---


def aggregate_by_key(events, key, variables):
    """Per-key mean, min and max of each listed variable of long-format
    ``events``: each row holds one value (``valuenum``) of one variable for
    one ``key``, its ``variable`` a position in ``variables``.

    One output row per non-missing key, keys ascending, and a
    ``<variable>_mean``, ``_min`` and ``_max`` column per listed variable,
    in order. A missing value never enters a statistic, nor does a code
    outside ``0..len(variables)-1``, and a (key, variable) cell with no
    value is missing, so a key whose rows hold only missing values or
    unlisted codes gets a row of missing cells. A stable sort of the cell
    codes keeps each cell's values in row order: its mean is bitwise
    ``np.mean`` of them.
    """
    kvals = events.values(key)
    live = ~np.isnan(kvals)
    keys, kcode = np.unique(kvals[live], return_inverse=True)
    slot = events.values("variable")[live]
    vals = events.values("valuenum")[live]
    ok = (slot >= 0) & (slot < len(variables)) & ~np.isnan(vals)
    cell = kcode[ok] * len(variables) + slot[ok].astype(int)
    order = np.argsort(cell, kind="stable")
    cell, vals = cell[order], vals[ok][order]
    starts = np.flatnonzero(np.diff(cell, prepend=-1))
    counts = np.diff(np.append(starts, cell.size))
    stats = np.full((3, len(keys) * len(variables)), np.nan)
    stats[:, cell[starts]] = (segment_means(vals, starts, counts),
                              np.minimum.reduceat(vals, starts),
                              np.maximum.reduceat(vals, starts))
    names = [f"{name}_{stat}" for name in variables for stat in ("mean", "min", "max")]
    # one row per output column, by variable and then statistic
    stats = stats.reshape(3, len(keys), len(variables)).transpose(2, 0, 1)
    return PatientFrame([key] + names, [events.kind(key)] + ["num"] * len(names),
                        [keys, *stats.reshape(len(names), len(keys))])


def segment_means(values, starts, counts):
    """``np.mean(values[s:s + c])`` for each (s, c), bitwise.

    Segments of one length are stacked into the rows of a 2-D array: numpy
    reduces each row with the pairwise summation it uses on a 1-D array of
    that length, so the means round exactly as per-segment calls would (a
    cumulative sum, ``reduceat`` or ``bincount`` would not).
    """
    out = np.empty(len(starts))
    for c in np.unique(counts):
        sel = np.flatnonzero(counts == c)
        out[sel] = values[starts[sel, None] + np.arange(c)].mean(axis=1)
    return out
