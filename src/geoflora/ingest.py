"""Survey table ingestion: CSV parsing, validation and the species catalog.

Two comma-delimited, UTF-8 file shapes are supported (header row required):

  long  surveyId,lat,lon,speciesId    one row per observation
  wide  surveyId,lat,lon,speciesIds   one row per survey, speciesIds a
                                      space-separated list (empty for test
                                      surveys)

Raw species identifiers are remapped to dense indices [0, S) at ingestion;
all downstream math runs on dense indices and submissions map back to raw
ids. A catalog is its raw ids in strictly ascending order, dense index d
being the d-th of them, so any two files covering the same species produce
identical mappings and ascending dense indices decode to ascending raw ids.
When every id lies in [0, 2**19), the catalog also builds one table from raw
id to dense index: ``lookup`` is then one gather, and a file parsed without a
catalog gets it from a presence ``bincount``. Other ids take ``searchsorted``
and one sort instead.
A ``Dataset`` stores species sets only as CSR arrays: parsing builds them,
re-encoding is ``remap[indices]`` and writing decodes ``dense_to_raw[indices]``.
The same CSR pair, ``RowSets``, carries Top-K picks, votes and the routed
submission, rows aligned with the test ids; ``union_rows`` unites them.

``read_table`` reads survey, score and submission files into typed arrays,
each format declared once as a ``Layout`` (header, column dtypes, id column).
A valid file is read in bulk, ``\\r\\n`` read as ``\\n``: numpy's ``loadtxt``
reads the comma-separated columns (a regular file again by its path, in
chunks; a pipe only once) and its integer reader ``fromstring`` the id lists.
A file holding anything else (a byte outside digits, ``+-.eE``, commas,
spaces and newlines, such as a lone ``\\r`` or a quote, a ``+`` outside a float
column, a field numpy rejects, another field count, a ``-`` or an int64 limit
``fromstring`` may misread) goes to the one ``csv`` row pass, which reads the
same bytes by the same layout, returns the same arrays and is the only place
that names a fault.
Grouping, conflict checks and catalog lookups then run once on numpy arrays.
So a file with several faults reports bytes that are not UTF-8 first (the
line of the first), then its row-local format faults, then, each at its first
row in the file: non-finite and out-of-range coordinates, coordinate
conflicts, species missing from the catalog (lowest survey id, then smallest
raw id) and the emptiness checks.

The writers share one text kernel (``int_text``, ``text_table``, ``join_text``,
``write_id_lists``): a text column is a ``uint8`` matrix, one row per value,
padded with NUL bytes. NUL never occurs in the files, so ``m[m != 0]`` in
row-major order is the rows' text concatenated.
"""

from __future__ import annotations

import codecs
import csv
import enum
import io
import itertools
import operator
import os
import stat
import warnings
from array import array
from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

import numpy as np

# Duplicate rows for one survey may disagree on coordinates by up to this
# much (degrees) before we treat the file as corrupt; tolerates formatting
# jitter in source exports.
COORD_CONFLICT_TOLERANCE_DEG = 1e-6

# Error messages list at most this many ids, then the total count.
MAX_IDS_IN_MESSAGE = 10

# A catalog whose raw species ids all lie in [0, _TABLE_IDS) maps them through an int64 table of at most 4 MB.
_TABLE_IDS = 1 << 19


class ParseError(ValueError):
    """Raised for malformed or inconsistent survey files."""


class RangeError(ValueError):
    """Raised for a setting outside its range; ``field`` names the setting."""

    def __init__(self, field: str, requirement: str, value) -> None:
        super().__init__(f"{field} must be {requirement}, got {value}")
        self.field, self.requirement, self.value = field, requirement, value


@dataclass(frozen=True)
class Layout:
    """A file shape ``read_table`` reads: its header and the dtype of each scalar column.

    ``ids`` is ``None`` when every column is scalar, ``"one"`` when the last
    column is one id (the last of ``dtypes``) and ``"list"`` when it is a
    space-separated list of ids (it has no dtype). The bulk pass and the row
    pass both read a file by its layout; an int64 column holds ids.
    """

    header: tuple[str, ...]
    dtypes: tuple[type, ...]
    ids: Literal["one", "list"] | None = None


# The bytes a file read in bulk may hold after its header line, once each "\r\n" is "\n"; numpy's int and float parsers
# read such fields exactly as ``int`` and ``float`` do, and its loadtxt rejects what they reject. Other bytes ("_", a
# lone "\r", quotes, letters such as "nan", anything outside ASCII) send the file to the row pass, as does a "+"
# outside the float columns: ``int`` reads "+5", which the row pass refuses as an id.
_BULK_BYTES = b"0123456789+-.eE, \n"
_SPACES = bytes.maketrans(b",\n", b"  ")  # an id list's separators as fromstring's whitespace
_ARCHIVES = (".gz", ".bz2", ".xz", ".lzma")  # numpy's loadtxt would decompress a path so named
_VERSION = operator.attrgetter("st_dev", "st_ino", "st_size", "st_mtime_ns")  # which file a stat saw, and which write of it


def read_table(path: str, layouts: Sequence[Layout], *, digest=None) -> tuple[np.ndarray, ...]:
    """The columns of a file in one of ``layouts``, then with an id column each row's id count and the ids in file
    order, then each row's line number: the physical line it starts on, "\\r\\n", "\\n" and a lone "\\r" each ending one
    (the header's is 1; empty lines are skipped but counted).

    A valid file is read in bulk. Any file the bulk pass cannot vouch for goes to ``_row_pass``, which returns
    the same arrays for a valid file and raises the ``ParseError`` that locates the fault of another. Only a regular
    file is opened again; the row pass reads the bytes read first if that open fails or finds another file or write.
    A ``hashlib`` object ``digest``, if given, is updated with the bytes read, so a pipe need not be read twice.
    """
    with open(path, "rb") as f:
        seen = os.fstat(f.fileno())  # before the read, so a write during it shows too
        data = f.read()
    if digest is not None:
        digest.update(data)
    try:
        # joined, not normalised: the kernel resolves ".." after a symlink, and numpy takes a relative "a://b" for a URL
        again = os.path.join(os.getcwd(), path) if stat.S_ISREG(seen.st_mode) and not str(path).endswith(_ARCHIVES) else None
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy 1.24 only warns where loadtxt reads "1.0" as an int or fromstring stops early
            table = _bulk_table(data.removeprefix(codecs.BOM_UTF8), layouts, again)
        table = None if again and _VERSION(os.stat(again)) != _VERSION(seen) else table
    except (OSError, ValueError, OverflowError, Warning):
        table = None
    return _row_pass(path, layouts, data) if table is None else table


def _row_pass(path: str, layouts: Sequence[Layout], data: bytes) -> tuple[np.ndarray, ...]:
    """``read_table``'s arrays from ``data``, the bytes of the file at ``path``, converted row by row with the ``csv``
    module, or the ``ParseError`` that names the first row-local fault.

    Bytes that are not UTF-8 fail at the line of the first, a UTF-8 BOM is dropped and the header's fields are
    stripped. Within a row the checks run in this order: field count, number syntax (``int`` of each id, ``float``
    of each other number), id characters, float characters, id range. ``int`` and ``float`` also read ``_``
    separators and non-ASCII digits, and ``int`` a ``+`` sign; fields written so are malformed.
    """
    try:
        reader = csv.reader(io.StringIO(data.decode("utf-8-sig"), newline=""))
    except UnicodeDecodeError as exc:
        line = len(exc.object[: exc.start + 1].splitlines())  # lines end at "\r\n", "\n" or a lone "\r", as csv's do
        raise ParseError(f"{path}:{line}: not valid UTF-8") from None
    got = next(reader, None)
    layout = next((t for t in layouts if tuple(h.strip() for h in got or ()) == t.header), None)
    if layout is None:
        raise ParseError(f"{path}:1: expected header {' or '.join(','.join(t.header) for t in layouts)}, got {got!r}")
    listed = layout.ids == "list"
    kinds = layout.dtypes + (np.int64,) * listed  # the id list is a column of ids
    convert = [int if d is np.int64 else float for d in layout.dtypes]
    columns = [array("q" if d is np.int64 else "d") for d in layout.dtypes]  # 8 bytes a value, unlike a list
    counts, ids, lines = array("q"), array("q"), array("q")
    read = reader.line_num
    for row in reader:
        line, read = read + 1, reader.line_num  # a row is numbered by the first physical line it covers
        if not row:
            continue
        if len(row) != len(kinds):
            raise ParseError(f"{path}:{line}: expected {len(kinds)} fields, got {len(row)}")
        try:
            values = [f(field) for f, field in zip(convert, row)]
            listed_ids = [int(tok) for tok in row[-1].split()] if listed else ()
        except ValueError as exc:
            raise ParseError(f"{path}:{line}: malformed row: {exc}") from None
        text = ",".join(row)
        if not text.isascii() or "_" in text or "+" in text:  # only then look for the field at fault
            id_text = "".join(field for field, d in zip(row, kinds) if d is np.int64)
            if not id_text.isascii() or "_" in id_text or "+" in id_text:
                raise ParseError(f"{path}:{line}: malformed row: ids must be ASCII digits with an optional minus sign")
            for name, field, d in zip(layout.header, row, kinds):
                if d is np.float64 and (not field.isascii() or "_" in field):
                    raise ParseError(f"{path}:{line}: malformed row: {name} must be an ASCII decimal number")
        try:  # an int64 array refuses an int outside its range
            for column, value in zip(columns, values):
                column.append(value)
            if listed:
                ids.extend(listed_ids)
                counts.append(len(listed_ids))
        except OverflowError:
            raise ParseError(f"{path}:{line}: survey or species id outside the 64-bit integer range") from None
        lines.append(line)
    table = [np.asarray(c) for c in columns]
    if layout.ids == "one":
        table[-1:] = [np.ones(len(lines), dtype=np.int64), table[-1]]
    elif listed:
        table += [np.asarray(counts), np.asarray(ids)]
    return (*table, np.asarray(lines))


def _loadtxt(source, names: Sequence[str], dtypes: Sequence[type], skiprows: int = 0) -> list[np.ndarray]:
    """The comma-separated columns of ``source``'s non-empty lines after the first ``skiprows``, with numpy's C
    parser. numpy reads a path in chunks but a file object line by line."""
    table = np.loadtxt(source, dtype=list(zip(names, dtypes)), delimiter=",", comments=None, ndmin=1, encoding="latin1", skiprows=skiprows)
    return [table[name] for name in table.dtype.names]  # views: every reader indexes or sorts them, keeping no view


def _bulk_table(data: bytes, layouts: Sequence[Layout], path: str | None) -> tuple[np.ndarray, ...] | None:
    """``read_table``'s arrays, or ``None`` where the row pass might read the file otherwise. ``path``, if given, is
    an absolute path to a regular file holding ``data`` that numpy may read again."""
    if b"\r" in data:  # a scan for one byte is ~20x faster than one for two
        data = data.replace(b"\r\n", b"\n")  # the same count of "\n", so the same line numbers
    header, _, body = data.partition(b"\n")
    layout = next((t for t in layouts if header == ",".join(t.header).encode()), None)
    if layout is None or not body or body.translate(None, _BULK_BYTES):
        return None
    u = np.frombuffer(body, dtype=np.uint8)
    newline = u == 10
    ends = np.flatnonzero(newline)  # where each line ends; a last line without a newline ends at the file's end
    if u[-1] != 10:
        ends = np.append(ends, u.size)
    filled = np.diff(ends, prepend=-1) > 1
    lines = np.flatnonzero(filled) + 2
    if b"+" in body and not _signs_in_floats(u, ends, layout):
        return None
    if layout.ids != "list":
        columns = _loadtxt(path or io.BytesIO(data), layout.header, layout.dtypes, skiprows=1)
        if layout.ids == "one":
            columns[-1:] = [np.ones(lines.size, dtype=np.int64), columns[-1]]
    else:
        # Cut each row at its last comma: the scalar fields go to loadtxt, the id list to numpy's integer reader.
        width = len(layout.dtypes)
        commas = np.flatnonzero(u == 44)
        if not np.array_equal(np.bincount(np.searchsorted(ends, commas), minlength=ends.size), width * filled):
            return None  # a row with another field count
        marks = np.zeros(u.size, dtype=np.int8)  # +1 where a row starts, -1 at its last comma
        marks[np.concatenate(([0], ends[:-1] + 1))[filled]] += 1
        marks[commas[width - 1 :: width]] -= 1
        scalar = np.cumsum(marks, dtype=np.int8, out=marks).view(bool)
        columns = _loadtxt(io.BytesIO(u[scalar | newline]), layout.header, layout.dtypes)
        ids = u[~scalar]  # each row's last comma, then its id list, then its newline (a last line may have none)
        text = ids.tobytes().translate(_SPACES)
        # fromstring reads a bare "-" as 0 and clamps an id beyond int64 to a limit. So every "-" must begin an id and
        # precede a digit, and a limit goes to the row pass, which tells it from an overflow, as do ".", "e" and "E"
        if b"-" in text and (text.count(b" -") != text.count(b"-") or b"- " in text or text.endswith(b"-")) or any(c in text for c in b".eE"):
            return None
        first = np.frombuffer(text, dtype=np.uint8) != 32
        first[1:] &= ~first[:-1]  # the first byte of each id
        begins = np.flatnonzero(first)  # the ids begun before each newline give the counts
        counts = np.diff(np.searchsorted(begins, np.flatnonzero(ids == 10)), prepend=0, append=begins.size)[: ends.size][filled]
        listed = np.fromstring(text, dtype=np.int64, sep=" ") if counts.any() else np.empty(0, np.int64)
        if listed.size != counts.sum() or listed.size and (listed.min() == -(2**63) or listed.max() == 2**63 - 1):
            return None
        columns += [counts, listed]
    if columns[0].size != lines.size:
        return None  # numpy skipped a line the row pass reads, such as one of spaces
    return (*columns, lines)


def _signs_in_floats(u: np.ndarray, ends: np.ndarray, layout: Layout) -> bool:
    """Whether every "+" of the body ``u``, its lines ending at ``ends``, lies in a float column of ``layout``: the
    commas between a "+" and the start of its line count the fields before it."""
    plus, commas = np.flatnonzero(u == 43), np.flatnonzero(u == 44)
    starts = np.concatenate(([0], ends[:-1] + 1))[np.searchsorted(ends, plus)]
    field = np.searchsorted(commas, plus) - np.searchsorted(commas, starts)
    floats = np.array([d is np.float64 for d in layout.dtypes] + [False])  # an id list, or a field too many, last
    return bool(floats[np.minimum(field, floats.size - 1)].all())


def preview_ids(ids: Iterable) -> str:
    """Sorted ids for an error message, capped at ``MAX_IDS_IN_MESSAGE`` plus the total count."""
    ids = sorted(ids)
    if len(ids) <= MAX_IDS_IN_MESSAGE:
        return str(ids)
    return f"[{', '.join(map(str, ids[:MAX_IDS_IN_MESSAGE]))}, ...] ({len(ids)} in total)"


class DatasetKind(enum.Enum):
    PA_TRAIN = "pa"
    PO_TRAIN = "po"
    TEST = "test"


_SURVEY_LAYOUTS = (  # long, then wide
    Layout(("surveyId", "lat", "lon", "speciesId"), (np.int64, np.float64, np.float64, np.int64), ids="one"),
    Layout(("surveyId", "lat", "lon", "speciesIds"), (np.int64, np.float64, np.float64), ids="list"),
)


@dataclass(frozen=True)
class SurveyRecord:
    """One survey: identifier, coordinates in degrees, dense species indices."""

    survey_id: int
    lat: float
    lon: float
    species: frozenset[int]


class SpeciesCatalog:
    """Raw species ids in strictly ascending order; dense index ``d`` means raw id ``dense_to_raw[d]``.

    Dense order is raw order, so ascending dense indices decode to ascending
    raw ids, and the catalog over a given set of raw ids is unique. A catalog
    whose ids all lie in [0, ``_TABLE_IDS``) also holds the table from raw id
    to dense index (-1 where absent), built once, through which ``lookup``
    gathers; other catalogs look ids up by binary search.
    """

    __slots__ = ("dense_to_raw", "_table")

    def __init__(self, dense_to_raw):
        self.dense_to_raw = np.asarray(dense_to_raw, dtype=np.int64)
        if np.any(self.dense_to_raw[1:] <= self.dense_to_raw[:-1]):  # np.diff would wrap around int64
            raise ValueError("raw species ids must be strictly ascending, without duplicates")
        self._table = None
        if self.dense_to_raw.size and self.dense_to_raw[0] >= 0 and self.dense_to_raw[-1] < _TABLE_IDS:
            self._table = np.full(int(self.dense_to_raw[-1]) + 1, -1, dtype=np.int64)
            self._table[self.dense_to_raw] = np.arange(self.dense_to_raw.size)

    @staticmethod
    def union(catalogs: Sequence["SpeciesCatalog"]) -> "SpeciesCatalog":
        """The catalog over every raw id of ``catalogs``."""
        return SpeciesCatalog(np.unique(np.concatenate([c.dense_to_raw for c in catalogs])))

    def lookup(self, raw) -> tuple[np.ndarray, np.ndarray]:
        """The dense index of each raw id in the 1-D ``raw`` and whether the catalog holds it; an unknown id's index means nothing."""
        raw = np.asarray(raw, dtype=np.int64)
        if self._table is not None:
            inside = raw.view(np.uint64) < np.uint64(self._table.size)  # a negative id wraps above every table position
            dense = self._table[np.where(inside, raw, 0)]
            return dense, inside & (dense >= 0)
        dense = np.searchsorted(self.dense_to_raw, raw)
        known = dense < self.dense_to_raw.size
        known[known] = self.dense_to_raw[dense[known]] == raw[known]
        return dense, known

    def __len__(self) -> int:
        return int(self.dense_to_raw.size)

    def __eq__(self, other) -> bool:
        return isinstance(other, SpeciesCatalog) and np.array_equal(self.dense_to_raw, other.dense_to_raw)


@dataclass(frozen=True, eq=False)
class RowSets(Sequence[frozenset[int]]):
    """CSR rows as a read-only sequence of sets: row i holds ``indices[indptr[i]:indptr[i + 1]]``."""

    indptr: np.ndarray
    indices: np.ndarray

    def __len__(self) -> int:
        return self.indptr.size - 1

    def row(self, i) -> np.ndarray:
        i = range(len(self))[i]  # negative positions and IndexError as a list has them
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def __getitem__(self, i) -> frozenset[int]:
        return frozenset(self.row(i).tolist())


def union_rows(n: int, *parts: tuple[np.ndarray, RowSets]) -> RowSets:
    """``n`` rows, row i the union of the sets that ``parts`` place there, ascending; ``(rows, sets)`` puts ``sets[j]`` in row ``rows[j]``.

    One sort of ``row * width + index`` keys orders every row, dropping repeats dedupes them, and a ``bincount``
    of the key rows gives the row pointers. (``np.unique`` gives the same keys, but numpy 2.4 took ~70x as long on 3 M such keys.)
    """
    if any(len(rows) != len(sets) for rows, sets in parts):
        raise ValueError("each part needs one row position per set")
    row = np.concatenate([np.repeat(np.asarray(rows, dtype=np.int64), np.diff(sets.indptr)) for rows, sets in parts] + [np.empty(0, np.int64)])
    index = np.concatenate([sets.indices for _, sets in parts] + [np.empty(0, np.int64)])
    if index.min(initial=0) < 0:  # a negative item would sort into the row before, or be dropped as a repeat
        raise ValueError("set items must be non-negative")
    width = int(index.max(initial=0)) + 1
    keys = np.sort(row * width + index)
    keys = keys[np.diff(keys, prepend=-1) != 0]  # keys are >= 0, so the first is always kept
    return RowSets(np.concatenate(([0], np.cumsum(np.bincount(keys // width, minlength=n)))), keys % width)


def check_rows(ids: np.ndarray, indptr: np.ndarray, indices: np.ndarray, rows_ordered: bool = False) -> None:
    """The CSR rule of ``Dataset`` and ``ScoreMatrix``, checked, never sorted into place: row i, id ``ids[i]``, holds
    ``indices[indptr[i]:indptr[i + 1]]``; ids ascend strictly, as do each row's indices unless ``rows_ordered``."""
    if indptr.shape != (ids.size + 1,) or indptr[0] != 0 or indptr[-1] != indices.size or np.any(np.diff(indptr) < 0):
        raise ValueError("column lengths disagree")
    if np.any(ids[1:] <= ids[:-1]):  # np.diff would wrap around int64
        raise ValueError("survey ids must be unique and sorted ascending")
    if not rows_ordered:
        starts = np.zeros(indices.size + 1, dtype=bool)
        starts[indptr] = True  # where each row begins, and the end
        if np.any((np.diff(indices) <= 0) & ~starts[1:-1]):
            raise ValueError("each survey's species indices must ascend strictly")


def _flat_rows(sets: Sequence[Iterable[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Row pointers and the concatenated items of ``sets``, each set in its own iteration order."""
    indptr = np.zeros(len(sets) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, sets), dtype=np.int64, count=len(sets)), out=indptr[1:])
    return indptr, np.fromiter(itertools.chain.from_iterable(sets), dtype=np.int64, count=int(indptr[-1]))


def take_rows(indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CSR rows at positions ``rows``, in that order, as a new ``(indptr, indices)``."""
    starts, lengths = indptr[rows], indptr[rows + 1] - indptr[rows]
    out = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=out[1:])
    return out, indices[np.repeat(starts - out[:-1], lengths) + np.arange(out[-1])]


class Dataset:
    """An immutable-by-convention collection of surveys, sorted by survey id.

    Columnar: ``ids``, ``lats``, ``lons`` and the species as CSR, survey i's
    dense indices, strictly ascending, being ``indices[indptr[i]:indptr[i + 1]]``.
    ``Dataset(ids, lats, lons, species_sets)`` converts sets once with
    ``union_rows``, so a repeated species counts once; ``from_csr`` takes the
    arrays and checks them by ``check_rows``, as ``ScoreMatrix`` does.
    ``species`` and ``record(i)``, a ``SurveyRecord``, are views made on demand.
    """

    __slots__ = ("ids", "lats", "lons", "indptr", "indices")

    def __init__(self, ids, lats, lons, species: Sequence[Iterable[int]]) -> None:
        rows = union_rows(len(species), (np.arange(len(species)), RowSets(*_flat_rows(species))))
        self._set_columns(ids, lats, lons, rows.indptr, rows.indices, rows_ordered=True)

    @classmethod
    def from_csr(cls, ids, lats, lons, indptr, indices) -> "Dataset":
        ds = cls.__new__(cls)
        ds._set_columns(ids, lats, lons, indptr, indices)
        return ds

    def _set_columns(self, ids, lats, lons, indptr, indices, rows_ordered: bool = False) -> None:
        self.ids = np.asarray(ids, dtype=np.int64)
        self.lats = np.asarray(lats, dtype=np.float64)
        self.lons = np.asarray(lons, dtype=np.float64)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        if not self.lats.size == self.lons.size == self.ids.size:
            raise ValueError("column lengths disagree")
        check_rows(self.ids, self.indptr, self.indices, rows_ordered)

    @property
    def species(self) -> RowSets:
        return RowSets(self.indptr, self.indices)

    def __len__(self) -> int:
        return int(self.ids.size)

    def record(self, i: int) -> SurveyRecord:
        return SurveyRecord(int(self.ids[i]), float(self.lats[i]), float(self.lons[i]), self.species[i])

    def __eq__(self, other) -> bool:
        return isinstance(other, Dataset) and all(np.array_equal(getattr(self, a), getattr(other, a)) for a in Dataset.__slots__)

    def take(self, rows: np.ndarray) -> "Dataset":
        """The surveys at ascending positions ``rows``."""
        return Dataset.from_csr(self.ids[rows], self.lats[rows], self.lons[rows], *take_rows(self.indptr, self.indices, rows))

    def species_counts(self, num_species: int | None = None) -> np.ndarray:
        """Per-species number of surveys containing it (dense indexing)."""
        return np.bincount(self.indices, minlength=num_species or 0)


def parse_occurrences(
    path: str,
    *,
    kind: DatasetKind | None = None,
    catalog: SpeciesCatalog | None = None,
    digest=None,
) -> tuple[Dataset, SpeciesCatalog]:
    """Parse a survey CSV into a dataset plus its species catalog.

    The header decides whether the file is long or wide. Rows sharing a
    survey id are grouped into one record (union of species); they must
    agree on coordinates to within 1e-6 degrees. Output is sorted
    by survey id, so row order never affects the result. If ``catalog`` is
    given its mapping is reused (every species in the file must be present in
    it); otherwise the catalog is this file's raw ids, ascending.

    ``kind`` enables emptiness checks: TEST surveys must carry no species,
    training surveys must carry at least one. ``digest`` is passed to ``read_table``.
    """
    sid, lat, lon, counts, raw, lines = read_table(path, _SURVEY_LAYOUTS, digest=digest)
    for bad, reason in (
        (~(np.isfinite(lat) & np.isfinite(lon)), "non-finite coordinate"),
        ((np.abs(lat) > 90.0) | (np.abs(lon) > 180.0), "coordinate out of range ({}, {})"),
    ):
        if bad.any():
            r = int(np.argmax(bad))
            raise ParseError(f"{path}:{lines[r]}: " + reason.format(float(lat[r]), float(lon[r])))

    order = np.argsort(sid, kind="stable")  # each survey's rows in file order, its first row leading
    starts = np.ones(sid.size, dtype=bool)
    starts[1:] = sid[order[1:]] != sid[order[:-1]]
    heads = order[starts]  # each survey's first row, surveys by ascending id
    survey_of_row = np.empty(sid.size, dtype=np.int64)
    survey_of_row[order] = np.cumsum(starts) - 1
    first = heads[survey_of_row]  # the first row of each row's survey
    far = (np.abs(lat - lat[first]) > COORD_CONFLICT_TOLERANCE_DEG) | (np.abs(lon - lon[first]) > COORD_CONFLICT_TOLERANCE_DEG)
    if far.any():
        r = int(np.argmax(far))
        f0 = int(first[r])
        where = f"({float(lat[r])}, {float(lon[r])}) vs ({float(lat[f0])}, {float(lon[f0])}) at line {lines[f0]}"
        raise ParseError(f"{path}:{lines[r]}: survey {sid[r]} has conflicting coordinates {where}")

    ids = sid[heads]
    if catalog is None and raw.min(initial=0) >= 0 and raw.max(initial=0) < _TABLE_IDS:  # the present ids, by a count
        catalog = SpeciesCatalog(np.flatnonzero(np.bincount(raw)))
        dense = catalog.lookup(raw)[0]
    elif catalog is None:  # one sort gives the catalog and each id's index in it
        dense_to_raw, dense = np.unique(raw, return_inverse=True)
        catalog = SpeciesCatalog(dense_to_raw)
    else:
        dense, known = catalog.lookup(raw)
        if not known.all():
            missing = np.flatnonzero(~known)
            owner = np.repeat(sid, counts)[missing]
            j = np.lexsort((raw[missing], owner))[0]  # lowest survey id, then smallest raw id
            raise ParseError(f"{path}: survey {owner[j]} references species {raw[missing[j]]} not present in the catalog")

    row_ptr = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
    species = union_rows(ids.size, (survey_of_row, RowSets(row_ptr, dense)))
    lengths = np.diff(species.indptr)
    if kind is DatasetKind.TEST and lengths.any():
        raise ParseError(f"{path}: test survey {ids[np.flatnonzero(lengths)[0]]} must not carry species")
    if kind not in (None, DatasetKind.TEST) and not lengths.all():
        raise ParseError(f"{path}: {kind.value} survey {ids[np.flatnonzero(lengths == 0)[0]]} carries no species")
    return Dataset.from_csr(ids, lat[heads], lon[heads], species.indptr, species.indices), catalog


_POW10 = np.array([10**p for p in range(20)], dtype=np.uint64)  # 10**19 < 2**64
_WRITE_CHUNK = 16384  # text rows (survey rows plus their entries) formatted per write, so memory stays bounded


def int_text(values, neg=None, places: int = 1) -> np.ndarray:
    """Each int64 value in decimal with at least ``places`` digits, '-' before the first where ``neg`` (by default
    where the value is negative)."""
    v = np.asarray(values, dtype=np.int64)
    mag, neg = v.astype(np.uint64), v < 0 if neg is None else neg
    mag[v < 0] = ~mag[v < 0] + 1  # the magnitude of -2**63 fits uint64, not int64
    count = np.maximum(np.searchsorted(_POW10, mag, side="right"), places)
    sign, width = int(neg.any()), int(count.max(initial=places))  # a column for '-' only if one is written
    first = sign + width - count  # the column of each row's first digit
    out = np.zeros((v.size, sign + width), dtype=np.uint8)
    for col in range(sign + width - 1, sign - 1, -1):  # repeated divmod by 10, last digit first
        quot = mag // 10
        out[:, col] = np.where(col >= first, mag - quot * 10 + 48, 0)
        mag = quot
    out[neg, first[neg] - 1] = 45
    return out


def text_table(strings: list[str]) -> np.ndarray:
    """ASCII ``strings``, one row each."""
    table = np.array(strings, dtype=bytes)
    return table.view(np.uint8).reshape(table.size, table.itemsize)


def _fixed7_text(values) -> np.ndarray:
    """``format(v, '.7f')`` of each float: ``rint(|v|·1e7)``, signed by ``signbit`` (so -1e-9 gives '-0.0000000'), and
    Python's ``format`` where the product's own rounding (< 2**-22 below 2**31) may cross a half."""
    x = np.asarray(values, dtype=np.float64)
    y = np.abs(x) * 1e7
    y = np.where(y < 2**31, y, 0.5)  # NaN, infinity and |x·1e7| >= 2**31 go to Python, as halves do
    whole, frac = np.divmod(np.rint(y).astype(np.int64), 10**7)
    out = join_text(x.size, int_text(whole, np.signbit(x)), b".", int_text(frac, places=7))
    slow = np.flatnonzero(np.abs(y - np.floor(y) - 0.5) < 1e-6)
    if slow.size:
        text = text_table([f"{v:.7f}" for v in x[slow].tolist()])
        out = join_text(x.size, out, width=text.shape[1])
        out[slow] = join_text(slow.size, text, width=out.shape[1])
    return out


def join_text(n: int, *columns, width: int = 0) -> np.ndarray:
    """Text columns side by side in ``n`` rows, NUL-padded on the left to ``width`` bytes if narrower; a ``bytes``
    column is the same text in every row. (A record array, a field per column: numpy copies 2-D columns row by row.)"""
    columns = [c for c in columns if (len(c) if isinstance(c, bytes) else c.shape[1])]
    widths = [len(c) if isinstance(c, bytes) else c.shape[1] for c in columns]
    out = np.zeros(n, dtype=[("pad", f"V{width - sum(widths)}")] * (width > sum(widths)) + [(f"c{i}", f"V{w}") for i, w in enumerate(widths)])
    for i, (c, w) in enumerate(zip(columns, widths)):
        out[f"c{i}"] = c if isinstance(c, bytes) else np.ascontiguousarray(c).view(f"V{w}")[:, 0]
    return out.view(np.uint8).reshape(n, out.dtype.itemsize)


def write_id_lists(path, header: str, ids, coords: Sequence[np.ndarray], sets: RowSets, catalog: SpeciesCatalog) -> None:
    """Write ``header``, then per row i: ``ids[i]``, each of ``coords``' values as '.7f' and ``sets[i]`` as raw ids,
    space-separated; fields comma-separated, "\\n" line endings. ``ValueError`` unless there is one id per set.

    Each entry is a text row ending in ' ' or (the row's last) '\\n'; row i's fields, ending in '\\n' if it has no
    entries, go before them at ``indptr[i] + i``."""
    ids = np.asarray(ids)
    if len(ids) != len(sets):
        raise ValueError(f"{len(ids)} ids for {len(sets)} rows")
    raw = int_text(catalog.dense_to_raw)
    text_rows = sets.indptr - sets.indptr[0] + np.arange(len(ids) + 1)  # the text rows before each survey row
    cuts = np.searchsorted(text_rows, np.arange(_WRITE_CHUNK, text_rows[-1], _WRITE_CHUNK))  # a row goes whole into one chunk
    cuts = np.unique(np.concatenate(([0], cuts, [len(ids)])))
    with open(path, "wb") as f:
        f.write(header.encode() + b"\n")
        for start, stop in zip(cuts[:-1], cuts[1:]):
            ptr = sets.indptr[start : stop + 1]
            n, m, filled = ptr.size - 1, ptr[-1] - ptr[0], ptr[1:] > ptr[:-1]
            fields = [int_text(ids[start:stop]), b","] + [t for c in coords for t in (_fixed7_text(c[start:stop]), b",")]
            head = join_text(n, *fields, np.where(filled, 0, 10).astype(np.uint8)[:, None])
            sep = np.full((m, 1), 32, dtype=np.uint8)
            sep[ptr[1:][filled] - ptr[0] - 1] = 10
            entries = join_text(m, np.take(raw, sets.indices[ptr[0] : ptr[-1]], axis=0), sep)
            out = np.empty(n + m, dtype=f"V{max(head.shape[1], entries.shape[1])}")
            out[text_rows[start:stop] - text_rows[start]] = join_text(n, head, width=out.itemsize).view(out.dtype)[:, 0]
            out[np.arange(m) + np.repeat(np.arange(1, n + 1), np.diff(ptr))] = join_text(m, entries, width=out.itemsize).view(out.dtype)[:, 0]
            text = out.view(np.uint8)
            f.write(text[text != 0])


def write_dataset(dataset: Dataset, path: str, catalog: SpeciesCatalog) -> None:
    """Write a dataset in the wide format; re-parsing restores it exactly.

    Species are emitted as raw ids sorted ascending, coordinates with 7
    decimal places, rows ordered by survey id, "\\n" line endings.
    """
    write_id_lists(path, ",".join(_SURVEY_LAYOUTS[1].header), dataset.ids, (dataset.lats, dataset.lons), dataset.species, catalog)


def reindex_dataset(dataset: Dataset, old: SpeciesCatalog, new: SpeciesCatalog) -> Dataset:
    """Re-encode a dataset's dense species indices from one catalog to another.

    Every raw id of ``old`` must be in ``new`` (``KeyError`` otherwise); both
    ascend, so the remap is monotone and each row stays ascending.
    """
    remap, known = new.lookup(old.dense_to_raw)
    if not known.all():
        raise KeyError(int(old.dense_to_raw[np.argmin(known)]))
    return Dataset.from_csr(dataset.ids, dataset.lats, dataset.lons, dataset.indptr, remap[dataset.indices])


def decode_species(dataset: Dataset, catalog: SpeciesCatalog) -> dict[int, frozenset[int]]:
    """Per-survey raw-id species sets, e.g. for metric computation on files."""
    return dict(zip(dataset.ids.tolist(), RowSets(dataset.indptr, catalog.dense_to_raw[dataset.indices])))
