"""Price panel ingestion: CSV + metadata loading, date alignment, missing-data policies."""

import codecs
import csv
import json
import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass
from datetime import date, datetime

import numpy as np

from . import _native

ASSET_CLASSES = ("stock", "bond", "fx", "other")
FILL_POLICIES = ("forward_fill", "drop_date")
META_KEYS = ("asset_id", "name", "asset_class", "direction")

# The setting checks every public entry point shares. Bools are not numbers
# here, although Python counts True as 1; numpy integers and reals are.


def _check_int(value, name: str, minimum: int | None = None, none_ok: bool = False) -> int | None:
    """`value` as an int if it is an integer of at least `minimum`; None
    passes through where `none_ok`."""
    if value is None and none_ok:
        return None
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer{' or None' if none_ok else ''}, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _check_real(value, name: str, at_most: float | None = None) -> None:
    """Raise unless `value` is a real number that a float can hold, > 0, or
    one in [0, at_most] where `at_most` is given. NaN fails either test."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        float(value)
    except OverflowError:
        # no repr: one of an int past 4,300 digits raises
        raise ValueError(f"{name} must be a real number that a float can hold, got one too large") from None
    if at_most is None and not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    if at_most is not None and not 0 <= value <= at_most:
        raise ValueError(f"{name} must be in [0, {at_most:g}], got {value!r}")


def _check_date(value, name: str) -> None:
    if isinstance(value, datetime) or not isinstance(value, date):
        raise ValueError(f"{name} must be calendar dates, got {value!r}")


def _check_ids(value, name: str) -> tuple:
    """`value` as a tuple of string ids; a string is one id, not a sequence of them."""
    if isinstance(value, str) or not isinstance(value, Iterable):
        raise ValueError(f"{name} must be a sequence of ids, got {value!r}")
    ids = tuple(value)
    for i in ids:
        if not isinstance(i, str):
            raise ValueError(f"{name} must be string ids, got {i!r}")
    return ids


def _check_direction(value, name: str) -> int:
    """+1 or -1 for any value equal to it, such as a JSON 1.0, but not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or value not in (1, -1):
        raise ValueError(f"{name} must be +1 or -1, got {value!r}")
    return 1 if value == 1 else -1


@dataclass(frozen=True)
class AssetMeta:
    """Per-asset metadata.

    `direction` is +1 for assets that tend to rise in risk-on conditions
    (stocks) and -1 for those that tend to fall (bonds, exchange rates).
    """

    asset_id: str
    name: str
    asset_class: str
    direction: int

    def __post_init__(self):
        if not isinstance(self.asset_id, str) or not self.asset_id:
            raise ValueError("asset_id must be a non-empty string")
        # the panel CSV strips header ids, and an unquoted \r ends its header row
        if self.asset_id != self.asset_id.strip() or "\r" in self.asset_id:
            raise ValueError(f"asset_id {self.asset_id!r} must not have surrounding whitespace or a \\r")
        if self.asset_class not in ASSET_CLASSES:
            raise ValueError(
                f"asset {self.asset_id!r}: asset_class must be one of {ASSET_CLASSES}, "
                f"got {self.asset_class!r}"
            )
        direction = _check_direction(self.direction, f"asset {self.asset_id!r}: direction")
        object.__setattr__(self, "direction", direction)


@dataclass
class PricePanel:
    """Date-indexed matrix of raw price levels, one column per asset.

    `values[r, c]` is the price of `assets[c]` on `dates[r]`. Cells may be
    NaN (missing observation) until `fill_missing` is applied; they are never
    +/-inf. The value matrix is marked read-only: treat a panel as immutable
    after construction.
    """

    dates: list[date]
    assets: list[AssetMeta]
    values: np.ndarray

    def __post_init__(self):
        self.dates = list(self.dates)
        self.assets = list(self.assets)
        for d in self.dates:
            _check_date(d, "panel dates")
        for a, b in zip(self.dates, self.dates[1:]):
            if not a < b:
                raise ValueError(f"panel dates must be strictly increasing ({a} !< {b})")
        ids = [a.asset_id for a in self.assets]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate asset ids in panel: {dupes}")
        vals = np.array(self.values, dtype=float, copy=True)
        if vals.shape != (len(self.dates), len(self.assets)):
            raise ValueError(
                f"values shape {vals.shape} does not match "
                f"{len(self.dates)} dates x {len(self.assets)} assets"
            )
        if np.isinf(vals).any():
            raise ValueError("panel values must not contain infinities")
        vals.setflags(write=False)
        self.values = vals

    @property
    def n_dates(self) -> int:
        return len(self.dates)

    @property
    def n_assets(self) -> int:
        return len(self.assets)

    @property
    def asset_ids(self) -> tuple[str, ...]:
        return tuple(a.asset_id for a in self.assets)

    def is_complete(self) -> bool:
        """True once every cell is a finite observation."""
        return bool(np.isfinite(self.values).all())


def _load_meta(meta_path) -> dict[str, AssetMeta]:
    with open(meta_path, encoding="utf-8-sig") as fh:
        try:
            raw = json.load(fh)
        except (ValueError, RecursionError) as e:  # the latter: nested too deeply to parse
            raise ValueError(f"{meta_path}: not valid JSON: {e}") from None
    if not isinstance(raw, list):
        raise ValueError(f"{meta_path}: metadata must be a JSON array of asset records")
    metas: dict[str, AssetMeta] = {}
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ValueError(f"{meta_path}: entry {i} is not an object")
        missing = [k for k in META_KEYS if k not in entry]
        if missing:
            raise ValueError(f"{meta_path}: entry {i} is missing keys {missing}")
        texts = []
        for key in META_KEYS[:3]:
            value = entry[key]
            # a numeric ticker such as 7203 loads as text, but str() would also
            # make an id such as 'None' of a null, a bool, a float or a list
            if isinstance(value, bool) or not isinstance(value, (str, int)):
                raise ValueError(
                    f"{meta_path}: entry {i}: {key} must be a string or an integer, got {value!r}"
                )
            texts.append(str(value))
        meta = AssetMeta(*texts, entry["direction"])
        if meta.asset_id in metas:
            raise ValueError(f"{meta_path}: duplicate asset_id {meta.asset_id!r}")
        metas[meta.asset_id] = meta
    return metas


def _csv_rows(fh, csv_path):
    """The rows of the CSV file `fh`, with a malformed one, such as a field
    past `csv.field_size_limit()`, raised as a ValueError naming its row,
    and bytes that are not UTF-8 as one naming the file."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as e:
        raise ValueError(f"{csv_path}: row {reader.line_num}: {e}") from None
    except UnicodeDecodeError as e:  # raised per chunk read, so no row is known
        raise ValueError(f"{csv_path}: not valid UTF-8 text ({e.reason})") from None


def load_panel(csv_path, meta_path) -> PricePanel:
    """Load a price CSV joined with its asset metadata file.

    The CSV must have a header row ``date,<asset_id>,...`` with ISO-8601
    dates and decimal values; an empty field marks a missing observation.
    The metadata file is a JSON array of objects with keys ``asset_id``,
    ``name``, ``asset_class`` and ``direction``. Rows are returned sorted by
    date. Every CSV column must have a metadata record; duplicate dates and
    unparseable cells are hard errors naming the offending row.

    The rows are read by the compiled pass of `_read_compiled` where it
    takes the file, and otherwise, errors included, by `_read_csv`: both
    give the same dates and the same value bits.
    """
    metas = _load_meta(meta_path)
    ids, dates, values = _read_compiled(csv_path) or _read_csv(csv_path)
    unmatched = sorted(i for i in ids if i not in metas)
    if unmatched:
        raise ValueError(f"no metadata for asset(s): {', '.join(unmatched)}")
    assets = [metas[i] for i in ids]
    return PricePanel(dates=dates, assets=assets, values=values)


def _asset_ids(header, csv_path) -> list[str]:
    """The asset ids of a price CSV's header row, its fields after ``date``,
    or the ValueError that names what is wrong with it."""
    if not header or header[0].strip() != "date":
        raise ValueError(f"{csv_path}: first header column must be 'date'")
    ids = [h.strip() for h in header[1:]]
    if not ids:
        raise ValueError(f"{csv_path}: no asset columns in header")
    if "" in ids:
        raise ValueError(f"{csv_path}: header column {ids.index('') + 2} has no asset id")
    if len(set(ids)) != len(ids):
        raise ValueError(f"{csv_path}: duplicate asset columns in header")
    return ids


def _read_compiled(csv_path) -> tuple[list[str], list[date], np.ndarray] | None:
    """The asset ids, dates and (dates, assets) values of the price CSV at
    `csv_path`, its data rows read in one pass of the compiled `parse_rows`,
    or None where the library did not load or the file is not in the strict
    subset that the pass reads: no quote anywhere, a header that `_read_csv`
    accepts, LF or CR LF line ends, and rows of a YYYY-MM-DD date and one
    cell per asset, empty or a plain decimal number that is finite, with no
    blank row, no field past `csv.field_size_limit()` and the dates strictly
    increasing. None also stands for a file that cannot be read, a path
    that is a file descriptor, a date that `date.fromisoformat` refuses or
    any other ValueError here, so that `_read_csv` reads the file from its
    start and raises its own error."""
    if _native.lib is None or isinstance(csv_path, int):  # a descriptor's read would use it up
        return None
    try:
        with open(csv_path, "rb") as fh:
            data = fh.read()
        start = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
        end = data.index(b"\n", start) + 1
        line = data[start : end - 1].removesuffix(b"\r")
        if b'"' in data or b"\r" in line or b"\0" in line:
            return None
        header, limit = line.decode("utf-8").split(","), csv.field_size_limit()
        ids = _asset_ids(header, csv_path)
        if max(map(len, header)) > limit:
            return None
        # at most one row a line, and each at least a date, n commas and a line end
        n = len(ids)
        rows = min(data.count(b"\n", end) + 1, (len(data) - end + 1) // (n + 11))
        values, starts = np.empty((rows, n)), np.empty(rows, np.int64)
        rows = _native.lib.parse_rows(data, len(data), end, n, limit, rows, values.ctypes.data, starts.ctypes.data)
        if rows < 0:
            return None
        dates = [date.fromisoformat(data[i : i + 10].decode("ascii")) for i in starts[:rows].tolist()]
        if any(not a < b for a, b in zip(dates, dates[1:])):
            return None
        return ids, dates, values[:rows]
    except (OSError, ValueError):
        return None


def _read_csv(csv_path) -> tuple[list[str], list[date], np.ndarray]:
    """The asset ids, dates and (dates, assets) values of the price CSV at
    `csv_path`, read by `csv.reader` and then cell by cell, rows sorted by
    date: any file `load_panel` takes, and the error of any it refuses."""
    with open(csv_path, newline="", encoding="utf-8-sig") as fh:
        reader = _csv_rows(fh, csv_path)
        ids = _asset_ids(next(reader, None), csv_path)

        rows: list[tuple[date, list[float]]] = []
        seen: dict[date, int] = {}
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(ids) + 1:
                raise ValueError(
                    f"{csv_path}: row {lineno} has {len(row)} fields, expected {len(ids) + 1}"
                )
            text = row[0].strip()
            try:
                d = date.fromisoformat(text)
            except ValueError:
                raise ValueError(f"{csv_path}: row {lineno}: unparseable date {text!r}") from None
            if d in seen:
                raise ValueError(
                    f"{csv_path}: row {lineno}: duplicate date {d} (first seen at row {seen[d]})"
                )
            seen[d] = lineno
            vals: list[float] = []
            for col, cell in zip(ids, row[1:]):
                cell = cell.strip()
                if not cell:
                    vals.append(np.nan)
                    continue
                try:
                    v = float(cell)
                except ValueError:
                    raise ValueError(
                        f"{csv_path}: row {lineno}: unparseable value {cell!r} for {col!r}"
                    ) from None
                if not math.isfinite(v):
                    raise ValueError(
                        f"{csv_path}: row {lineno}: non-finite value {cell!r} for {col!r}"
                    )
                vals.append(v)
            rows.append((d, vals))

    if not rows:
        raise ValueError(f"{csv_path}: no data rows")

    rows.sort(key=lambda r: r[0])
    dates = [r[0] for r in rows]
    values = np.array([r[1] for r in rows], dtype=float)
    return ids, dates, values


def fill_missing(panel: PricePanel, policy: str = "forward_fill") -> PricePanel:
    """Resolve missing cells so every value is finite.

    ``forward_fill`` replaces each missing cell with the most recent prior
    value of the same asset (a missing value at the first date is a hard
    error since no prior value exists). ``drop_date`` removes every date row
    that has at least one missing cell. Non-missing cells are never changed.
    """
    if policy not in FILL_POLICIES:
        raise ValueError(f"fill policy must be one of {FILL_POLICIES}, got {policy!r}")
    vals = np.array(panel.values, copy=True)
    missing = np.isnan(vals)
    if not missing.any():
        return PricePanel(dates=panel.dates, assets=panel.assets, values=vals)

    if policy == "drop_date":
        keep = ~missing.any(axis=1)
        if not keep.any():
            raise ValueError("drop_date removed every date: no complete rows in panel")
        dates = [d for d, k in zip(panel.dates, keep) if k]
        return PricePanel(dates=dates, assets=panel.assets, values=vals[keep])

    first_row_missing = np.flatnonzero(missing[0])
    if first_row_missing.size:
        bad = ", ".join(panel.assets[c].asset_id for c in first_row_missing)
        raise ValueError(
            f"forward_fill: no prior value exists for {bad} at first date {panel.dates[0]}"
        )
    # index of the most recent non-missing row, per cell
    rows = np.arange(panel.n_dates)[:, None]
    src = np.where(missing, 0, rows)
    np.maximum.accumulate(src, axis=0, out=src)
    filled = vals[src, np.arange(panel.n_assets)[None, :]]
    return PricePanel(dates=panel.dates, assets=panel.assets, values=filled)
