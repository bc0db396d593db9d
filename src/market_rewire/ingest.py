"""Price panel ingestion: CSV + metadata loading, date alignment, missing-data policies."""

import csv
import json
import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass
from datetime import date, datetime

import numpy as np

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
    """Raise unless `value` is a real number > 0, or one in [0, at_most]
    where `at_most` is given. NaN fails either test."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
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
        raw = json.load(fh)
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


def load_panel(csv_path, meta_path) -> PricePanel:
    """Load a price CSV joined with its asset metadata file.

    The CSV must have a header row ``date,<asset_id>,...`` with ISO-8601
    dates and decimal values; an empty field marks a missing observation.
    The metadata file is a JSON array of objects with keys ``asset_id``,
    ``name``, ``asset_class`` and ``direction``. Rows are returned sorted by
    date. Every CSV column must have a metadata record; duplicate dates and
    unparseable cells are hard errors naming the offending row.
    """
    metas = _load_meta(meta_path)
    with open(csv_path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or not header or header[0].strip() != "date":
            raise ValueError(f"{csv_path}: first header column must be 'date'")
        ids = [h.strip() for h in header[1:]]
        if not ids:
            raise ValueError(f"{csv_path}: no asset columns in header")
        if "" in ids:
            raise ValueError(f"{csv_path}: header column {ids.index('') + 2} has no asset id")
        if len(set(ids)) != len(ids):
            raise ValueError(f"{csv_path}: duplicate asset columns in header")

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
    unmatched = sorted(i for i in ids if i not in metas)
    if unmatched:
        raise ValueError(f"no metadata for asset(s): {', '.join(unmatched)}")

    rows.sort(key=lambda r: r[0])
    dates = [r[0] for r in rows]
    values = np.array([r[1] for r in rows], dtype=float)
    assets = [metas[i] for i in ids]
    return PricePanel(dates=dates, assets=assets, values=values)


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
