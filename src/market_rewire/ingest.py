"""Price panel ingestion: CSV + metadata loading, date alignment, missing-data policies."""

import csv
import json
from dataclasses import dataclass
from datetime import date, datetime

import numpy as np

ASSET_CLASSES = ("stock", "bond", "fx", "other")
FILL_POLICIES = ("forward_fill", "drop_date")


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
        if not self.asset_id:
            raise ValueError("asset_id must be a non-empty string")
        if self.asset_class not in ASSET_CLASSES:
            raise ValueError(
                f"asset {self.asset_id!r}: asset_class must be one of {ASSET_CLASSES}, "
                f"got {self.asset_class!r}"
            )
        if isinstance(self.direction, bool) or self.direction not in (1, -1):
            raise ValueError(
                f"asset {self.asset_id!r}: direction must be +1 or -1, got {self.direction!r}"
            )


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
            if isinstance(d, datetime) or not isinstance(d, date):
                raise ValueError(f"panel dates must be calendar dates, got {d!r}")
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
        missing = [k for k in ("asset_id", "name", "asset_class", "direction") if k not in entry]
        if missing:
            raise ValueError(f"{meta_path}: entry {i} is missing keys {missing}")
        meta = AssetMeta(
            asset_id=str(entry["asset_id"]),
            name=str(entry["name"]),
            asset_class=str(entry["asset_class"]),
            direction=entry["direction"],
        )
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
                if not np.isfinite(v):
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
