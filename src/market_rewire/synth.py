"""Seeded synthetic multi-asset panels with controllable co-movement shocks.

Outside a shock every asset follows an independent Gaussian random walk in
log-price from `START_PRICE`, with daily volatility `BASE_VOL` and a small
asset-specific drift (alternating sign, magnitudes spread across
`DRIFT_MIN..DRIFT_MAX`). The drifts give each asset a persistent trend, so
its standardized window shape is stable from one day to the next:
day-over-day distance changes then reflect genuine regime change rather
than re-standardization churn.

During a shock each affected asset's daily log-return mixes a common factor
(scaled up to crisis-size moves, and signed by the asset's risk-on
direction so bonds move against stocks before direction correction) with
its own baseline dynamics:

    r = loading * (FACTOR_VOL_SCALE * BASE_VOL * g_t) * direction
        + (1 - loading) * (drift_i + BASE_VOL * e_it)

Generation is deterministic for a fixed seed: the pseudorandom source is
NumPy's PCG64 via `numpy.random.default_rng`, and all noise is drawn up
front in a fixed order, so two specs that differ only in their shock list
share the identical underlying noise (loading 0 reproduces the no-shock
panel exactly).
"""

import csv
import json
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from .ingest import ASSET_CLASSES, META_KEYS, AssetMeta, PricePanel, _check_int, _check_real

DIRECTION_DEFAULTS = {"stock": 1, "bond": -1, "fx": -1, "other": 1}

_CLASS_PREFIX = {"stock": "stk", "bond": "bnd", "fx": "fx", "other": "oth"}

_START_DATE = date(2007, 1, 1)  # a Monday

BASE_VOL = 0.004  # daily log-return volatility outside shocks
DRIFT_MIN, DRIFT_MAX = 0.003, 0.006  # range of the per-asset daily log-drift magnitudes
START_PRICE = 100.0
FACTOR_VOL_SCALE = 4.0  # a shock's factor volatility, in units of BASE_VOL

PRICES_CSV, ASSETS_JSON = "prices.csv", "assets.json"


@dataclass(frozen=True)
class Shock:
    """A co-movement episode on days [start_day, end_day], both inclusive.

    `affected_assets` holds column indices, or None for all assets.
    `factor_loading` in [0, 1] blends the common factor against idiosyncratic
    noise. The factor's daily volatility is `FACTOR_VOL_SCALE` times the
    base volatility (event days are outsized moves).
    """

    start_day: int
    end_day: int
    factor_loading: float
    affected_assets: tuple[int, ...] | None = None


@dataclass
class SynthSpec:
    """Specification for one synthetic panel.

    `class_assignment` lists one asset class per column; None cycles through
    stock, bond, fx. Directions default to +1 for stocks and -1 for bonds
    and fx.
    """

    n_assets: int
    n_days: int
    seed: int
    shocks: list[Shock] = field(default_factory=list)
    class_assignment: tuple[str, ...] | None = None


def _validate_spec(spec: SynthSpec) -> tuple[str, ...]:
    _check_int(spec.n_assets, "n_assets")
    _check_int(spec.n_days, "n_days")
    _check_int(spec.seed, "seed", 0)
    if spec.n_assets < 2:
        raise ValueError(f"need at least 2 assets, got {spec.n_assets}")
    if spec.n_days < 2:
        raise ValueError(f"need at least 2 days, got {spec.n_days}")
    if spec.class_assignment is None:
        cycle = ("stock", "bond", "fx")
        classes = tuple(cycle[i % 3] for i in range(spec.n_assets))
    else:
        classes = tuple(spec.class_assignment)
        if len(classes) != spec.n_assets:
            raise ValueError(
                f"class_assignment has {len(classes)} entries for {spec.n_assets} assets"
            )
        for c in classes:
            if c not in ASSET_CLASSES:
                raise ValueError(f"unknown asset class {c!r}")

    shocks = spec.shocks
    if not isinstance(shocks, (list, tuple)) or not all(isinstance(s, Shock) for s in shocks):
        raise ValueError(f"shocks must be a list or tuple of Shock, got {shocks!r}")
    claimed = np.zeros((spec.n_days, spec.n_assets), dtype=bool)
    for s in spec.shocks:
        _check_int(s.start_day, "start_day")
        _check_int(s.end_day, "end_day")
        if not 0 <= s.start_day <= s.end_day < spec.n_days:
            raise ValueError(
                f"shock interval [{s.start_day}, {s.end_day}] outside [0, {spec.n_days})"
            )
        _check_real(s.factor_loading, "factor_loading", at_most=1.0)
        cols = range(spec.n_assets) if s.affected_assets is None else s.affected_assets
        for c in cols:
            if not 0 <= _check_int(c, "affected_assets entry") < spec.n_assets:
                raise ValueError(f"affected asset index {c} out of range")
            if claimed[s.start_day : s.end_day + 1, c].any():
                raise ValueError("overlapping shocks on the same asset are not supported")
            claimed[s.start_day : s.end_day + 1, c] = True
    return classes


def _asset_metas(classes: tuple[str, ...]) -> list[AssetMeta]:
    width = max(2, len(str(len(classes) - 1)))
    metas = []
    for i, cls in enumerate(classes):
        metas.append(
            AssetMeta(
                asset_id=f"{_CLASS_PREFIX[cls]}{i:0{width}d}",
                name=f"Synthetic {cls} {i}",
                asset_class=cls,
                direction=DIRECTION_DEFAULTS[cls],
            )
        )
    return metas


def _weekdays(n: int) -> list[date]:
    out = []
    d = _START_DATE
    while len(out) < n:
        if d.weekday() < 5:
            out.append(d)
        d += timedelta(days=1)
    return out


def _drifts(spec: SynthSpec) -> np.ndarray:
    """Per-asset daily log-drift: magnitudes spread over [DRIFT_MIN, DRIFT_MAX],
    signs alternating by column."""
    mags = np.linspace(DRIFT_MIN, DRIFT_MAX, spec.n_assets)
    signs = np.where(np.arange(spec.n_assets) % 2 == 0, 1.0, -1.0)
    return signs * mags


def generate(spec: SynthSpec) -> PricePanel:
    """Generate a synthetic price panel per `spec`; deterministic for a fixed seed."""
    classes = _validate_spec(spec)
    metas = _asset_metas(classes)
    directions = np.array([m.direction for m in metas], dtype=float)

    rng = np.random.default_rng(spec.seed)
    # fixed draw order: idiosyncratic noise first, then the common factor
    idio = rng.standard_normal((spec.n_days, spec.n_assets))
    factor = rng.standard_normal(spec.n_days)

    drifts = _drifts(spec)
    returns = drifts[None, :] + BASE_VOL * idio
    for s in spec.shocks:
        cols = (
            np.arange(spec.n_assets)
            if s.affected_assets is None
            else np.asarray(s.affected_assets, dtype=int)
        )
        days = np.arange(max(s.start_day, 1), s.end_day + 1)
        if days.size == 0:
            continue
        common = FACTOR_VOL_SCALE * BASE_VOL * factor[days]
        shared = s.factor_loading * common[:, None] * directions[cols][None, :]
        own = (1.0 - s.factor_loading) * (
            drifts[cols][None, :] + BASE_VOL * idio[np.ix_(days, cols)]
        )
        returns[np.ix_(days, cols)] = shared + own

    returns[0, :] = 0.0
    log_prices = np.log(START_PRICE) + np.cumsum(returns, axis=0)
    values = np.exp(log_prices)
    return PricePanel(dates=_weekdays(spec.n_days), assets=metas, values=values)


def write_panel(panel: PricePanel, out_dir):
    """Write a panel as the `PRICES_CSV` + `ASSETS_JSON` pair that
    `load_panel` reads.

    Values are formatted with shortest round-trip precision and a fixed
    newline convention, so identical panels always produce identical bytes.
    Asset ids that hold a comma, a quote or a newline are quoted in the CSV
    header. Returns (csv_path, meta_path).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / PRICES_CSV
    meta_path = out_dir / ASSETS_JSON

    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["date", *panel.asset_ids])
        for d, row in zip(panel.dates, panel.values):
            writer.writerow([d.isoformat()] + ["" if np.isnan(v) else repr(float(v)) for v in row])

    records = [{key: getattr(m, key) for key in META_KEYS} for m in panel.assets]
    with open(meta_path, "w", encoding="utf-8", newline="") as fh:
        json.dump(records, fh, indent=2)
        fh.write("\n")
    return csv_path, meta_path
