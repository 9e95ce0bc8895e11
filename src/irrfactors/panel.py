"""Market panel data model: aligned (stock x period) features, prices, returns.

The panel is the universal input of the pipeline. It is fully dense: every
stock has a row for every period, prices are strictly positive, and returns
are percent changes of the closing price with period 0 masked as NaN.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from datetime import date
from enum import IntEnum
from itertools import chain, filterfalse, islice
from operator import methodcaller
from typing import NoReturn

import numpy as np

from .files import atomic_open
from .settings import require

FEATURE_NAMES = ("open", "close", "high", "low", "vwap", "volume")
CSV_COLUMNS = ("date", "stock_id") + FEATURE_NAMES
# Rows per CSV parse or write pass. Small on purpose: the strings of a larger
# chunk keep fresh allocator arenas in use and raise the run's peak RSS.
CSV_CHUNK_ROWS = 128


class HoleInPanel(ValueError):
    """A (stock, date) cell is missing from the input."""


class BadPrice(ValueError):
    """A non-positive, NaN or infinite price."""


class DuplicateRow(ValueError):
    """A (stock, date) pair appears more than once."""


class BadDate(ValueError):
    """A date that is not an ISO-8601 calendar date (YYYY-MM-DD)."""


class BadCell(ValueError):
    """A feature cell that is not a number."""


class WideRow(ValueError):
    """A CSV row with more cells than its header."""


class EmptyFile(ValueError):
    """A panel CSV without a header."""


class MissingColumns(ValueError):
    """A panel CSV header without some of the eight columns."""


class DuplicateColumn(ValueError):
    """A panel CSV header that names one of the eight columns more than once."""


class NotUtf8(ValueError):
    """A panel CSV line that is not UTF-8 text."""


class BadLabel(ValueError):
    """A stock id or date label that a panel CSV cannot carry."""


class NonFiniteFeature(ValueError):
    """A NaN or infinite feature, price or return."""


class TooShort(ValueError):
    """Fewer periods than the operation requires."""


class TooEarly(ValueError):
    """A history window does not fit in the panel's periods."""


class BadShape(ValueError):
    """Panel arrays whose shapes disagree with each other or with the labels."""


class PanelMismatch(ValueError):
    """A panel's stocks or features differ from those the parameters were trained on."""


class SyncClass(IntEnum):
    """Market synchronism label; values index the classifier's logits."""

    UP = 0
    DOWN = 1
    NEUTRAL = 2


@dataclass(frozen=True)
class SynchronismConfig:
    """Thresholds defining per-stock moves and market-wide synchrony.

    delta_threshold is the percent move beyond which a stock counts as an
    up/down mover (strict inequality). hm_ratio scales the market threshold:
    H_m = ceil(hm_ratio * I).
    """

    delta_threshold: float = 0.5
    hm_ratio: float = 0.7

    def __post_init__(self):
        require(self.delta_threshold > 0, "delta_threshold", "must be positive")
        require(0.0 < self.hm_ratio < 1.0, "hm_ratio", "must lie in (0, 1)")

    def market_threshold(self, n_stocks: int) -> int:
        return int(math.ceil(self.hm_ratio * n_stocks))


@dataclass
class MarketPanel:
    """Aligned market data: features (I, T, D_e), prices (I, T), returns (I, T).

    returns[:, 0] is NaN (no predecessor); returns[:, t] for t >= 1 equals the
    percent change of prices.
    """

    stock_ids: list[str]
    periods: list[str]
    features: np.ndarray
    prices: np.ndarray
    returns: np.ndarray
    feature_names: tuple[str, ...] = FEATURE_NAMES

    @property
    def n_stocks(self) -> int:
        return len(self.stock_ids)

    @property
    def n_periods(self) -> int:
        return len(self.periods)

    @property
    def n_features(self) -> int:
        return self.features.shape[2]

    @classmethod
    def from_prices(cls, stock_ids, periods, features, prices,
                    feature_names: tuple[str, ...] | None = None) -> "MarketPanel":
        """The panel of these prices and their returns; all values must be finite."""
        features = np.asarray(features, dtype=np.float64)
        prices = np.asarray(prices, dtype=np.float64)
        labels = (len(stock_ids), len(periods))
        if features.ndim != 3 or features.shape[:2] != labels or prices.shape != labels:
            raise BadShape(f"panel tensors have inconsistent shapes: features {features.shape}, "
                           f"prices {prices.shape}, (stocks, periods) {labels}")
        if feature_names is None:
            d = features.shape[2]
            feature_names = tuple(FEATURE_NAMES[j] if j < len(FEATURE_NAMES) else f"x{j}"
                                  for j in range(d))
        _require_finite(features, feature_names, stock_ids, periods)
        _require_finite(prices[..., None], ("price",), stock_ids, periods)
        returns = compute_returns(prices)
        return cls(stock_ids=list(stock_ids), periods=list(periods), features=features,
                   prices=prices, returns=returns, feature_names=feature_names)

    def resolve_period(self, boundary) -> int:
        """Map a period label or integer index to an integer index."""
        if isinstance(boundary, (int, np.integer)):
            idx = int(boundary)
            if not 0 < idx <= self.n_periods:
                raise ValueError(f"period index {idx} outside panel of length {self.n_periods}")
            return idx
        try:
            return self.periods.index(str(boundary))
        except ValueError:
            raise ValueError(f"period {boundary!r} not found in panel") from None


def _require_finite(values: np.ndarray, names, stocks, dates, where: str = "") -> None:
    """Raise NonFiniteFeature naming the first NaN or infinite cell of (I, T, k)
    values, whose last axis holds the quantities `names`."""
    finite = np.isfinite(values)
    if not finite.all():
        i, t, j = np.argwhere(~finite)[0]
        raise NonFiniteFeature(f"{where}{names[j]} of stock {stocks[i]} on {dates[t]} is "
                               f"{float(values[i, t, j])!r}")


def compute_returns(prices: np.ndarray) -> np.ndarray:
    """Percent returns (p_t - p_{t-1}) / p_{t-1} * 100 with period 0 masked."""
    prices = np.asarray(prices, dtype=np.float64)
    if prices.ndim != 2 or prices.shape[1] < 2:
        raise TooShort("need at least 2 periods to compute returns")
    if np.any(prices <= 0):
        raise BadPrice("prices must be strictly positive")
    out = np.empty_like(prices)
    out[:, 0] = np.nan
    out[:, 1:] = (prices[:, 1:] - prices[:, :-1]) / prices[:, :-1] * 100.0
    return out


def compute_deltas(returns: np.ndarray, cfg: SynchronismConfig) -> np.ndarray:
    """Per-stock move indicators in {-1, 0, 1}; strict threshold, NaN -> 0."""
    r = np.asarray(returns, dtype=np.float64)
    deltas = np.zeros(r.shape, dtype=np.int64)
    with np.errstate(invalid="ignore"):
        deltas[r > cfg.delta_threshold] = 1
        deltas[r < -cfg.delta_threshold] = -1
    return deltas


def compute_synchronism_labels(deltas: np.ndarray, cfg: SynchronismConfig) -> list[SyncClass]:
    """Per-period 3-way labels; |sum of deltas| must strictly exceed H_m."""
    deltas = np.asarray(deltas)
    h_m = cfg.market_threshold(deltas.shape[0])
    sums = deltas.sum(axis=0)
    labels = []
    for s in sums:
        if s > h_m:
            labels.append(SyncClass.UP)
        elif s < -h_m:
            labels.append(SyncClass.DOWN)
        else:
            labels.append(SyncClass.NEUTRAL)
    return labels


def check_windows(t, window: int, n_periods: int) -> None:
    """Raise TooEarly when the window of periods t - window .. t - 1, for a
    period or any of an array of periods, starts before period 0 or ends past
    period n_periods - 1."""
    ts = np.asarray(t)
    bad = (ts < window) | (ts > n_periods)
    if bad.any():
        stop = int(ts[bad].flat[0])
        raise TooEarly(f"window of {window} periods {stop - window}..{stop - 1} before "
                       f"period {stop} does not fit in periods 0..{n_periods - 1}")


def windows(x: np.ndarray, t, window: int) -> np.ndarray:
    """History windows of a (I, T, ...) array: periods t - window .. t - 1.

    A scalar t gives one (I, window, ...) window; an array of periods gives
    the windows stacked on a leading axis, (P, I, window, ...). Raises
    TooEarly (check_windows) when a window does not fit in the T periods.
    """
    check_windows(t, window, x.shape[1])
    if np.ndim(t) == 0:
        return x[:, t - window:t]
    return np.stack([x[:, s - window:s] for s in np.asarray(t)])


def load_panel(path) -> MarketPanel:
    """Load a dense panel from CSV.

    The file must carry a header with the columns date, stock_id, open, high,
    low, close, vwap, volume. Dates are ISO-8601 (YYYY-MM-DD) and periods are
    ordered by date. Every (stock, date) pair must appear exactly once,
    every feature must be a finite number and no row may have more cells than
    the header. Lines starting with '#' are ignored.

    Rows are parsed CSV_CHUNK_ROWS at a time, a column per call, so only one
    chunk's text is held at a time. A faulty row found that way is named,
    with its path:line, by a second, row-by-row read of the file; so is a
    line that is not UTF-8, by a read of the file's bytes, unless a header or
    row fault comes before it in the file.
    """
    try:
        return _read_panel(path)
    except UnicodeDecodeError:
        with open(path, "rb") as fh:                # name the first line that is not UTF-8
            before = []
            for lineno, line in enumerate(fh, 1):
                try:
                    before.append(line.decode("utf-8"))
                except UnicodeDecodeError as e:
                    _check_rows(path, io.StringIO("".join(before), newline=""))
                    raise NotUtf8(f"{path}:{lineno}: byte {line[e.start]:#04x} at column "
                                  f"{e.start + 1} is not UTF-8") from None
        raise


def _read_panel(path) -> MarketPanel:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(filterfalse(methodcaller("startswith", "#"), fh))
        header = next(reader, None)
        _check_header(path, header)
        where = dict(zip(header, range(len(header))))
        date_col, sid_col, *feature_cols = (where[c] for c in CSV_COLUMNS)
        width = max(date_col, sid_col, *feature_cols) + 1
        stock_code, date_code, chunks = {}, {}, []
        records = filter(None, reader)                  # a blank line is an empty row
        while rows := list(islice(records, CSV_CHUNK_ROWS)):
            if min(map(len, rows)) < width or max(map(len, rows)) > len(header):
                _raise_row_fault(path)
            cols = list(zip(*rows))
            cells = chain.from_iterable(cols[k] for k in feature_cols)
            try:
                values = np.fromiter(map(float, cells), np.float64, len(feature_cols) * len(rows))
            except ValueError:
                _raise_row_fault(path)
            chunks.append((_codes(cols[sid_col], stock_code), _codes(cols[date_col], date_code),
                           values.reshape(len(feature_cols), -1)))

    if not chunks:
        raise TooShort("panel needs at least 2 periods")
    days = [_parse_date(label) for label in date_code]
    if None in days:
        _raise_row_fault(path)
    stocks = sorted(stock_code)
    by_day = sorted(range(len(days)), key=days.__getitem__)
    date_labels = list(date_code)
    dates = [date_labels[k] for k in by_day]
    I, T = len(stocks), len(dates)
    stock_pos = np.empty(I, dtype=np.intp)
    stock_pos[[stock_code[sid] for sid in stocks]] = np.arange(I)
    date_pos = np.empty(T, dtype=np.intp)
    date_pos[by_day] = np.arange(T)
    cell = np.concatenate([stock_pos[s] * T + date_pos[d] for s, d, _ in chunks])
    counts = np.bincount(cell, minlength=I * T)
    if (counts > 1).any():
        _raise_row_fault(path)
    if T < 2:
        raise TooShort("panel needs at least 2 periods")
    if not counts.all():
        i, t = divmod(int(np.argmin(counts)), T)
        raise HoleInPanel(f"missing row for stock {stocks[i]} on {dates[t]}")
    features = np.empty((I * T, len(FEATURE_NAMES)), dtype=np.float64)
    start = 0
    for *_, values in chunks:                   # chunk by chunk: no whole-panel copy
        features[cell[start:start + values.shape[1]]] = values.T
        start += values.shape[1]
    del chunks, cell, counts
    features = features.reshape(I, T, len(FEATURE_NAMES))
    _require_finite(features, FEATURE_NAMES, stocks, dates, f"{path}: ")

    close_idx = FEATURE_NAMES.index("close")
    prices = features[:, :, close_idx].copy()
    if np.any(prices <= 0):
        bad = np.argwhere(prices <= 0)[0]
        raise BadPrice(f"non-positive close for stock {stocks[bad[0]]} on {dates[bad[1]]}")
    return MarketPanel(stocks, dates, features, prices, compute_returns(prices))


def _codes(labels, table: dict) -> np.ndarray:
    """Each label's code in `table`, where a label not yet there gets the next code."""
    for label in dict.fromkeys(labels):
        table.setdefault(label, len(table))
    return np.fromiter(map(table.__getitem__, labels), np.intp, len(labels))


def _check_header(path, header) -> None:
    if header is None:
        raise EmptyFile(f"{path}: empty file")
    missing = [c for c in CSV_COLUMNS if c not in header]
    if missing:
        raise MissingColumns(f"{path}: missing columns {missing}")
    repeated = [c for c in CSV_COLUMNS if header.count(c) > 1]
    if repeated:
        raise DuplicateColumn(f"{path}: the header names {repeated} more than once")


def _raise_row_fault(path) -> NoReturn:
    """Read `path` again row by row and raise its first faulty row's error."""
    with open(path, newline="", encoding="utf-8") as fh:
        _check_rows(path, fh)
    raise ValueError(f"{path}: the file changed while it was read")


def _check_rows(path, lines) -> None:
    """Raise the error of the first header or row fault in the text `lines` of
    `path`; return if they hold none, or no header.

    Each row is checked in a fixed order: its width against the header's, its
    (stock, date) pair against the rows before it, then its cells, then its
    date. A short row reads None for each missing cell.
    """
    lines = iter(lines)
    for offset, line in enumerate(lines, 1):    # the header is the first line without '#'
        if not line.startswith("#"):
            break
    else:
        return
    header = next(csv.reader([line]))
    _check_header(path, header)
    pairs = set()
    # An emptied '#' line reads as nothing but keeps line_num the file's line.
    reader = csv.reader("" if ln.startswith("#") else ln for ln in lines)
    for row in filter(None, reader):
        where = f"{path}:{offset + reader.line_num}"
        if len(row) > len(header):
            raise WideRow(f"{where}: {len(row)} cells under a header of {len(header)}")
        rec = dict(zip(header, row))
        sid, label = rec.get("stock_id"), rec.get("date")
        if (sid, label) in pairs:
            raise DuplicateRow(f"duplicate row for stock {sid} on {label}")
        pairs.add((sid, label))
        for col, name in enumerate(header, 1):
            if name in FEATURE_NAMES and not _is_number(rec.get(name)):
                raise BadCell(f"{where}: column {col} ({name}) is not a "
                              f"number: {rec.get(name)!r}")
        if _parse_date(label) is None:
            raise BadDate(f"{where}: date {label!r} is not YYYY-MM-DD")
        if sid is None:
            raise BadCell(f"{where}: column {header.index('stock_id') + 1} "
                          f"(stock_id) is missing")


def _parse_date(label) -> date | None:
    """The date an ISO-8601 YYYY-MM-DD label names, or None for any other label."""
    try:
        day = date.fromisoformat(label)
    except (TypeError, ValueError):
        return None
    return day if day.isoformat() == label else None


def _is_number(text) -> bool:
    try:
        float(text)
    except (TypeError, ValueError):
        return False
    return True


def write_csv(path, header, columns, comment: str | None = None) -> None:
    """Write equal-length columns as CSV under a header and an optional
    '# comment' line.

    A float column is written with repr and an integer column with str. Any
    other column (stock ids, date labels, names) is written as csv.writer
    quotes it, each distinct value quoted once. Rows go out CSV_CHUNK_ROWS
    at a time, and the file appears under its name only once it is complete.
    """
    columns = [np.asarray(c) for c in columns]
    quoted = [{} for _ in columns]
    with atomic_open(path, "w", newline="", encoding="utf-8") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        csv.writer(fh).writerow(header)
        for start in range(0, len(columns[0]), CSV_CHUNK_ROWS):
            cells = [_cells(c[start:start + CSV_CHUNK_ROWS], q) for c, q in zip(columns, quoted)]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def _cells(column: np.ndarray, quoted: dict):
    """The CSV cells of one column chunk; `quoted` keeps the label cells made so far."""
    values = column.tolist()
    if column.dtype.kind == "f":
        return map(repr, values)
    if column.dtype.kind in "iu":
        return map(str, values)
    for value in dict.fromkeys(values):
        if value not in quoted:
            line = io.StringIO()
            csv.writer(line).writerow((value, ""))
            quoted[value] = line.getvalue()[:-len(",\r\n")]
    return map(quoted.__getitem__, values)


def write_panel_csv(panel: MarketPanel, path, header_comment: str | None = None) -> None:
    """Write the panel in the canonical CSV schema (one row per stock-date).

    A stock id or date label holding a line break raises BadLabel before the
    file is opened: load_panel reads a file line by line and could not read
    it back.
    """
    for kind, labels in (("stock id", panel.stock_ids), ("date label", panel.periods)):
        for label in labels:
            if "\r" in label or "\n" in label:
                raise BadLabel(f"{path}: {kind} {label!r} holds a line break, which a "
                               f"panel CSV cannot carry")
    I, T = panel.n_stocks, panel.n_periods
    write_csv(path, CSV_COLUMNS,
              [np.tile(np.array(panel.periods, dtype=object), I),
               np.array(panel.stock_ids, dtype=object).repeat(T),
               *panel.features.reshape(I * T, -1).T], header_comment)


@dataclass
class FeatureScaler:
    """Per-(stock, feature) z-normalization, fit on the training periods only."""

    mu: np.ndarray = field(repr=False)
    sigma: np.ndarray = field(repr=False)

    @classmethod
    def fit(cls, features: np.ndarray, train_end: int) -> "FeatureScaler":
        if train_end < 2:
            raise TooShort("need at least 2 training periods to fit the scaler")
        train = features[:, :train_end, :]
        mu = train.mean(axis=1, keepdims=True)
        sigma = train.std(axis=1, keepdims=True)
        sigma = np.where(sigma < 1e-12, 1.0, sigma)
        return cls(mu=mu, sigma=sigma)

    @classmethod
    def identity(cls, n_stocks: int, n_features: int) -> "FeatureScaler":
        return cls(mu=np.zeros((n_stocks, 1, n_features)),
                   sigma=np.ones((n_stocks, 1, n_features)))

    def transform(self, features: np.ndarray) -> np.ndarray:
        out = features - self.mu
        out /= self.sigma
        return out
