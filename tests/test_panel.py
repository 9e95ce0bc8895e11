import csv
import io
import tracemalloc
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irrfactors.panel import (FEATURE_NAMES, BadCell, BadDate, BadLabel, BadPrice, BadShape,
                              DuplicateColumn, DuplicateRow, EmptyFile, FeatureScaler,
                              HoleInPanel, MarketPanel, MissingColumns, NonFiniteFeature,
                              NotUtf8, SynchronismConfig, SyncClass, TooEarly,
                              TooShort, WideRow, windows,
                              compute_deltas, compute_returns,
                              compute_synchronism_labels,
                              load_panel, write_csv, write_panel_csv)
from irrfactors import panel as panel_module
from irrfactors.synthetic import SyntheticSpec, generate_synthetic
from conftest import random_panel

HEADER = "date,stock_id,open,close,high,low,vwap,volume\n"


def _row(date, sid, close):
    return f"{date},{sid},{close},{close},{close},{close},{close},1000\n"


def _write(tmp_path, rows):
    path = tmp_path / "panel.csv"
    path.write_text(HEADER + "".join(rows))
    return path


def test_load_panel_minimal(tmp_path):
    rows = [_row(d, s, 100 + i) for i, (s, d) in enumerate(
        (s, d) for s in ("A", "B") for d in ("2020-01-01", "2020-01-02", "2020-01-03"))]
    panel = load_panel(_write(tmp_path, rows))
    assert panel.n_stocks == 2 and panel.n_periods == 3
    assert panel.stock_ids == ["A", "B"]
    assert np.isnan(panel.returns[:, 0]).all()


def test_load_panel_missing_cell(tmp_path):
    rows = [_row("2020-01-01", "A", 100), _row("2020-01-02", "A", 101),
            _row("2020-01-01", "B", 50)]
    with pytest.raises(HoleInPanel):
        load_panel(_write(tmp_path, rows))


def test_load_panel_zero_close(tmp_path):
    rows = [_row("2020-01-01", "A", 100), _row("2020-01-02", "A", 0),
            _row("2020-01-01", "B", 50), _row("2020-01-02", "B", 51)]
    with pytest.raises(BadPrice):
        load_panel(_write(tmp_path, rows))


def test_load_panel_duplicate_row(tmp_path):
    rows = [_row("2020-01-01", "A", 100), _row("2020-01-01", "A", 101)]
    with pytest.raises(DuplicateRow):
        load_panel(_write(tmp_path, rows))


def test_panel_csv_round_trip(tmp_path):
    from irrfactors.synthetic import SyntheticSpec, generate_synthetic
    panel = generate_synthetic(SyntheticSpec(n_stocks=3, n_periods=5, seed=7))
    path = tmp_path / "round.csv"
    write_panel_csv(panel, path, header_comment="hash=x seed=1")
    loaded = load_panel(path)
    np.testing.assert_allclose(loaded.prices, panel.prices, rtol=1e-15)
    np.testing.assert_allclose(loaded.features, panel.features, rtol=1e-15)


_ids = st.lists(st.text("ABCXYZ019", min_size=1, max_size=4), min_size=1, max_size=4,
               unique=True)
_feature = st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False)
_price = st.floats(1e-3, 1e6, allow_nan=False, allow_infinity=False)


def _draw_array(data, elements, shape):
    size = int(np.prod(shape))
    return np.array(data.draw(st.lists(elements, min_size=size, max_size=size))).reshape(shape)


@given(ids=_ids, first_day=st.dates(date(1990, 1, 1), date(2030, 12, 31)),
       gaps=st.lists(st.integers(1, 400), min_size=1, max_size=5), data=st.data())
@settings(max_examples=40)
def test_panel_csv_round_trip_survives_shuffled_rows_and_comments(tmp_path_factory, ids,
                                                                  first_day, gaps, data):
    ids = sorted(ids)
    days = [first_day + timedelta(days=sum(gaps[:k])) for k in range(len(gaps) + 1)]
    dates = [d.isoformat() for d in days]
    shape = (len(ids), len(dates))
    features = _draw_array(data, _feature, shape + (len(FEATURE_NAMES),))
    prices = _draw_array(data, _price, shape)
    features[:, :, FEATURE_NAMES.index("close")] = prices
    panel = MarketPanel.from_prices(ids, dates, features, prices)

    path = tmp_path_factory.mktemp("round") / "panel.csv"
    write_panel_csv(panel, path, header_comment="stamp")
    stamp, header, *rows = path.read_bytes().decode().splitlines(keepends=True)
    lines = [header] + data.draw(st.permutations(rows))
    for _ in range(data.draw(st.integers(0, 4))):
        lines.insert(data.draw(st.integers(0, len(lines))), "# interleaved comment\r\n")
    path.write_bytes((stamp + "".join(lines)).encode())

    loaded = load_panel(path)
    assert loaded.stock_ids == ids and loaded.periods == dates
    assert loaded.features.tobytes() == panel.features.tobytes()
    assert loaded.prices.tobytes() == panel.prices.tobytes()


def test_interrupted_csv_write_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "out.csv"
    write_csv(path, ["a"], [[1, 2]], "old")

    class Unwritable:                   # fails as a full disk would, after one row is out
        def __hash__(self):
            raise OSError("disk full")

    monkeypatch.setattr(panel_module, "CSV_CHUNK_ROWS", 1)
    with pytest.raises(OSError):
        write_csv(path, ["a"], [np.array(["3", Unwritable()], dtype=object)], "new")
    assert path.read_bytes() == b"# old\na\r\n1\r\n2\r\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_compute_returns_hand_values():
    prices = np.array([[100.0, 105.0], [50.0, 50.0], [200.0, 150.0]])
    returns = compute_returns(prices)
    np.testing.assert_allclose(returns[:, 1], [5.0, 0.0, -25.0])
    assert np.isnan(returns[:, 0]).all()


@pytest.mark.parametrize("features, prices", [
    (np.zeros((2, 3)), np.ones((2, 3))),                  # features without a feature axis
    (np.zeros((2, 3, 1)), np.ones(3)),                    # prices without a stock axis
    (np.zeros((2, 3, 1)), np.array([[1.0, 0.0], [1.0, 1.0]])),  # too few periods, one a zero
])
def test_from_prices_names_misshapen_arrays(features, prices):
    with pytest.raises(BadShape, match="inconsistent shapes"):
        MarketPanel.from_prices(["A", "B"], ["d0", "d1", "d2"], features, prices)


@pytest.mark.parametrize("cell, value, message", [
    ((1, 2, 0), np.nan, "open of stock B on d2 is nan"),
    ((0, 1, 0), -np.inf, "open of stock A on d1 is -inf"),
    ((1, 0, None), np.inf, "price of stock B on d0 is inf"),
    ((0, 2, None), np.nan, "price of stock A on d2 is nan"),
])
def test_from_prices_names_a_non_finite_cell(cell, value, message):
    features, prices = np.zeros((2, 3, 1)), np.ones((2, 3))
    i, t, j = cell
    if j is None:
        prices[i, t] = value
    else:
        features[i, t, j] = value
    with pytest.raises(NonFiniteFeature, match=message):
        MarketPanel.from_prices(["A", "B"], ["d0", "d1", "d2"], features, prices)


def test_compute_returns_too_short():
    with pytest.raises(TooShort):
        compute_returns(np.array([[100.0]]))


def test_returns_round_trip():
    rng = np.random.default_rng(2)
    prices = 100.0 * np.exp(rng.normal(scale=0.02, size=(5, 60)).cumsum(axis=1))
    returns = compute_returns(prices)
    rebuilt = np.empty_like(prices)
    rebuilt[:, 0] = prices[:, 0]
    for t in range(1, prices.shape[1]):
        rebuilt[:, t] = rebuilt[:, t - 1] * (1.0 + returns[:, t] / 100.0)
    np.testing.assert_allclose(rebuilt, prices, rtol=1e-10)


def test_deltas_threshold_is_strict():
    cfg = SynchronismConfig(delta_threshold=0.5)
    returns = np.array([[2.0, -0.3, 0.5, -0.5, 0.51]])
    np.testing.assert_array_equal(compute_deltas(returns, cfg)[0], [1, 0, 0, 0, 1])


def test_synchronism_label_cases():
    cfg = SynchronismConfig(hm_ratio=0.7)
    deltas = np.zeros((10, 3), dtype=np.int64)
    deltas[:8, 0] = 1                      # sum 8 > H_m = 7 -> UP
    deltas[:7, 1] = -1                     # sum -7, boundary -> NEUTRAL
    labels = compute_synchronism_labels(deltas, cfg)
    assert labels == [SyncClass.UP, SyncClass.NEUTRAL, SyncClass.NEUTRAL]


def test_labels_give_one_class_per_period():
    rng = np.random.default_rng(0)
    cfg = SynchronismConfig()
    deltas = rng.integers(-1, 2, size=(9, 40))
    labels = compute_synchronism_labels(deltas, cfg)
    assert len(labels) == 40
    assert all(isinstance(label, SyncClass) for label in labels)


def test_scaler_fits_training_slice_only():
    panel = random_panel(1, n_periods=20)
    scaler = FeatureScaler.fit(panel.features, train_end=12)
    scaled = scaler.transform(panel.features)
    train = scaled[:, :12, :]
    np.testing.assert_allclose(train.mean(axis=1), 0.0, atol=1e-12)
    np.testing.assert_allclose(train.std(axis=1), 1.0, atol=1e-12)
    # later periods use the same constants, so they are generally not centered
    assert abs(scaled[:, 12:, :].mean()) > 0


def test_windows_equal_the_fancy_index_windows():
    x = np.random.default_rng(3).normal(size=(4, 12, 3))
    periods = np.array([7, 3, 12])
    stacked = windows(x, periods, 3)
    idx = periods[:, None] + np.arange(-3, 0)
    expected = np.moveaxis(x[:, idx, :], 0, 1)
    assert stacked.shape == (3, 4, 3, 3)
    assert stacked.tobytes() == np.ascontiguousarray(expected).tobytes()
    for k, t in enumerate(periods):
        assert windows(x, int(t), 3).tobytes() == stacked[k].tobytes()


@pytest.mark.parametrize("t", [2, 13, 20])
def test_windows_check_both_bounds(t):
    x = np.zeros((2, 12, 1))
    with pytest.raises(TooEarly, match=f"before period {t} "):
        windows(x, t, 3)
    with pytest.raises(TooEarly, match=f"before period {t} "):
        windows(x, np.array([5, t]), 3)


def test_load_panel_orders_periods_by_date_value(tmp_path):
    rows = [_row(d, "A", 100 + i) for i, d in enumerate(
        ("2024-01-10", "2024-01-08", "2024-01-11", "2024-01-09"))]
    panel = load_panel(_write(tmp_path, rows))
    assert panel.periods == ["2024-01-08", "2024-01-09", "2024-01-10", "2024-01-11"]
    np.testing.assert_array_equal(panel.prices[0], [101.0, 103.0, 100.0, 102.0])


@pytest.mark.parametrize("bad", ["1/8/2024", "2024-1-8", "20240108", "2024-01-08T09:30"])
def test_load_panel_rejects_a_date_that_is_not_iso(tmp_path, bad):
    rows = [_row("2024-01-09", "A", 100), _row(bad, "A", 101), _row("2024-01-10", "A", 102)]
    with pytest.raises(BadDate, match=rf"panel.csv:3: date '{bad}'"):
        load_panel(_write(tmp_path, rows))


def test_load_panel_names_the_cell_that_is_not_a_number(tmp_path):
    rows = ["# a comment line still counts\n", _row("2024-01-08", "A", 100),
            "2024-01-09,A,100,x,100,100,100,1000\n"]
    with pytest.raises(BadCell, match=r"panel.csv:4: column 4 \(close\) is not a number: 'x'"):
        load_panel(_write(tmp_path, rows))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_panel_names_a_non_finite_feature(tmp_path, value):
    rows = [_row("2024-01-08", "A", 100), _row("2024-01-08", "B", 100),
            _row("2024-01-09", "A", 101), f"2024-01-09,B,100,100,100,100,{value},1000\n"]
    with pytest.raises(NonFiniteFeature, match=f"panel.csv: vwap of stock B on 2024-01-09"):
        load_panel(_write(tmp_path, rows))


def test_load_panel_checks_each_feature_cell_for_finiteness_once(tmp_path, monkeypatch):
    # the loader checked the features to name the path, and MarketPanel.from_prices
    # checked them again, and the close prices among them
    sizes, check = [], panel_module._require_finite

    def spy(values, *args):
        sizes.append(values.size)
        return check(values, *args)

    monkeypatch.setattr(panel_module, "_require_finite", spy)
    rows = [_row("2024-01-08", "A", 100), _row("2024-01-08", "B", 100),
            _row("2024-01-09", "A", 101), _row("2024-01-09", "B", 99)]
    loaded = load_panel(_write(tmp_path, rows))
    assert sizes == [loaded.features.size]
    assert loaded.returns[:, 1].tolist() == [1.0, -1.0]


def test_load_panel_peak_stays_near_the_panel_size(tmp_path):
    # the parsed chunks were once joined into a second whole-panel copy before the
    # scatter: a peak of 4.0 times the features' bytes here, against 3.0 without it
    rng = np.random.default_rng(3)
    days = [(date(2020, 1, 1) + timedelta(days=t)).isoformat() for t in range(300)]
    panel = MarketPanel.from_prices([f"S{i:02d}" for i in range(40)], days,
                                    1.0 + rng.random((40, 300, 6)), 1.0 + rng.random((40, 300)))
    path = tmp_path / "panel.csv"
    write_panel_csv(panel, path)
    tracemalloc.start()
    try:
        loaded = load_panel(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.features, panel.features)
    assert peak / panel.features.nbytes < 3.4


# -- oracles: the row-at-a-time loader and writer the column code replaced ------


def oracle_load_panel(path) -> MarketPanel:
    """The loader as it was before it parsed columns, kept as the reference."""
    rows = {}
    days = {}
    lineno = 0

    def data_lines(fh):
        nonlocal lineno
        for lineno, ln in enumerate(fh, 1):
            if not ln.startswith("#"):
                yield ln

    def parse_date(lineno, label):
        try:
            day = date.fromisoformat(label)
            if day.isoformat() == label:
                return day
        except ValueError:
            pass
        raise BadDate(f"{path}:{lineno}: date {label!r} is not YYYY-MM-DD")

    def is_number(text):
        try:
            float(text)
        except (TypeError, ValueError):
            return False
        return True

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(data_lines(fh))
        if reader.fieldnames is None:
            raise EmptyFile(f"{path}: empty file")
        missing = [c for c in panel_module.CSV_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise MissingColumns(f"{path}: missing columns {missing}")
        repeated = [c for c in panel_module.CSV_COLUMNS if reader.fieldnames.count(c) > 1]
        if repeated:
            raise DuplicateColumn(f"{path}: the header names {repeated} more than once")
        for rec in reader:
            if None in rec:                     # DictReader's key for the extra cells
                width = len(reader.fieldnames)
                raise WideRow(f"{path}:{lineno}: {width + len(rec[None])} cells under a "
                              f"header of {width}")
            sid = rec["stock_id"]
            label = rec["date"]
            key = (sid, label)
            if key in rows:
                raise DuplicateRow(f"duplicate row for stock {sid} on {label}")
            try:
                rows[key] = tuple(float(rec[name]) for name in FEATURE_NAMES)
            except (TypeError, ValueError):
                col, name = next((c, n) for c, n in enumerate(reader.fieldnames, 1)
                                 if n in FEATURE_NAMES and not is_number(rec[n]))
                raise BadCell(f"{path}:{lineno}: column {col} ({name}) is not a "
                              f"number: {rec[name]!r}") from None
            if label not in days:
                days[label] = parse_date(lineno, label)

    stocks = sorted({sid for sid, _ in rows})
    dates = sorted(days, key=days.__getitem__)
    if len(dates) < 2:
        raise TooShort("panel needs at least 2 periods")

    I, T = len(stocks), len(dates)
    features = np.empty((I, T, len(FEATURE_NAMES)), dtype=np.float64)
    for i, sid in enumerate(stocks):
        for t, label in enumerate(dates):
            cell = rows.get((sid, label))
            if cell is None:
                raise HoleInPanel(f"missing row for stock {sid} on {label}")
            features[i, t, :] = cell
    if not np.isfinite(features).all():
        i, t, j = np.argwhere(~np.isfinite(features))[0]
        raise NonFiniteFeature(f"{path}: {FEATURE_NAMES[j]} of stock {stocks[i]} on "
                               f"{dates[t]} is {float(features[i, t, j])!r}")

    close_idx = FEATURE_NAMES.index("close")
    prices = features[:, :, close_idx].copy()
    if np.any(prices <= 0):
        bad = np.argwhere(prices <= 0)[0]
        raise BadPrice(f"non-positive close for stock {stocks[bad[0]]} on {dates[bad[1]]}")
    return MarketPanel.from_prices(stocks, dates, features, prices)


def oracle_write_csv(path, header, rows, comment=None) -> None:
    """The row writer as it was before it wrote columns."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _csv_record(cells) -> str:
    line = io.StringIO()
    csv.writer(line).writerow(cells)
    return line.getvalue()


def _outcome(load, path):
    try:
        panel = load(path)
    except Exception as e:                      # the two loaders must fail alike
        return type(e), str(e)
    return (panel.stock_ids, panel.periods, panel.features.tobytes(),
            panel.prices.tobytes(), panel.returns.tobytes())


# Ids with commas, quotes, spaces, '#' and line breaks, which csv.writer quotes.
_odd_ids = st.lists(st.text('AB,"x #\n', min_size=1, max_size=4), min_size=1, max_size=4,
                    unique=True)
_cell = st.one_of(_feature.map(repr), st.sampled_from(["1e-300", "5e-324", "-0.0", " 7 ",
                                                      "1_5", "0x1", "", "nan", "-inf"]))
_FAULTS = ("bad cell", "bad date", "duplicate", "hole", "non-finite", "bad price",
           "missing column", "repeated column", "short row", "long row", "blank line",
           "one date")


@given(ids=_odd_ids, n_dates=st.integers(2, 4), data=st.data(),
       faults=st.lists(st.sampled_from(_FAULTS), min_size=1, max_size=2))
@settings(max_examples=300)
def test_load_panel_matches_the_row_loader(tmp_path_factory, ids, n_dates, data, faults):
    dates = [(date(2024, 1, 8) + timedelta(days=3 * k)).isoformat() for k in range(n_dates)]
    header = list(panel_module.CSV_COLUMNS)
    records = []
    for sid in ids:
        for label in dates:
            cells = [repr(data.draw(_price))] * len(FEATURE_NAMES)
            cells[2] = repr(data.draw(_feature))
            records.append([label, sid] + cells)

    def pick():
        return data.draw(st.integers(0, len(records) - 1))

    for fault in sorted(faults, key=_FAULTS.index):     # cell faults before row faults
        k = pick()
        if fault == "bad cell":
            records[k][data.draw(st.integers(2, len(header) - 1))] = data.draw(_cell)
        elif fault == "bad date":
            records[k][0] = data.draw(st.sampled_from(["2024-1-8", "20240108", "",
                                                       "2024-02-30", "x"]))
        elif fault == "duplicate":
            records.insert(pick(), list(records[k]))
        elif fault == "hole" and len(records) > 1:
            del records[k]
        elif fault == "non-finite":
            records[k][data.draw(st.integers(2, len(header) - 1))] = \
                data.draw(st.sampled_from(["nan", "inf", "-inf", "NaN"]))
        elif fault == "bad price":
            records[k][3] = data.draw(st.sampled_from(["0", "-1.5"]))     # the close
        elif fault == "missing column":
            header[data.draw(st.integers(0, len(header) - 1))] = "other"
        elif fault == "repeated column":
            header.append(data.draw(st.sampled_from(panel_module.CSV_COLUMNS)))
        elif fault == "short row":
            del records[k][data.draw(st.integers(1, len(header) - 1)):]
        elif fault == "long row":
            records[k].append("9")
        elif fault == "blank line":
            records.insert(pick(), [])
        elif fault == "one date":
            records = [r for r in records if r[:1] != [dates[1]]]
    lines = [_csv_record(r) if r else "\r\n" for r in data.draw(st.permutations(records))]
    for _ in range(data.draw(st.integers(0, 3))):
        lines.insert(data.draw(st.integers(0, len(lines))), "# interleaved comment\r\n")
    path = tmp_path_factory.mktemp("load") / "panel.csv"
    path.write_text("# stamp\n" + _csv_record(header) + "".join(lines), newline="")

    assert _outcome(load_panel, path) == _outcome(oracle_load_panel, path)


def test_load_panel_names_a_comma_inside_a_cell(tmp_path):
    # "51.193" written as "51.,193" shifts every later cell of its row one
    # column to the right, which would read 193 as the close.
    path = tmp_path / "panel.csv"
    write_panel_csv(generate_synthetic(SyntheticSpec(n_stocks=3, n_periods=6)), path)
    lines = path.read_text().splitlines(keepends=True)
    date, sid, open_, rest = lines[5].split(",", 3)
    lines[5] = ",".join([date, sid, open_.replace(".", ".,", 1), rest])
    path.write_text("".join(lines))
    with pytest.raises(WideRow, match=r"panel.csv:6: 9 cells under a header of 8"):
        load_panel(path)


# Every error the loader raises on purpose; each names the file, a row or a cell.
_NAMED = (BadCell, BadDate, BadPrice, DuplicateColumn, DuplicateRow, EmptyFile, HoleInPanel,
          MissingColumns, NonFiniteFeature, NotUtf8, TooShort, WideRow)


@given(edits=st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 255)),
                      min_size=1, max_size=3))
@settings(max_examples=200)
def test_a_mutated_panel_file_loads_as_the_row_loader_or_fails_by_name(tmp_path_factory,
                                                                        edits):
    path = tmp_path_factory.mktemp("mutate") / "panel.csv"
    write_panel_csv(generate_synthetic(SyntheticSpec(n_stocks=3, n_periods=6)), path,
                    header_comment="stamp")
    raw = bytearray(path.read_bytes())
    for at, byte in edits:
        raw[at % len(raw)] = byte
    path.write_bytes(bytes(raw))
    new, old = _outcome(load_panel, path), _outcome(oracle_load_panel, path)
    if isinstance(new[0], type):
        assert issubclass(new[0], _NAMED), new
        assert isinstance(old[0], type), (new, old)      # the row loader failed too
    else:
        assert new == old


def test_load_panel_rejects_a_repeated_column(tmp_path):
    # A second close column used to be read in place of the first, silently.
    rows = [_row(d, s, 100.0).rstrip("\n") + ",999.0\n"
            for s in ("A", "B") for d in ("2024-01-08", "2024-01-09")]
    path = tmp_path / "panel.csv"
    path.write_text(HEADER.rstrip("\n") + ",close\n" + "".join(rows))
    with pytest.raises(DuplicateColumn, match=r"panel.csv: the header names \['close'\]"):
        load_panel(path)


@pytest.mark.parametrize("text, error", [
    ("# only a comment\n", EmptyFile),
    ("date,stock_id,open,close,high,low,vwap\n", MissingColumns),
])
def test_load_panel_names_its_header_faults(tmp_path, text, error):
    path = tmp_path / "panel.csv"
    path.write_text(text)
    with pytest.raises(error, match="panel.csv: "):
        load_panel(path)


def test_load_panel_names_the_line_of_an_undecodable_byte(tmp_path):
    path = tmp_path / "panel.csv"
    write_panel_csv(generate_synthetic(SyntheticSpec(n_stocks=3, n_periods=6)), path)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[7] = lines[7].replace(b"S001", b"S\xff01")
    path.write_bytes(b"".join(lines))
    with pytest.raises(NotUtf8, match=r"panel.csv:8: byte 0xff at column 13 is not UTF-8"):
        load_panel(path)


def test_load_panel_names_a_row_fault_before_an_undecodable_byte(tmp_path):
    path = tmp_path / "panel.csv"
    write_panel_csv(generate_synthetic(SyntheticSpec(n_stocks=3, n_periods=12)), path)
    lines = path.read_bytes().splitlines(keepends=True)
    cells = lines[9].split(b",")
    lines[9] = b",".join([*cells[:2], b"abc", *cells[3:]])
    lines[19] = lines[19].replace(b"S001", b"S\xff01")
    path.write_bytes(b"".join(lines))
    with pytest.raises(BadCell, match=r"panel.csv:10: column 3 \(open\) is not a number"):
        load_panel(path)
    lines[9] = b",".join(cells)                         # with line 10 mended, the byte is next
    path.write_bytes(b"".join(lines))
    with pytest.raises(NotUtf8, match=r"panel.csv:20: byte 0xff at column 13 is not UTF-8"):
        load_panel(path)


def test_load_panel_reads_across_chunks_and_names_the_later_fault(tmp_path, monkeypatch):
    monkeypatch.setattr(panel_module, "CSV_CHUNK_ROWS", 2)
    rows = [_row(d, s, 100 + i) for i, (s, d) in enumerate(
        (s, d) for s in ("A", "B", "C") for d in ("2024-01-08", "2024-01-09", "2024-01-10"))]
    path = _write(tmp_path, rows)
    assert _outcome(load_panel, path) == _outcome(oracle_load_panel, path)
    rows[7] = rows[7].replace(",107,", ",x,", 1)
    rows[8] = rows[3]                                   # a duplicate after the bad cell
    path = _write(tmp_path, rows)
    with pytest.raises(BadCell, match=r"panel.csv:9: column 3 \(open\)"):
        load_panel(path)
    assert _outcome(load_panel, path) == _outcome(oracle_load_panel, path)


_odd_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e-7, 1.5e16, 1e22,
                     123456789012345678.0, 0.1, -1e-05]))


@given(labels=st.lists(st.text('S0,"\n\r x#', max_size=4), min_size=1, max_size=6),
       data=st.data())
@settings(max_examples=150)
def test_write_csv_matches_the_row_writer(tmp_path_factory, labels, data):
    n = data.draw(st.integers(0, 9))
    rows_label = [data.draw(st.sampled_from(labels)) for _ in range(n)]
    values = np.array([data.draw(_odd_floats) for _ in range(2 * n)]).reshape(n, 2)
    counts = np.array([data.draw(st.integers(-40, 40)) for _ in range(n)], dtype=np.int64)
    header = ["label", "x", "y", "count"]
    out = tmp_path_factory.mktemp("write")
    with pytest.MonkeyPatch.context() as m:
        m.setattr(panel_module, "CSV_CHUNK_ROWS", data.draw(st.integers(1, 4)))
        write_csv(out / "new.csv", header,
                  [np.array(rows_label, dtype=object), values[:, 0], values[:, 1], counts],
                  "stamp")
    oracle_write_csv(out / "old.csv", header,
                     ([rows_label[k], repr(float(values[k, 0])), repr(float(values[k, 1])),
                       int(counts[k])] for k in range(n)), "stamp")
    assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()


@given(ids=_odd_ids, data=st.data())
@settings(max_examples=60)
def test_write_panel_csv_matches_the_row_writer(tmp_path_factory, ids, data):
    dates = ["2024-01-08", "2024-01-09", "2024-01-10"]
    shape = (len(ids), len(dates))
    features = _draw_array(data, st.one_of(_feature, st.sampled_from([-0.0, 5e-324, 1e-300])),
                           shape + (len(FEATURE_NAMES),))
    prices = _draw_array(data, _price, shape)
    features[:, :, FEATURE_NAMES.index("close")] = prices
    panel = MarketPanel.from_prices(ids, dates, features, prices)
    out = tmp_path_factory.mktemp("panel")
    if any("\n" in sid for sid in ids):        # load_panel could not read it back
        with pytest.raises(BadLabel, match="stock id"):
            write_panel_csv(panel, out / "new.csv", header_comment="stamp")
        assert not (out / "new.csv").exists()
        return
    write_panel_csv(panel, out / "new.csv", header_comment="stamp")
    oracle_write_csv(out / "old.csv", panel_module.CSV_COLUMNS,
                     ([label, sid] + [repr(float(v)) for v in panel.features[i, t]]
                      for i, sid in enumerate(panel.stock_ids)
                      for t, label in enumerate(panel.periods)), "stamp")
    assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()


@pytest.mark.parametrize("stock_ids, periods, message", [
    (["A", "x\n#y"], ["2024-01-08", "2024-01-09"], r"stock id 'x\\n#y'"),
    (["A", "B"], ["2024-01-08", "2024-01-09\r"], r"date label '2024-01-09\\r'"),
])
def test_write_panel_csv_names_a_label_with_a_line_break(tmp_path, stock_ids, periods,
                                                          message):
    # Such an id was written quoted, and load_panel then failed on the file
    # with a misleading BadCell.
    prices = np.full((2, 2), 100.0)
    features = np.repeat(prices[..., None], len(FEATURE_NAMES), axis=2)
    panel = MarketPanel.from_prices(stock_ids, periods, features, prices)
    path = tmp_path / "panel.csv"
    with pytest.raises(BadLabel, match=message):
        write_panel_csv(panel, path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("text, error, message", [
    ("open,close,high,low,vwap,volume,stock_id,date\n1,1,1,1,1,1,A,2024-01-08\n"
     "1,1,1,1,1,1,A\n", BadDate, r"panel.csv:3: date None is not"),
    ("open,close,high,low,vwap,volume,date,stock_id\n1,1,1,1,1,1,2024-01-08,A\n"
     "1,1,1,1,1,1,2024-01-09\n", BadCell, r"panel.csv:3: column 8 \(stock_id\) is missing"),
])
def test_load_panel_names_a_row_too_short_for_its_date_or_id(tmp_path, text, error, message):
    # The row loader failed on these with a bare TypeError.
    path = tmp_path / "panel.csv"
    path.write_text(text)
    with pytest.raises(error, match=message):
        load_panel(path)
