import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from irrfactors import autodiff as ad
from irrfactors.panel import (MarketPanel, SynchronismConfig, compute_deltas, compute_returns,
                              compute_synchronism_labels)
from irrfactors.synthetic import (CointegrationPlant, SentimentPlant, SyntheticSpec,
                                  generate_synthetic)

# Property tests draw the same examples on every run, so two runs of the
# suite compare like with like; each test keeps its own max_examples.
settings.register_profile("reproducible", derandomize=True, deadline=None)
settings.load_profile("reproducible")


# A file's damage in the mutation tests: 1 to 3 (offset, byte) overwrites, or
# an offset to truncate at; offsets are taken modulo the file's length.
DAMAGE = st.one_of(st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 255)),
                            min_size=1, max_size=3),
                   st.integers(0, 2**16))


def damaged(raw: bytes, damage) -> bytes:
    """raw with one draw of DAMAGE applied."""
    if isinstance(damage, int):
        return raw[:damage % len(raw)]
    out = bytearray(raw)
    for at, byte in damage:
        out[at % len(out)] = byte
    return bytes(out)


def random_panel(seed, n_stocks=4, n_periods=12, n_features=3) -> MarketPanel:
    """Small arbitrary panel for shape/gradient tests (no planted structure)."""
    rng = np.random.default_rng(seed)
    prices = 50.0 + 10.0 * rng.random((n_stocks, n_periods)).cumsum(axis=1) / n_periods
    features = rng.normal(size=(n_stocks, n_periods, n_features))
    return MarketPanel.from_prices(
        [f"S{i}" for i in range(n_stocks)],
        [f"2020-01-{d + 1:02d}" for d in range(n_periods)],
        features, prices)


def augmented(features, u, use_stock_factor=True) -> np.ndarray:
    """The forecaster's per-period inputs over the whole panel, (I, T, D_in):
    the features with the stock factor as a last column unless the NS
    ablation leaves it out; windows() of it are the model's input windows."""
    if not use_stock_factor:
        return features
    return np.concatenate([features, u[..., None]], axis=-1)


def reprs(features, series) -> np.ndarray:
    """The stock representations r over the whole panel, (I, T, 2D_e): each
    period's features joined to the series' attention summaries, NaN before
    the summaries' first period."""
    summary = np.full(features.shape, np.nan)
    summary[:, series.first:] = series.summary
    return np.concatenate([features, summary], axis=-1)


def sync_labels(panel, sync=SynchronismConfig()) -> list:
    """The panel's per-period synchronism labels."""
    return compute_synchronism_labels(compute_deltas(panel.returns, sync), sync)


def ablation_market_spec(seed) -> SyntheticSpec:
    """The planted market used for end-to-end learning checks.

    Six cointegrated targets with a sentiment-coupled residual, frequent
    synchronized events with a volume-borne precursor, and widely dispersed
    idiosyncratic volatilities.
    """
    plants = [CointegrationPlant(target=k, sources=(6 + k,), betas=(0.45,),
                                 noise_rho=0.45, noise_scale=1.2, event_kick=1.3)
              for k in range(6)]
    return SyntheticSpec(
        n_stocks=16, n_periods=460, base_volatility=1.5,
        volatility_spread=0.85, event_sensitivity_spread=0.0,
        plants=plants,
        sentiment=SentimentPlant(prob=0.65, magnitude=3.0, precursor=0.8,
                                 precursor_noise=1.5),
        seed=seed)


def sentiment_market_spec(seed, precursor_strength=0.8) -> SyntheticSpec:
    """Events with a readable precursor and no cointegration plants."""
    return SyntheticSpec(
        n_stocks=16, n_periods=400, event_sensitivity_spread=0.3,
        sentiment=SentimentPlant(prob=0.6, magnitude=3.0, precursor=precursor_strength,
                                 precursor_noise=0.6),
        seed=seed)


def linear_probe_accuracy(x_train, y_train, x_test, y_test) -> float:
    """Least-squares probe onto one-hot targets; an independent readout."""
    onehot = np.zeros((len(y_train), 3))
    onehot[np.arange(len(y_train)), y_train] = 1.0
    design = np.hstack([x_train, np.ones((len(x_train), 1))])
    weights, *_ = np.linalg.lstsq(design, onehot, rcond=None)
    scores = np.hstack([x_test, np.ones((len(x_test), 1))]) @ weights
    return float((scores.argmax(axis=1) == y_test).mean())


def train_record(params, loss_fn, steps: int, lr: float) -> list:
    """Step by step, the bytes of the loss, of each gradient (None where a
    parameter got none) and, once every parameter has one, of the parameters
    after the Adam step."""
    opt = ad.adam_init(params)
    record = []
    for _ in range(steps):
        ad.zero_grads(params)
        with ad.Tape() as tape:
            loss = loss_fn()
            tape.backward(loss)
        grads = [p.grad for p in params]
        record += [loss.data.tobytes()] + [None if g is None else g.tobytes() for g in grads]
        if all(g is not None for g in grads):
            ad.adam_step(params, opt, lr=lr)
            record.append(params.flat.tobytes())    # tobytes tells -0.0 from 0.0
    return record


@pytest.fixture
def small_panel():
    return random_panel(0)


@pytest.fixture(scope="session")
def planted_panel():
    """One cointegration plant, no sentiment; matches the recovery setup."""
    spec = SyntheticSpec(
        n_stocks=8, n_periods=500,
        plants=[CointegrationPlant(target=0, sources=(1,), betas=(0.7,),
                                   noise_rho=0.6, noise_scale=2.0)],
        sentiment=SentimentPlant(prob=0.0),
        seed=0)
    return generate_synthetic(spec)
