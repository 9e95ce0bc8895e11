import numpy as np
import pytest
from hypothesis import settings

from irrfactors import autodiff as ad
from irrfactors import forecaster as fc
from irrfactors.panel import (MarketPanel, SynchronismConfig, compute_deltas, compute_returns,
                              compute_synchronism_labels)
from irrfactors.synthetic import (CointegrationPlant, SentimentPlant, SyntheticSpec,
                                  generate_synthetic)

# Property tests draw the same examples on every run, so two runs of the
# suite compare like with like; each test keeps its own max_examples.
settings.register_profile("reproducible", derandomize=True, deadline=None)
settings.load_profile("reproducible")


def random_panel(seed, n_stocks=4, n_periods=12, n_features=3) -> MarketPanel:
    """Small arbitrary panel for shape/gradient tests (no planted structure)."""
    rng = np.random.default_rng(seed)
    prices = 50.0 + 10.0 * rng.random((n_stocks, n_periods)).cumsum(axis=1) / n_periods
    features = rng.normal(size=(n_stocks, n_periods, n_features))
    return MarketPanel.from_prices(
        [f"S{i}" for i in range(n_stocks)],
        [f"2020-01-{d + 1:02d}" for d in range(n_periods)],
        features, prices)


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


# The forecaster as a chain of tape primitives: the oracle its two fused
# tape nodes (fc._predict_op and fc.loss_total) must match bit for bit.


def taped_encoder_block(x, params, index, heads, frozen=False):
    """The forecaster's transformer block on all L positions, or with frozen
    scoring's form: the query projected from position L-1 alone."""
    def blk(key):
        return params[f"blk{index}.{key}"]

    x_q = x[..., x.shape[-2] - 1:, :] if frozen else x
    mixed = ad.attention(x_q @ blk("w_q"), x @ blk("w_k"), x @ blk("w_v"), heads)
    x = ad.layer_norm(x_q + mixed @ blk("w_o"), blk("ln1_g"), blk("ln1_b"))
    hidden = ad.relu(ad.linear(x, blk("ff_w1"), blk("ff_b1")))
    ff = ad.linear(hidden, blk("ff_w2"), blk("ff_b2"))
    return ad.layer_norm(x + ff, blk("ln2_g"), blk("ln2_b"))


def taped_predict(params, hyper, g, r_prev, m_prev, frozen=False):
    """Forecasts (..., I) from windows (..., I, L, D_in), as fc._predict_op."""
    x = ad.linear(g, params["w_in"], params["b_in"])
    x = x + ad.constant(fc._sinusoidal(g.shape[-2], hyper.width))
    for i in range(hyper.blocks):
        x = taped_encoder_block(x, params, i, hyper.heads, frozen and i == hyper.blocks - 1)
    c = x[..., -1, :]
    m_prev = np.asarray(m_prev, dtype=np.float64)
    m_shape = c.shape[:-1] + m_prev.shape[-1:]
    if hyper.ablation != "NM":
        m_rows = np.broadcast_to(m_prev[..., None, :], m_shape)
    else:
        m_rows = np.zeros(m_shape)
    parts = [c]
    if hyper.ablation != "ND":      # the relation attention
        v = ad.linear(c, params["p_c"], r_prev)
        z = v @ ad.swapaxes(params["w_y"], -1, -2)
        parts.append(ad.softmax_row(z @ ad.swapaxes(z, -1, -2)) @ c)
    x = ad.concat(parts + [ad.constant(m_rows)], axis=-1)
    hidden = ad.relu(ad.linear(x, params["head_w1"], params["head_b1"]))
    out = ad.linear(hidden, params["head_w2"], params["head_b2"])
    return out.reshape(out.shape[:-1])


def taped_loss(y_hat, y, z, lambda3):
    """Mean squared error minus lambda3 times the IC, as fc.loss_total."""
    diff = y_hat - ad.constant(np.asarray(y, dtype=np.float64))
    mse = (diff * diff).mean()
    if lambda3 == 0.0:
        return mse
    z = np.asarray(z, dtype=np.float64)
    z_sd = float(z.std())
    if z_sd == 0.0:
        ic = ad.constant(0.0)
    else:
        centered = y_hat - y_hat.mean()
        ic = (centered * ad.constant(z - z.mean())).mean() / (y_hat.std() * z_sd)
    return mse + (-lambda3) * ic


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
