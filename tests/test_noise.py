import math

import numpy as np
import pytest
from scipy.signal import lfilter

from berrysim import NoiseModel, OuParams, sample_path
from berrysim.noise import _AR1_BLOCK, _ar1, _ar1_block, _ou_filter


def params_for(model: NoiseModel, index: int) -> OuParams:
    """Parameter set governing component ``index``: 0, 1 transverse, 2 longitudinal."""
    if index in (0, 1):
        return model.transverse
    if index == 2:
        return model.longitudinal
    raise ValueError(f"component must be 0, 1 or 2, got {index}")


def component(path: np.ndarray, index: int) -> np.ndarray:
    """Samples of one component of a sampled path as a read-only 1-d view."""
    if index not in (0, 1, 2):
        raise ValueError(f"component index must be 0, 1 or 2, got {index}")
    return path[:, index]


def autocovariance(params: OuParams, tau):
    """Stationary autocovariance sigma**2 * exp(-gamma*|tau|)."""
    tau = np.asarray(tau, dtype=float)
    out = params.sigma**2 * np.exp(-params.gamma * np.abs(tau))
    return float(out) if out.ndim == 0 else out


def estimate_autocovariance(path: np.ndarray, index: int, lag_steps: int) -> float:
    """Empirical lag autocovariance of one component of a sampled path.

    Uses the mean of the full component and the unbiased-style divisor
    ``n - lag_steps - 1``, so at lag 0 this is the usual sample variance.
    """
    x = component(path, index)
    n = x.size
    if not isinstance(lag_steps, (int, np.integer)) or lag_steps < 0:
        raise ValueError(f"lag_steps must be a nonnegative integer, got {lag_steps}")
    if n - lag_steps < 2:
        raise ValueError(
            f"lag_steps = {lag_steps} leaves fewer than two sample pairs (n = {n})"
        )
    dx = x - x.mean()
    lag = int(lag_steps)
    products = dx[: n - lag] * dx[lag:]
    return float(products.sum() / (n - lag - 1))


def batched_se(values: np.ndarray, n_batches: int = 40) -> float:
    """Standard error of the mean from batch means (for correlated samples)."""
    batches = np.array_split(values, n_batches)
    means = np.array([b.mean() for b in batches])
    return float(means.std(ddof=1) / math.sqrt(n_batches))


MODEL = NoiseModel.from_scalars(0.05, 0.1, 0.05, 0.1)


class TestParams:
    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            OuParams(sigma=-0.1, gamma=1.0)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_gamma(self, gamma):
        with pytest.raises(ValueError):
            OuParams(sigma=1.0, gamma=gamma)

    def test_zero_sigma_allowed(self):
        assert OuParams(sigma=0.0, gamma=1.0).sigma == 0.0


class TestPathType:
    def test_grid_and_shapes(self):
        # one row per grid node, one column per component
        path = sample_path(MODEL, 10, 0.5, seed=1)
        assert path.shape == (11, 3)
        assert path.dtype == np.float64

    def test_samples_are_read_only(self):
        path = sample_path(MODEL, 8, 0.1, seed=1)
        with pytest.raises(ValueError):
            path[0, 0] = 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_steps=0, dt=0.1, seed=1),
            dict(n_steps=4, dt=0.0, seed=1),
            dict(n_steps=4, dt=-1.0, seed=1),
            dict(n_steps=4, dt=0.1, seed=-1),
        ],
    )
    def test_rejects_bad_sampling_args(self, kwargs):
        with pytest.raises(ValueError):
            sample_path(MODEL, **kwargs)


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        a = sample_path(MODEL, 100, 0.1, seed=42)
        b = sample_path(MODEL, 100, 0.1, seed=42)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = sample_path(MODEL, 100, 0.1, seed=42)
        b = sample_path(MODEL, 100, 0.1, seed=43)
        assert not np.array_equal(a, b)

    def test_zero_amplitude_gives_zero_path(self):
        model = NoiseModel.from_scalars(0.0, 1.0, 0.0, 2.0)
        path = sample_path(model, 50, 0.1, seed=3)
        assert np.all(path == 0.0)

    def test_path_linear_in_sigma_for_fixed_seed(self):
        base = sample_path(NoiseModel.from_scalars(0.05, 0.5, 0.02, 1.0), 64, 0.1, seed=9)
        scaled = sample_path(NoiseModel.from_scalars(0.15, 0.5, 0.06, 1.0), 64, 0.1, seed=9)
        assert np.allclose(scaled, 3.0 * base, rtol=1e-12, atol=0.0)


class TestStationaryStatistics:
    def test_stationary_variance_and_mean(self):
        # long path, batch SEs absorb the autocorrelation
        model = NoiseModel.from_scalars(1.0, 1.0, 0.5, 2.0)
        path = sample_path(model, 400_000, 0.1, seed=2024)
        for index, sigma in ((0, 1.0), (1, 1.0), (2, 0.5)):
            x = component(path, index)
            se_mean = batched_se(x)
            assert abs(x.mean()) <= 4.0 * se_mean
            sq = x * x
            se_var = batched_se(sq)
            assert abs(sq.mean() - sigma**2) <= 4.0 * se_var

    def test_halves_have_consistent_variance(self):
        path = sample_path(NoiseModel.from_scalars(1.0, 0.5, 1.0, 0.5), 200_000, 0.1, seed=5)
        x = component(path, 0)
        first, second = x[: x.size // 2] ** 2, x[x.size // 2 :] ** 2
        se = math.hypot(batched_se(first), batched_se(second))
        assert abs(first.mean() - second.mean()) <= 4.0 * se

    def test_exact_marginals_at_large_step(self):
        # dt = 2.5 correlation times; the exact kernel keeps sigma^2 exactly
        model = NoiseModel.from_scalars(1.0, 1.0, 1.0, 1.0)
        samples = np.stack(
            [component(sample_path(model, 8, 2.5, seed=s), 0) for s in range(4000)]
        )
        for step in (1, 4, 8):
            var = samples[:, step].var(ddof=1)
            se = var * math.sqrt(2.0 / (samples.shape[0] - 1))
            assert abs(var - 1.0) <= 4.0 * se


class TestAutocovariance:
    def test_closed_form_values(self):
        params = OuParams(sigma=0.1, gamma=2.0)
        assert autocovariance(params, 0.0) == pytest.approx(0.01)
        assert autocovariance(params, 0.5) == pytest.approx(0.01 * math.exp(-1.0))
        assert autocovariance(params, -0.5) == pytest.approx(0.01 * math.exp(-1.0))
        taus = np.linspace(0.0, 3.0, 7)
        values = autocovariance(params, taus)
        assert values.shape == taus.shape
        assert np.all(np.diff(values) < 0)

    def test_estimator_matches_kernel(self):
        model = NoiseModel.from_scalars(1.0, 0.5, 1.0, 0.5)
        dt = 0.05
        paths = [sample_path(model, 20_000, dt, seed=s) for s in range(40)]
        for tau in (0.0, 2.0, 4.0):
            lag = int(round(tau / dt))
            estimates = np.array(
                [estimate_autocovariance(p, 0, lag) for p in paths]
            )
            target = autocovariance(model.transverse, tau)
            se = estimates.std(ddof=1) / math.sqrt(len(paths))
            assert abs(estimates.mean() - target) <= 4.0 * se

    def test_estimator_zero_path(self):
        model = NoiseModel.from_scalars(0.0, 1.0, 0.0, 1.0)
        path = sample_path(model, 100, 0.1, seed=1)
        assert estimate_autocovariance(path, 0, 0) == 0.0

    def test_estimator_lag_bounds(self):
        path = sample_path(MODEL, 10, 0.1, seed=1)
        with pytest.raises(ValueError):
            estimate_autocovariance(path, 0, -1)
        with pytest.raises(ValueError):
            estimate_autocovariance(path, 0, 10)  # one pair left
        with pytest.raises(ValueError):
            estimate_autocovariance(path, 0, 11)
        estimate_autocovariance(path, 0, 9)  # two pairs: fine

    def test_lag_zero_is_sample_variance(self):
        path = sample_path(MODEL, 1000, 0.1, seed=7)
        x = component(path, 1)
        assert estimate_autocovariance(path, 1, 0) == pytest.approx(
            x.var(ddof=1), rel=1e-12
        )


class TestAnisotropy:
    def test_components_follow_their_own_parameters(self):
        model = NoiseModel.from_scalars(2.0, 5.0, 0.2, 0.05)
        path = sample_path(model, 300_000, 0.05, seed=11)
        var_t = component(path, 0).var(ddof=1)
        var_l = component(path, 2).var(ddof=1)
        assert abs(var_t - 4.0) / 4.0 < 0.05
        assert abs(var_l - 0.04) / 0.04 < 0.15  # slow component, fewer eff. samples
        # decorrelation: fast transverse decays much sooner than slow longitudinal
        fast = estimate_autocovariance(path, 0, 20) / var_t  # tau = 1.0 = 5/gamma
        slow = estimate_autocovariance(path, 2, 20) / var_l
        assert fast < 0.05
        assert slow > 0.8

    def test_components_are_uncorrelated(self):
        path = sample_path(NoiseModel.from_scalars(1.0, 1.0, 1.0, 1.0), 200_000, 0.1, seed=13)
        x, y, z = (component(path, i) for i in range(3))
        n = x.size
        for a, b in ((x, y), (x, z), (y, z)):
            rho = np.corrcoef(a, b)[0, 1]
            assert abs(rho) < 4.0 / math.sqrt(n) * 5  # generous, correlated samples


def _reference_path(model, n_steps, dt, seed):
    """The OU recursion of the module docstring, run by scipy's lfilter."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    draws = rng.standard_normal((n_steps + 1, 3))
    k = np.zeros_like(draws)
    for columns, params in (([0, 1], model.transverse), ([2], model.longitudinal)):
        if params.sigma == 0.0:
            continue
        decay = math.exp(-params.gamma * dt)
        innov = params.sigma * math.sqrt(-math.expm1(-2.0 * params.gamma * dt))
        x0 = params.sigma * draws[0, columns]
        k[0, columns] = x0
        k[1:, columns], _ = lfilter(
            [innov], [1.0, -decay], draws[1:, columns], axis=0, zi=(decay * x0)[None, :]
        )
    return k


class TestMatchesReference:
    # transverse gamma*dt; the longitudinal one is 3x larger.  At 800 the
    # one-step decay exp(-gamma*dt) underflows to exactly 0.
    @pytest.mark.parametrize("gamma_dt", [1e-7, 1e-4, 0.3, 33.0, 800.0])
    @pytest.mark.parametrize("sigmas", [(0.05, 0.05), (0.05, 0.0), (0.0, 0.05)])
    @pytest.mark.parametrize("n_steps", [1, 4096, 100_000])
    def test_sample_path(self, gamma_dt, sigmas, n_steps):
        dt = 0.01
        model = NoiseModel.from_scalars(sigmas[0], gamma_dt / dt, sigmas[1], 3.0 * gamma_dt / dt)
        for seed in (5, 2024):
            got = sample_path(model, n_steps, dt, seed)
            want = _reference_path(model, n_steps, dt, seed)
            assert np.all((got == 0.0) == (want == 0.0))
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestAr1Kernel:
    """The numpy AR(1) scan against scipy's lfilter([1], [1, -d], x, axis=0)."""

    # exp(-800) underflows to 0; exp(-1e-7) is the slowest decay below 1
    DECAYS = [0.0, math.exp(-800.0), math.exp(-33.0), math.exp(-0.3),
              math.exp(-1e-4), math.exp(-1e-7), 1.0]

    @pytest.mark.parametrize("d", DECAYS)
    def test_matches_lfilter(self, d):
        block = _ar1_block(d)
        lengths = {1, 2, 4097, 100_001}
        lengths |= {k * block + e for k in (1, 2) for e in (-1, 0, 1)} - {0}
        rng = np.random.default_rng(7)
        for n in sorted(lengths):
            for shape in ((n,), (n, 2), (n, 3)):
                x = rng.standard_normal(shape)
                for values in (x, x[::-1]):  # reversed, as the adjoint runs it
                    with np.errstate(over="raise", invalid="raise", divide="raise"):
                        got = _ar1(values.T, d).T
                    want = lfilter([1.0], [1.0, -d], values, axis=0)
                    assert got.shape == want.shape
                    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("d", DECAYS)
    def test_zero_columns_stay_exactly_zero(self, d):
        x = np.zeros((10_000, 3))
        x[:, 1] = np.random.default_rng(3).standard_normal(10_000)
        y = _ar1(x.T, d).T
        assert np.all(y[:, [0, 2]] == 0.0)


def _reference_ar1(x, d):
    """The AR(1) scan in row-major layout, blocks down axis 0 (reference copy).

    The scan as it stood before it ran each column over contiguous memory.
    """
    n = x.shape[0]
    rest = x.shape[1:]
    n_blocks = -(-n // _ar1_block(d))
    block = -(-n // n_blocks)
    y = np.zeros((n_blocks * block,) + rest)
    y[:n] = x
    y = y.reshape((n_blocks, block) + rest)
    powers = (d ** np.arange(block)).reshape((block,) + (1,) * len(rest))
    y /= powers
    np.cumsum(y, axis=1, out=y)
    carry = powers[-1] * y[:, -1]
    step, decay = 1, d**block
    while step < n_blocks and decay > 0.0:
        carry[step:] += decay * carry[:-step]
        step, decay = 2 * step, decay * decay
    y[1:] += d * carry[:-1, None]
    y *= powers
    return y.reshape((n_blocks * block,) + rest)[:n]


def _reference_ou_filter(model, dt, values, *, adjoint=False):
    """``_ou_filter`` as one row-major scan per noise part (reference copy)."""
    out = np.zeros_like(values)
    for columns, params in (([0, 1], model.transverse), ([2], model.longitudinal)):
        if params.sigma == 0.0:
            continue
        decay = math.exp(-params.gamma * dt)
        innov = params.sigma * math.sqrt(-math.expm1(-2.0 * params.gamma * dt))
        scale = np.full((values.shape[0], 1), innov)
        scale[0] = params.sigma
        if adjoint:
            out[:, columns] = scale * _reference_ar1(values[::-1, columns], decay)[::-1]
        else:
            out[:, columns] = _reference_ar1(scale * values[:, columns], decay)
    return out


class TestScanLayout:
    """The scan and the filter, bit for bit against the row-major, per-part reference copies.

    A column's operations and their order do not depend on the layout or
    on which columns share a pass, so every value must be identical.
    """

    LENGTHS = [1, 2, _AR1_BLOCK, _AR1_BLOCK + 1, 65_536]
    # (sigma12, gamma12, sigma3, gamma3)
    MODELS = {
        "isotropic": (0.05, 0.1, 0.05, 0.1),
        "gamma12!=gamma3": (0.05, 0.1, 0.05, 0.3),
        "sigma12!=sigma3": (0.05, 0.1, 0.2, 0.1),
        "sigma12=0": (0.0, 0.1, 0.05, 0.1),
        "sigma3=0": (0.05, 0.1, 0.0, 0.1),
        "both-zero": (0.0, 0.1, 0.0, 0.1),
    }

    @pytest.mark.parametrize("d", TestAr1Kernel.DECAYS)
    @pytest.mark.parametrize("n", LENGTHS)
    def test_ar1(self, n, d):
        rng = np.random.default_rng(n)
        for shape in ((n,), (n, 2), (n, 3)):
            x = rng.standard_normal(shape)
            for values in (x, x[::-1]):  # reversed, as the adjoint passes it
                with np.errstate(over="raise", invalid="raise", divide="raise"):
                    got = _ar1(values.T, d).T
                want = _reference_ar1(values, d)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("n", LENGTHS)
    @pytest.mark.parametrize("scalars", MODELS.values(), ids=list(MODELS))
    def test_ou_filter(self, scalars, n, adjoint):
        model = NoiseModel.from_scalars(*scalars)
        values = np.random.default_rng(n).standard_normal((n, 3))
        # gamma12*dt from 1e-7 to 800, where the one-step decay underflows to 0
        for dt in (1e-6, 0.01, 3.0, 330.0, 8000.0):
            got = _ou_filter(model, dt, values.T, adjoint=adjoint).T
            want = _reference_ou_filter(model, dt, values, adjoint=adjoint)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
