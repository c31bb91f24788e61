import warnings

import numpy as np
import pytest

import fairmimic as fm
from fairmimic import model as model_mod

CODING = {"a": 0, "b": 1}

ACCEPTANCE_LINES = []


def pytest_configure(config):
    """Import ``libcst`` once with its DeprecationWarning ignored.

    Hypothesis imports it to report a failing ``@given`` test, and the
    ``mypy_extensions.TypedDict is deprecated`` warning of that import,
    turned into an error by ``filterwarnings = ["error"]``, would stop the
    run with an INTERNALERROR instead of reporting the failure.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        try:
            import libcst  # noqa: F401
        except ImportError:
            pass


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance-criterion verdicts after the run."""
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def make_generator(gamma=0.4, dif=(0.0, 0.0, 0.0, 0.0)):
    """Standard p=4, q=3 generating model used across the suite."""
    dif = np.asarray(dif, dtype=float)
    return fm.MimicModel(
        loadings=[1.0, 0.8, 1.2, 0.6],
        intercepts=[0.5, -0.2, 1.0, 0.0],
        struct_coefs=[1.0, -0.5, 0.3],
        sens_coef=gamma,
        dif_offsets=dif,
        resid_vars=[0.5, 0.4, 0.6, 0.5],
        latent_var=0.8,
        free_mask=dif != 0.0,
        indicator_names=("y1", "y2", "y3", "y4"),
        covariate_names=("x1", "x2", "x3"),
        sensitive_coding=CODING,
    )


def simulate_from(gen, n, seed, **kwargs):
    data, latent = fm.simulate(fm.SimSpec(n=n, model=gen, group_prob=0.5, seed=seed, **kwargs))
    return data, latent


def same_table(a, b) -> bool:
    """Whether two datasets hold the same table: the same column order,
    roles, sensitive coding and log-scale flags, and every column equal
    value for value, with the same kind of dtype."""
    meta = lambda d: (d.column_order, d.roles, d.sensitive_coding, d.log_scale)
    return meta(a) == meta(b) and all(
        a.values[c].dtype.kind == b.values[c].dtype.kind and np.array_equal(a.values[c], b.values[c])
        for c in a.column_order
    )


def same_bits(a, b) -> bool:
    """Whether two float arrays have the same shape and dtype and hold the
    same bits: unlike ``np.array_equal``, -0.0 differs from 0.0 and a NaN
    equals the same NaN."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def base_template(gen=None, free_dif=()):
    gen = gen or make_generator()
    return fm.template(gen.indicator_names, gen.covariate_names, gen.sensitive_coding, free_dif)


@pytest.fixture(scope="session")
def generator():
    return make_generator()


@pytest.fixture(scope="session")
def fitted_example(generator):
    """One converged fit on a mid-size simulated dataset, shared read-only."""
    data, _ = simulate_from(generator, n=2000, seed=101)
    result = fm.fit(base_template(generator), data)
    assert result.converged
    return result, data


@pytest.fixture(scope="session")
def null_dif_study():
    """200 replications of the full DIF scan under a no-DIF generator.

    Serves the LR-test calibration bounds, the per-indicator null rejection
    rates, and the Monte-Carlo standard-error oracle.
    """
    gen = make_generator(gamma=0.4, dif=(0.0, 0.0, 0.0, 0.0))
    base = base_template(gen)
    reports = []
    for rep in range(200):
        data, _ = simulate_from(gen, n=400, seed=50_000 + rep)
        reports.append(fm.dif_scan(base, data))
    return reports


@pytest.fixture(scope="session")
def injected_dif_study():
    """100 replications of the DIF scan with a single injected offset
    delta_3 = 0.2 at n=5000 (strong-signal regime)."""
    gen = make_generator(gamma=0.4, dif=(0.0, 0.0, 0.2, 0.0))
    base = base_template(gen)
    reports = []
    for rep in range(100):
        data, _ = simulate_from(gen, n=5000, seed=90_000 + rep)
        reports.append(fm.dif_scan(base, data))
    return reports


def extract_arrays(model, data):
    """Row-wise (Y, X, s) arrays of the model's columns in ``data``."""
    cov, s, ind = model_mod._columns(model, data)
    return model_mod._matrix(ind, len(s)), model_mod._matrix(cov, len(s)), s


def ll_value(x, spec, Y, X, s):
    """Log-likelihood at a packed vector, from row-wise arrays."""
    return model_mod._loglik(x, spec, model_mod.sample_moments([*X.T, s, *Y.T]))
