import numpy as np
import pytest

import itsa
from itsa.design import DesignMatrix


def make_design(matrix, y, names=None, changepoint=None):
    """A design over weeks 1..n from a raw matrix; columns are x0, x1, ... unless named."""
    matrix = np.asarray(matrix, dtype=float)
    n, k = matrix.shape
    names = tuple(names) if names else tuple(f"x{i}" for i in range(k))
    return DesignMatrix(
        matrix=matrix,
        column_names=names,
        outcome=np.asarray(y, dtype=float),
        weeks=np.arange(1, n + 1, dtype=float),
        changepoint=changepoint if changepoint is not None else n + 1,
    )


@pytest.fixture(scope="session")
def case_study():
    return itsa.load_case_study()


@pytest.fixture(scope="session")
def full_design(case_study):
    """Segmented design with all three confounders, changepoint week 53."""
    return itsa.build_design(
        case_study,
        itsa.InterventionSpec(53),
        ["admissions", "discharges", "occupancy"],
    )


@pytest.fixture(scope="session")
def full_fit(full_design):
    return itsa.fit_ols(full_design)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
