import pytest

from gaborglp import (
    SupportEnumeration,
    power_window_root_of_unity,
    power_window_root_of_unity_float,
    random_window,
    verify_glp,
)


@pytest.fixture(scope="session")
def exact_window_4():
    return power_window_root_of_unity(4)


@pytest.fixture(scope="session")
def exact_window_5():
    return power_window_root_of_unity(5)


@pytest.fixture(scope="session")
def float_window_4():
    return power_window_root_of_unity_float(4)


@pytest.fixture(scope="session")
def float_window_5():
    return power_window_root_of_unity_float(5)


@pytest.fixture(scope="session")
def float_window_6():
    return power_window_root_of_unity_float(6)


@pytest.fixture(scope="session")
def glp_random_windows():
    """Seeded random windows for N = 2, 3, certified GLP exhaustively."""
    out = {}
    for n in (2, 3):
        for seed in range(10):
            w = random_window(n, seed)
            if not len(verify_glp(w, SupportEnumeration(n, "exhaustive")).dependent):
                out[n] = w
                break
        else:  # pragma: no cover - measure-zero failure of all seeds
            raise RuntimeError(f"no GLP random window found for n={n}")
    return out
