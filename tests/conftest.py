import pytest

from nonlocal_logistic import (
    BernsteinSymbol,
    Grid1D,
    LevyKernel,
    ReactionSpec,
    assemble,
    principal_eigenpair,
    solve_logistic,
)

# ---------------------------------------------------------------------------
# Shared baseline problem: fractional alpha=1 on (-1, 1), exact kernel
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def frac1():
    return BernsteinSymbol("fractional", 1.0)


@pytest.fixture(scope="session")
def frac1_kernel(frac1):
    return LevyKernel(frac1)


def _operator(n, symbol=None, kernel=None):
    symbol = symbol or BernsteinSymbol("fractional", 1.0)
    kernel = kernel or LevyKernel(symbol)
    grid = Grid1D(-1.0, 1.0, n)
    return assemble(grid, kernel, far_cutoff=2.0 * grid.width)


@pytest.fixture(scope="session")
def op99():
    return _operator(99)


@pytest.fixture(scope="session")
def op199():
    return _operator(199)


@pytest.fixture(scope="session")
def op399():
    return _operator(399)


@pytest.fixture(scope="session")
def op799():
    return _operator(799)


@pytest.fixture(scope="session")
def eig99(op99):
    return principal_eigenpair(op99, tol=1e-12)


@pytest.fixture(scope="session")
def eig199(op199):
    return principal_eigenpair(op199, tol=1e-12)


@pytest.fixture(scope="session")
def eig399(op399):
    return principal_eigenpair(op399, tol=1e-12)


@pytest.fixture(scope="session")
def eig799(op799):
    return principal_eigenpair(op799, tol=1e-12)


@pytest.fixture(scope="session")
def steady_cache(op199, eig199):
    """Logistic solutions on the baseline operator, keyed by a / lambda1."""
    cache = {}

    def get(a_rel: float):
        if a_rel not in cache:
            spec = ReactionSpec(a=a_rel * eig199.lam)
            cache[a_rel] = solve_logistic(op199, spec, tol=1e-10, eigenpair=eig199)
        return cache[a_rel]

    return get


# ---------------------------------------------------------------------------
# Acceptance reporting: one pass/fail line per criterion in the summary
# ---------------------------------------------------------------------------

_ACCEPTANCE_RESULTS: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid or report.when != "call":
        return
    name = report.nodeid.split("::")[-1]
    _ACCEPTANCE_RESULTS[name] = "PASS" if report.passed else "FAIL"


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"{_ACCEPTANCE_RESULTS[name]}  {name}")
