import pytest
from hypothesis import settings

from risingbandits import verify

# The same examples on every run, and none replayed from a local database, so
# a property test passes or fails alike on every machine and every run.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def concave_battery():
    """Shared 1000-instance battery; built once because three suites reuse it."""
    return verify.concave_battery()
