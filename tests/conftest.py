import contextlib
from unittest import mock

import pytest
from hypothesis import settings

from risingbandits import bandit, verify

# The same examples on every run, and none replayed from a local database, so
# a property test passes or fails alike on every machine and every run.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def concave_battery():
    """Shared 1000-instance battery; built once because three suites reuse it."""
    return verify.concave_battery()


@pytest.fixture(scope="session")
def record_sweeps():
    """``with record_sweeps() as sweeps:`` lists each elimination sweep made
    in the block as a (candidates, survivors) pair of tuples.

    A run keeps only its final candidate set, so tests read the sweeps here.
    Session-scoped, so a hypothesis test may take it; it patches
    ``bandit.eliminate`` only inside the block.
    """

    @contextlib.contextmanager
    def recording():
        sweeps = []
        real = bandit.eliminate

        def eliminate(candidates, states, *args):
            survivors = real(candidates, states, *args)
            sweeps.append((tuple(candidates), tuple(survivors)))
            return survivors

        with mock.patch.object(bandit, "eliminate", eliminate):
            yield sweeps

    return recording
