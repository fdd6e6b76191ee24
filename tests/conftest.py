import contextlib
from itertools import repeat
from unittest import mock

import pytest
from hypothesis import Phase, settings

from risingbandits import bandit, verify
from risingbandits.bandit import Policy, growth_rate

# The same examples on every run, and none replayed from a local database, so
# a property test passes or fails alike on every machine and every run.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
# The same examples, with no shrinking of a failing one: for runs that need
# only to know whether a test fails, such as tools/mutants.py, which selects
# it with pytest's --hypothesis-profile.
settings.register_profile(
    "deterministic-no-shrink",
    settings.get_profile("deterministic"),
    phases=[phase for phase in Phase if phase is not Phase.shrink],
)


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


def sum_left_to_right(values):
    """The float sum of ``values`` added one at a time, oldest first, as a
    policy adds each reward to its running sum.  From Python 3.12 ``sum()``
    compensates rounding and may differ in the last bit."""
    total = 0.0
    for value in values:
        total += value
    return total


class AlwaysSweeping(Policy):
    """Reference elimination policy that names one arm per ``select``, with
    its own fit check on every candidate: every round ends with a sweep
    while some candidate's next pull fits, and every pull records the arm's
    history, lower bound and spend and, from the arm's second pull on, its
    upper bound, however many candidates are left.  The history is every
    reward, of which ``growth_rate`` reads the last window + 1.  It looks
    ``eliminate`` up on the module, as the elimination policy does, so
    ``record_sweeps`` sees its sweeps."""

    name = "rising_bandit"

    def start(self, states, config, horizon):
        super().start(states, config, horizon)
        self._config, self._horizon = config, horizon
        self._next, self._round_pulled = 0, False

    def select(self, states, t):
        while True:
            while self._next < len(self.candidates):
                arm_id = self.candidates[self._next]
                self._next += 1
                if self._horizon.fits(arm_id):
                    self._round_pulled = True
                    return arm_id
            if not (self._round_pulled and any(map(self._horizon.fits, self.candidates))):
                return None
            self.candidates = bandit.eliminate(self.candidates, states)
            self._next, self._round_pulled = 0, False

    def observe(self, state, reward, cost):
        state.history.append(reward)
        state.lower = reward
        state.total_cost += cost
        if state.pulls >= 2:
            omega = growth_rate(state.history, self._config.window)
            state.upper = self._horizon.upper(state, omega)


def record_plans(policy):
    """Wrap ``policy.plan`` and return the list each plan is appended to: a
    repeated arm as ``"repeat(arm)"``, an elimination round (a lazy filter)
    as the candidate set it filters, and a list or tuple as a list.  Neither
    lazy plan is consumed."""
    plans = []
    plan = policy.plan

    def recording(states, t):
        arms = plan(states, t)
        if isinstance(arms, repeat):
            plans.append(repr(arms))
        elif isinstance(arms, filter):
            plans.append(list(policy.candidates))
        else:
            plans.append(None if arms is None else list(arms))
        return arms

    policy.plan = recording
    return plans
