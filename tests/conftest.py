import sys

import numpy as np
import pytest

from carms.oracle import all_orderings


class PinnedOrdering:
    """A Generator whose integers(0, M, size) always returns one ordering's
    number, its index in all_orderings(C); every other attribute is the
    wrapped generator's.  The inverse-CDF sampler then lays out each draw
    from that number, as it does a drawn one, on the wrapped copula stream."""

    def __init__(self, rng, ordering):
        anchors = [o.anchor for o in all_orderings(ordering.n_categories)]
        self._rng, self._orderings = rng, len(anchors)
        self._number = anchors.index(ordering.anchor)

    def integers(self, low, high, size):
        assert (low, high) == (0, self._orderings), "not the ordering draw"
        return np.full(size, self._number)

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.fixture
def pinned_ordering():
    """PinnedOrdering(rng, ordering): rng with the inverse-CDF ordering draw fixed."""
    return PinnedOrdering


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # acceptance gates record their one-line verdicts as they run; echo them
    # here so they survive output capture even when every gate passes
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "ACCEPTANCE_LINES", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
