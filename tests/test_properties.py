"""Property-based checks of the queue recursion and the two-source merge.

The examples are derandomized, so every run checks the same cases.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from paoiq.kernels import lindley_system_times
from paoiq.simulator import merge_arrivals

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=200)

positive = st.floats(min_value=1e-3, max_value=10.0, allow_nan=False, allow_infinity=False)


@DETERMINISTIC
@given(st.lists(st.tuples(positive, positive), min_size=1, max_size=300))
def test_lindley_matches_scalar_recursion(pairs):
    t, x = (np.array(column) for column in zip(*pairs))
    expected, w = [], 0.0
    for k in range(len(x)):
        # waiting time W_k = max(0, W_{k-1} + X_{k-1} - T_k), with W_1 = 0
        if k:
            w = max(0.0, w + x[k - 1] - t[k])
        expected.append(w + x[k])
    # the prefix-sum form rounds at the scale of the whole path's horizon
    horizon = t.sum() + x.sum()
    np.testing.assert_allclose(lindley_system_times(t, x), expected,
                               rtol=1e-9, atol=1e-14 * horizon)


# small integer steps make equal arrival times across the sources common
steps = st.lists(st.integers(min_value=1, max_value=3), max_size=60)


@DETERMINISTIC
@given(steps, steps)
def test_merge_keeps_source_order_and_sends_ties_to_source_1(steps1, steps2):
    a1 = np.cumsum(np.array(steps1, dtype=np.float64))
    a2 = np.cumsum(np.array(steps2, dtype=np.float64))
    if len(a1) + len(a2) == 0:
        return
    merged, ids = merge_arrivals(a1, a2)
    assert np.all(np.diff(merged) >= 0)
    # every update is kept, each source in its own order
    assert np.array_equal(merged[ids == 1], a1)
    assert np.array_equal(merged[ids == 2], a2)
    # within a tie, source 1 comes first
    tied = merged[1:] == merged[:-1]
    assert not np.any(tied & (ids[:-1] == 2) & (ids[1:] == 1))
