import numpy as np
import pytest

from ldacs_sync import energy_template, generate_preamble, make_numerology


def full_rate_trigger(cond, m, start):
    """Reference trigger search over a boolean condition evaluated at every
    index: the first n with cond[n-m+1..n] all true and n-m+1 >= start, -1
    if none.  With t the true samples' indices, a run of m ends at t[i] iff
    t[i] - t[i-m+1] == m-1.  Written apart from the package's first_trigger;
    both are checked against a sample-by-sample run counter."""
    t = np.flatnonzero(cond[start:])
    if t.size < m:
        return -1
    ends = np.flatnonzero(t[m - 1 :] - t[: t.size - m + 1] == m - 1)
    return start + int(t[ends[0] + m - 1]) if ends.size else -1


@pytest.fixture(scope="session")
def num():
    return make_numerology()


@pytest.fixture(scope="session")
def pre(num):
    return generate_preamble(num, seed=1)


@pytest.fixture(scope="session")
def template(num, pre):
    return energy_template(pre, num)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
