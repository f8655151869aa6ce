"""Scale guards: loading and solving take memory that grows with the lists.

Two dense (n+1)^2 rank tables would take 6.4 GB for the first instance
here and 1.6 GB for the second, so these bounds fail long before any
assertion if an instance stores a table per side.
"""

import tracemalloc

import pytest

from profmatch import Criterion, blocking_pair, parse_instance, preprocess, solve

from helpers import lists_text, sparse_lists


def _peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_empty_lists_load_in_memory_of_the_agent_count():
    text = "20000 20000\n" + "\n" * 40_000
    pre, peak = _peak(lambda: preprocess(parse_instance(text)))
    assert pre.n_men == pre.n_women == 0
    assert peak < 16 * 2**20  # 6.1 MiB measured


@pytest.fixture(scope="module")
def sparse_n10000_text():
    return lists_text(*sparse_lists(10_000, [15] * 10_000, seed=1))


def test_sparse_n10000_solves_in_memory_of_the_lists(sparse_n10000_text):
    def load_and_solve():
        pre = preprocess(parse_instance(sparse_n10000_text))
        return pre, solve(pre, Criterion.RANK_MAXIMAL), solve(pre, Criterion.GENEROUS)

    (pre, rank_max, generous), peak = _peak(load_and_solve)
    assert pre.n_men > 9800
    assert rank_max.is_perfect(pre) and blocking_pair(pre, rank_max) is None
    assert generous.is_perfect(pre) and blocking_pair(pre, generous) is None
    assert peak < 48 * 2**20  # 23.9 MiB measured


def test_sparse_n10000_preprocesses_in_memory_of_the_kept_pairs(sparse_n10000_text):
    # The cut keeps 9,836 of 150,000 pairs; building a whole instance of
    # the kept agents' lists before cutting took 27.0 MiB here.
    inst = parse_instance(sparse_n10000_text)
    pre, peak = _peak(lambda: preprocess(inst))
    assert inst.n_men - pre.n_men == inst.n_women - pre.n_women == 164
    assert inst.acceptable_pairs == 150_000 and pre.acceptable_pairs == 9_836
    assert peak < 12 * 2**20  # 7.8 MiB measured
