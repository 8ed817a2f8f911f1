import random

import numpy as np
import pytest

from kcover import Batch, Instance, Setting, offline


def batch(*pairs) -> Batch:
    return Batch(tuple(Batch.single(a, b).parts[0] for a, b in pairs))


def unit_instance(pairs, k, count="UN", target=None):
    items = tuple(Batch.single(a, b) for a, b in pairs)
    a = target if target is not None else max(b for _, b in pairs)
    return Instance(a, k, Setting("UL", count), items)


def al_instance(pairs, k, count="AN", target=None):
    items = tuple(Batch.single(a, b) for a, b in pairs)
    a = target if target is not None else max(b for _, b in pairs)
    return Instance(a, k, Setting("AL", count), items)


def sorted_items(inst):
    """The instance's items in the exact DP's (end, start, index) order."""
    return offline._sort_instance(inst)


def dp_tables(inst):
    """chi and kappa of the exact DP at the instance's own quota, even past
    n, indexed ``[i][j]``.  Tables that end at their fixed point are
    extended to all quota + 1 columns by repeating their last column, the
    column the solver reads in their place."""
    chi, kappa, _, _ = offline._dp_tables(sorted_items(inst), inst.quota)
    cols = np.minimum(np.arange(inst.quota + 1), chi.shape[1] - 1)
    return chi[:, cols], kappa[:, cols]


@pytest.fixture
def rng():
    return random.Random(20260808)
