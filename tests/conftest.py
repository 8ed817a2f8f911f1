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
    """The instance's items in the exact DP's (end, start, index) order:
    each sorted position's original index, the starts and the ends."""
    return offline._sort_instance(inst)


def dp_tables(inst):
    """chi and kappa of the exact DP at the instance's own quota, even past
    n, indexed ``[i][j]``.  Tables that end at their fixed point are
    extended to all quota + 1 columns as the solver reads them: each later
    column c repeats the last one, with chi's rows up to min(c, n) pinned
    to the prefix unions."""
    _, starts, ends = sorted_items(inst)
    chi, kappa, _, _, pref = offline._dp_tables(starts, ends, inst.quota)
    return extend_tables(chi, kappa, pref, inst.quota)


def extend_tables(chi, kappa, pref, quota):
    """Stopped ``[i][j]`` tables extended to quota + 1 columns."""
    cols = np.minimum(np.arange(quota + 1), chi.shape[1] - 1)
    chi, kappa = chi[:, cols], kappa[:, cols]
    for c in range(quota + 1):
        chi[: c + 1, c] = pref[: c + 1]
    return chi, kappa


@pytest.fixture
def rng():
    return random.Random(20260808)
