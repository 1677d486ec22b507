import contextlib
import os

import numpy as np
import pytest

from ncacf import numerics, training
from ncacf.data import (ConfidenceScheme, InteractionTriplets, SparsePlaycounts)
from ncacf.models import load_model, save_model
from oracles import finite_diff_grad, full_loss_gradients
from ncacf.training import full_loss


def random_triplets(num_users, num_items, density, seed, tau=7.0):
    """Random playcount triplets with counts straddling the threshold."""
    rng = np.random.default_rng(seed)
    mask = rng.random((num_users, num_items)) < density
    users, items = np.nonzero(mask)
    counts = rng.integers(1, 20, size=users.size).astype(float)
    return InteractionTriplets.create(users, items, counts, num_users, num_items)


@pytest.fixture
def tiny_data():
    """4 users x 3 items with a mix of above/below-threshold counts."""
    users = np.array([0, 0, 1, 2, 2, 3])
    items = np.array([0, 2, 1, 0, 1, 2])
    counts = np.array([9.0, 3.0, 12.0, 7.0, 1.0, 8.0])
    t = InteractionTriplets.create(users, items, counts, 4, 3)
    return t, SparsePlaycounts.from_triplets(t), ConfidenceScheme()


@contextlib.contextmanager
def pinned_cores(monkeypatch, cores):
    """Run the body as if the process may use `cores` cores (its CPU
    affinity), which sets numerics.map_blocks' worker count, starting with no
    pool built and shutting down the pool the body built."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    monkeypatch.setattr(numerics, "_POOL", None)
    try:
        yield
    finally:
        if numerics._POOL is not None:
            numerics._POOL.shutdown()  # runs whatever block is still queued


@contextlib.contextmanager
def edited_checkpoint(path, out=None):
    """Yield the (model, header) of the checkpoint at path for the body to
    change in place, then save them, with the checkpoint's Adam state, to
    out (default: path). The copy holds no stored validation result, so
    `evaluate` ranks both of its buckets."""
    model, header, adams, _, _ = load_model(path)
    yield model, header
    save_model(path if out is None else out, model, header, adams)


def record_solves(monkeypatch):
    """A list that receives the stack size of every training.solve_spd call."""
    solve, stacks = training.solve_spd, []

    def recording(A, b):
        stacks.append(A.shape[0])
        return solve(A, b)

    monkeypatch.setattr(training, "solve_spd", recording)
    return stacks


def model_param_arrays(model, owned):
    """Yield (group, name, live array) for every owned parameter of a model."""
    if "W" in owned:
        yield "W", "W", model.W
    if "H" in owned and model.H is not None:
        yield "H", "H", model.H
    if "extractor" in owned and model.extractor is not None:
        for name, arr in model.extractor.param_dict().items():
            yield "extractor", name, arr
    if "interaction" in owned and model.interaction is not None:
        for name, arr in model.interaction.param_dict().items():
            yield "interaction", name, arr


def gradcheck_full_loss(model, data, scheme, features, lam_w, lam_h, owned,
                        item_pool=None, h=1e-5, rtol=1e-4, atol=1e-7):
    """Assert every owned parameter's analytic gradient matches central
    finite differences of the full objective. Returns the parameter count."""
    _, grads = full_loss_gradients(model, data, scheme, features, lam_w, lam_h,
                                   owned, item_pool)
    checked = 0
    for group, name, arr in model_param_arrays(model, owned):
        analytic = grads[group] if group in ("W", "H") else grads[group][name]
        original = arr.copy()

        def f(values, _arr=arr):
            _arr[...] = values
            return full_loss(model, data, scheme, features, lam_w, lam_h, item_pool,
                             batch_items=model.num_items)

        numeric = finite_diff_grad(f, original.copy(), h=h)
        arr[...] = original
        np.testing.assert_allclose(
            analytic, numeric, rtol=rtol, atol=atol,
            err_msg=f"gradient mismatch for {group}/{name}")
        checked += analytic.size
    return checked


def half_writing(replacing, name=None):
    """A stand-in for data.replacing whose file, or only the file called
    `name`, takes half of its first write and then fails, as a full disk
    would. Every other file method is the real file's."""
    class HalfWrite:
        def __init__(self, fh):
            self.fh = fh

        def __getattr__(self, attr):
            return getattr(self.fh, attr)

        def write(self, data):
            self.fh.write(data[:len(data) // 2])
            raise OSError("no space left on device")

    @contextlib.contextmanager
    def failing(path):
        with replacing(path) as fh:
            yield HalfWrite(fh) if name in (None, os.path.basename(path)) else fh

    return failing
