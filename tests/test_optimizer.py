"""The flat parameter buffer and the fused, chunked AdamW over it.

A model's parameters are views of one vector in ``named_parameters`` order;
AdamW packs the ones it is given into a vector of its own and updates that
in place, a chunk at a time, and must give the bytes of the per-tensor rule
kept here as the reference.
"""

import numpy as np
import pytest

from glimpse import tensor as T
from glimpse import train as gtrain
from glimpse.config import desk_config
from glimpse.data import Vocab, gen_episode
from glimpse.model import VideoQAModel, load_checkpoint, save_checkpoint
from glimpse.nn import param_buffer, widen_weights
from glimpse.tensor import Tensor
from glimpse.train import AdamW, train_step

F32, F64 = np.dtype(np.float32), np.dtype(np.float64)


class ReferenceAdamW:
    """The per-tensor rule: fresh arrays for every moment and parameter."""

    def __init__(self, named_params, weight_decay, betas=(0.9, 0.999), eps=1e-8):
        self.named_params = list(named_params)
        self.weight_decay = weight_decay
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self.moments = {name: (np.zeros_like(p.data), np.zeros_like(p.data))
                        for name, p in self.named_params}

    def step(self, lr):
        self.t += 1
        correct1 = 1.0 - self.beta1 ** self.t
        correct2 = 1.0 - self.beta2 ** self.t
        for name, p in self.named_params:
            if p.grad is None:
                continue
            m, v = self.moments[name]
            m = self.beta1 * m + (1.0 - self.beta1) * p.grad
            v = self.beta2 * v + (1.0 - self.beta2) * (p.grad * p.grad)
            self.moments[name] = (m, v)
            update = (m / correct1) / (np.sqrt(v / correct2) + self.eps)
            p.data = p.data - lr * update - lr * self.weight_decay * p.data


# Sizes around a chunk of 64 values: inside one, on its edge, across two or
# three, and a scalar.
SHAPES = [(3, 5), (64,), (1,), (5, 13), (2, 2, 16), (130,), (7,), (1, 63)]


def set_grad(p, g):
    """Hand ``p`` the gradient ``g`` where a backward writes it: its grad slot."""
    p.grad_slot[...] = g
    p.grad = p.grad_slot


def tensors(dtype, seed=0):
    rng = np.random.default_rng(seed)
    return [(f"t{i}", Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True))
            for i, shape in enumerate(SHAPES)]


@pytest.mark.parametrize("dtype", [F32, F64], ids=["float32", "float64"])
def test_fused_update_matches_the_per_tensor_rule_bit_for_bit(dtype, monkeypatch):
    monkeypatch.setattr(T, "BLOCK_VALUES", 64)
    fused, ref = tensors(dtype), tensors(dtype)
    opt = AdamW(fused, weight_decay=0.05)
    want = ReferenceAdamW(ref, weight_decay=0.05)
    rng = np.random.default_rng(1)
    skipped = "t3"  # no grad in steps 1 and 4: data and moments must not move
    for step in range(6):
        for (name, p), (_, q) in zip(fused, ref):
            if name == skipped and step in (1, 4):
                p.grad = q.grad = None
            else:
                g = rng.normal(size=p.shape).astype(dtype)
                set_grad(p, g)
                q.grad = g
        before = {name: (p.data.copy(), *(a.copy() for a in opt.moments[name]))
                  for name, p in fused}
        lr = 1e-2 / (step + 1)
        opt.step(lr)
        want.step(lr)
        for (name, p), (_, q) in zip(fused, ref):
            assert p.data.dtype == dtype and p.data.tobytes() == q.data.tobytes(), (step, name)
            for got, exp in zip(opt.moments[name], want.moments[name]):
                assert got.dtype == dtype and got.tobytes() == exp.tobytes(), (step, name)
            if p.grad is None:
                assert all(a.tobytes() == b.tobytes() for a, b in
                           zip(before[name], (p.data, *opt.moments[name]))), (step, name)
    assert all(p.data.base is opt.data for _, p in fused)


def test_ufunc_calls_follow_chunks_not_tensors(monkeypatch):
    # Many tensors in one chunk cost the update what one tensor of the same
    # size costs; only the checks are per tensor, and they call no ufunc.
    class Counting:
        calls = 0

        def __getattr__(self, name):
            attr = getattr(np, name)
            if not isinstance(attr, np.ufunc):
                return attr

            def counted(*args, **kwargs):
                Counting.calls += 1
                return attr(*args, **kwargs)
            return counted

    def calls(shapes):
        params = [(f"t{i}", Tensor(np.ones(shape), requires_grad=True))
                  for i, shape in enumerate(shapes)]
        opt = AdamW(params, weight_decay=0.1)
        for _, p in params:
            set_grad(p, 1.0)
        Counting.calls = 0
        opt.step(1e-3)
        return Counting.calls

    monkeypatch.setattr(gtrain, "np", Counting())
    monkeypatch.setattr(T, "BLOCK_VALUES", 256)
    assert calls([(2,)] * 100) == calls([(200,)]) > 0
    assert calls([(2,)] * 200) == calls([(400,)]) == 2 * calls([(200,)])


def one_buffer(model):
    """The vector that holds every parameter of ``model`` back to back, in order,
    each ``p.data`` a view of it."""
    params = model.parameters()
    buf = params[0].data.base
    assert all(p.data.base is buf for p in params)
    assert buf.tobytes() == np.concatenate([p.data.reshape(-1) for p in params]).tobytes()
    return buf


def test_parameters_stay_views_of_one_buffer(tmp_path):
    cfg = desk_config(seed=6, batch_size=4)
    vocab = Vocab(cfg.vocab_seed, cfg.dim)
    episodes = [gen_episode(70 + i, cfg.n_frames, cfg.n_grid, cfg.dim, vocab) for i in range(4)]
    model = VideoQAModel(cfg, vocab, np.random.default_rng(cfg.seed))
    buf = one_buffer(model)
    assert buf.dtype == F32
    widen_weights(model, np.random.default_rng(3))
    assert one_buffer(model) is buf
    assert one_buffer(model.astype(F64)).dtype == F64 and model.dtype == F64
    assert one_buffer(model.astype(F32)).dtype == F32 and model.dtype == F32
    values = one_buffer(model).tobytes()
    optimizer = AdamW(list(model.named_parameters()), cfg.weight_decay)
    assert one_buffer(model) is optimizer.data and optimizer.data.tobytes() == values
    train_step(model, optimizer, episodes, cfg, 0)
    assert one_buffer(model) is optimizer.data
    assert all(p.grad is None or p.grad.base is optimizer.grads for p in model.parameters())

    save_checkpoint(tmp_path, model, 1, optimizer.state())
    assert one_buffer(model) is optimizer.data
    assert np.load(tmp_path / "params.npy").tobytes() == optimizer.data.tobytes()
    moments = np.concatenate([optimizer.m, optimizer.v])
    assert np.load(tmp_path / "moments.npy").tobytes() == moments.tobytes()
    loaded, _, opt_state = load_checkpoint(tmp_path)
    assert one_buffer(loaded).tobytes() == optimizer.data.tobytes()
    resumed = AdamW(list(loaded.named_parameters()), cfg.weight_decay)
    resumed.load_state(opt_state)
    assert one_buffer(loaded) is resumed.data
    assert np.concatenate([resumed.m, resumed.v]).tobytes() == moments.tobytes()


@pytest.mark.parametrize("fault", ["rebound", "swapped", "grad-outside-slot"])
def test_a_step_refuses_a_parameter_it_does_not_hold(fault):
    # Rebinding ``p.data`` after the optimizer was built detaches it from its
    # place in the buffer (swapped views stay in the buffer, but the update
    # writes by position), and a grad bound by hand is not the one the update
    # reads: the step names the parameter and changes no value of any of them.
    fused = tensors(F64)
    opt = AdamW(fused, weight_decay=0.1)
    for _, p in fused:
        set_grad(p, 0.5)
    name, p = fused[3]
    match = f"parameter {name} was rebound from its place in the buffer"
    if fault == "rebound":
        p.data = p.data + 1.0
    elif fault == "swapped":
        p.data, fused[4][1].data = fused[4][1].data, p.data
    else:
        p.grad = np.full(p.shape, 0.5)
        match = f"parameter {name} has a grad outside its grad_slot"
    before = opt.data.copy(), np.concatenate([opt.m, opt.v])
    with pytest.raises(ValueError, match=match):
        opt.step(1e-2)
    assert opt.data.tobytes() == before[0].tobytes() and opt.t == 0
    assert np.concatenate([opt.m, opt.v]).tobytes() == before[1].tobytes()


@pytest.mark.parametrize("misplace", ["swapped", "strided", "restrided", "copied", "dropped"])
def test_the_optimizer_packs_any_prior_layout(misplace, monkeypatch):
    # Whatever vector the parameters were views of, or none, the optimizer
    # packs them into its own, in order, and steps each one bit for bit as
    # the per-tensor rule does.
    monkeypatch.setattr(T, "BLOCK_VALUES", 64)
    named = tensors(F64)
    params = [p for _, p in named]
    buf = param_buffer(params)
    if misplace == "swapped":      # two views of the buffer, out of order
        params[1].data, params[6].data = params[6].data, params[1].data
    elif misplace == "strided":    # a view of the buffer, not contiguous
        params[0].data = buf[:30:2].reshape(3, 5)
    elif misplace == "restrided":  # its own view, made non-contiguous in place
        with pytest.warns(DeprecationWarning):
            params[0].data.strides = (8, 24)
    elif misplace == "copied":
        params[2].data = params[2].data.copy()
    else:                          # the buffer holds one more parameter
        named = named[:-1]
    ref = [(name, Tensor(p.data.copy(), requires_grad=True)) for name, p in named]
    opt = AdamW(named, weight_decay=0.05)
    want = ReferenceAdamW(ref, weight_decay=0.05)
    assert all(p.data.base is opt.data and p.data.flags.c_contiguous for _, p in named)
    rng = np.random.default_rng(2)
    for step in range(3):
        for (_, p), (_, q) in zip(named, ref):
            q.grad = rng.normal(size=p.shape)
            set_grad(p, q.grad)
        opt.step(1e-2)
        want.step(1e-2)
        for (name, p), (_, q) in zip(named, ref):
            assert p.data.tobytes() == q.data.tobytes(), (step, name)


def test_backward_writes_grads_into_the_optimizer_vector():
    # A parameter's first gradient of a backward is copied into its view of
    # AdamW.grads and later ones are added there, with the bytes that
    # rebinding gives a tensor outside any optimizer; the backward of a
    # second graph adds one more pass.
    (_, w), (_, unused) = tensors(F32)[:2]
    free = Tensor(w.data.copy(), requires_grad=True)
    opt = AdamW([("w", w), ("unused", unused)], weight_decay=0.1)

    def loss(t):
        return T.tsum(t * t) + T.tsum(t * 3.0)

    for _ in range(2):
        graph, free_graph = loss(w), loss(free)
        graph.backward()
        free_graph.backward()
        assert w.grad is w.grad_slot and w.grad.base is opt.grads
        assert w.grad.tobytes() == free.grad.tobytes()
    assert unused.grad is None
    opt.step(1e-3)
    assert w.grad is w.grad_slot and unused.grad is None
