"""The dtype contract: the model computes in float32, the oracle in float64.

A ``VideoQAModel`` holds float32 parameters, so every tensor of a train step
or an eval pass, every gradient and every AdamW moment is float32; one
float64 constant would widen the whole graph behind it.  Checkpoints store
float32 and round-trip a float32 model bit for bit.  Modules built directly
(the oracle's targets) stay float64.
"""

import weakref

import numpy as np
import pytest

from glimpse import tensor as T
from glimpse.config import desk_config, loss_variant, table_variant
from glimpse.data import BLIND_MODES, Vocab, gen_episode
from glimpse.evaluate import evaluate_with_blind_probes
from glimpse.model import VideoQAModel, load_checkpoint, save_checkpoint
from glimpse.nn import Mlp, init_normal, param_buffer
from glimpse.tensor import Tensor
from glimpse.train import AdamW, train_step

F32, F64 = np.dtype(np.float32), np.dtype(np.float64)


def setup(cfg, dtype=F32, count=8):
    vocab = Vocab(cfg.vocab_seed, cfg.dim)
    episodes = [gen_episode(70 + i, cfg.n_frames, cfg.n_grid, cfg.dim, vocab)
                for i in range(count)]
    model = VideoQAModel(cfg, vocab, np.random.default_rng(cfg.seed)).astype(dtype)
    return model, AdamW(list(model.named_parameters()), cfg.weight_decay), episodes


def record_dtypes(monkeypatch) -> list:
    """Record the dtype of every op output and of every gradient accumulated,
    a product's before it is written into a grad slot too."""
    seen = []
    real_node, real_accumulate = T._node, Tensor._accumulate
    real_product = Tensor._accumulate_product

    def node(data, parents):
        seen.append(("node", data.dtype))
        return real_node(data, parents)

    def accumulate(self, g):
        seen.append(("grad", np.asarray(g).dtype))
        return real_accumulate(self, g)

    def accumulate_product(self, left, right):
        seen.append(("grad", np.result_type(left, right)))
        return real_product(self, left, right)

    monkeypatch.setattr(T, "_node", node)
    monkeypatch.setattr(Tensor, "_accumulate", accumulate)
    monkeypatch.setattr(Tensor, "_accumulate_product", accumulate_product)
    return seen


VARIANTS = [table_variant(desk_config(seed=6, batch_size=4), row) for row in "abcdef"]
VARIANTS.append(loss_variant(desk_config(seed=6, batch_size=4, w_qa=0.0), "a"))


@pytest.mark.parametrize("cfg", VARIANTS, ids=[f"{c.sampler}-{c.refiner}-{c.fusion}"
                                               f"-w{c.w_vtm:g}{c.w_cl:g}{c.w_vgmlm:g}"
                                               for c in VARIANTS])
def test_train_step_and_eval_stay_float32(cfg, monkeypatch):
    model, optimizer, episodes = setup(cfg)
    seen = record_dtypes(monkeypatch)
    for step in range(2):
        train_step(model, optimizer, episodes, cfg, step)
    evaluate_with_blind_probes(model, episodes[:6], eval_seed=3, modes=BLIND_MODES)
    # With every loss weight at zero a step sums no term, so it runs no
    # forward and accumulates no gradient; only the evaluation tapes nodes.
    trains = any((cfg.w_vtm, cfg.w_cl, cfg.w_vgmlm, cfg.w_qa))
    assert {kind for kind, _ in seen} == ({"node", "grad"} if trains else {"node"})
    assert {dtype for _, dtype in seen} == {F32}
    assert {t.dtype for _, t in model.named_tensors()} == {F32}
    assert {p.grad.dtype for p in model.parameters() if p.grad is not None} <= {F32}
    assert {a.dtype for pair in optimizer.moments.values() for a in pair} == {F32}


def test_astype_casts_every_tensor_and_drops_grads():
    cfg = desk_config(seed=6)
    model, _, _ = setup(cfg)
    assert model.dtype == F32 and model.text_encoder.embed.dtype == F32
    model.vtm_head.w.grad = np.ones_like(model.vtm_head.w.data)
    assert model.astype(np.float64) is model
    assert {t.dtype for _, t in model.named_tensors()} == {F64}
    assert model.vtm_head.w.grad is None
    # Modules built directly, as the oracle builds them, stay float64.
    assert Mlp(4, 8, np.random.default_rng(0)).dtype == F64


def test_draw_free_zeros_are_float32_and_the_cast_keeps_them():
    # The build under load_checkpoint allocates each weight once, in the
    # compute dtype; the final cast does not copy arrays already in it.
    assert init_normal(None, (3, 4)).dtype == F32
    mlp = Mlp(4, 8, np.random.default_rng(0))
    before = [t.data for _, t in mlp.named_tensors()]
    mlp.astype(F64)
    assert all(a is t.data for a, (_, t) in zip(before, mlp.named_tensors()))


def test_checkpoint_round_trip_keeps_dtype_and_bytes(tmp_path):
    cfg = desk_config(seed=6, batch_size=4)
    model, optimizer, episodes = setup(cfg)
    for step in range(2):
        train_step(model, optimizer, episodes, cfg, step)
    save_checkpoint(tmp_path, model, 2, optimizer.state())
    loaded, step, opt_state = load_checkpoint(tmp_path)
    assert step == 2 and opt_state["t"] == 2
    for name, arr in model.state_dict().items():
        got = loaded.state_dict()[name]
        assert got.dtype == F32 and got.tobytes() == arr.tobytes(), name
    for name, pair in optimizer.moments.items():
        for want, got in zip(pair, opt_state["moments"][name]):
            assert got.dtype == F32 and got.tobytes() == want.tobytes(), name
    resumed = AdamW(list(loaded.named_parameters()), cfg.weight_decay)
    resumed.load_state(opt_state)
    a = train_step(model, optimizer, episodes, cfg, 2)
    b = train_step(loaded, resumed, episodes, cfg, 2)
    assert a == b


def test_checkpoint_arrays_are_cast_once(tmp_path, monkeypatch):
    # Each dump is read once, straight from the mapped file into the model's
    # dtype: the parameters into the loaded model's parameter buffer, the
    # moments into one vector, and the arrays the model and the optimizer
    # state keep are views of it.  No mapped file outlives the load.
    cfg = desk_config(seed=6, batch_size=4)
    model, optimizer, episodes = setup(cfg)
    train_step(model, optimizer, episodes, cfg, 0)
    save_checkpoint(tmp_path, model, 1, optimizer.state())
    read, mapped, copyto = [], [], np.copyto

    def recorded(dst, src, **kwargs):
        read.append(dst)
        mapped.append(weakref.ref(src))
        assert isinstance(src, np.memmap) and src.dtype == F32
        return copyto(dst, src, **kwargs)

    monkeypatch.setattr(np, "copyto", recorded)
    loaded, _, opt_state = load_checkpoint(tmp_path)
    monkeypatch.undo()
    assert [arr.dtype for arr in read] == [F32, F32]
    assert all(ref() is None for ref in mapped)
    assert read[0] is param_buffer(loaded.parameters())
    params = list(loaded.state_dict().values())
    moments = [arr for pair in opt_state["moments"].values() for arr in pair]
    assert len(params) == len(opt_state["moments"]) == len(list(model.parameters()))
    assert all(arr.base is read[0] for arr in params)
    assert all(arr.base is read[1] for arr in moments)


def test_float64_checkpoint_loads_rounded(tmp_path):
    # A float64 model (the oracle's dtype) saves its weights and moments
    # rounded to float32, and loads with every value so rounded.
    cfg = desk_config(seed=6)
    model, _, _ = setup(cfg, dtype=F64)
    rng = np.random.default_rng(1)
    for p in model.parameters():
        p.data = p.data + rng.normal(0.0, 1e-3, size=p.data.shape)
    moments = {name: (rng.normal(size=p.data.shape), rng.random(p.data.shape))
               for name, p in model.named_parameters()}
    save_checkpoint(tmp_path, model, 5, {"t": 5, "moments": moments})
    assert model.dtype == F64
    assert np.load(tmp_path / "params.npy").dtype == np.load(tmp_path / "moments.npy").dtype == F32
    loaded, step, opt_state = load_checkpoint(tmp_path)
    assert step == 5 and loaded.dtype == F32
    for name, arr in model.state_dict().items():
        got = loaded.state_dict()[name]
        assert got.dtype == F32 and (got == arr.astype(np.float32)).all(), name
    for name, pair in moments.items():
        for want, got in zip(pair, opt_state["moments"][name]):
            assert got.dtype == F32 and (got == want.astype(np.float32)).all(), name


def test_float32_loss_stream_tracks_float64():
    # The same rounded weights trained in both dtypes; float32 rounding
    # (about 6e-8 relative per op) stays far inside 1e-4 over 20 steps.
    cfg = desk_config(seed=1, batch_size=4, steps=20)
    streams = {}
    for dtype in (F32, F64):
        model, optimizer, episodes = setup(cfg, dtype, count=12)
        streams[dtype] = [train_step(model, optimizer, episodes, cfg, step)
                          for step in range(cfg.steps)]
    for lo, hi in zip(streams[F32], streams[F64]):
        for term in ("l_vtm", "l_cl", "l_vgmlm", "l_qa", "l_total"):
            assert abs(lo[term] - hi[term]) <= 1e-4 * abs(hi[term]), (lo["step"], term)
