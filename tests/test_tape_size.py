"""The tape each token-mixing stage records, and a desk train step's.

Every attention path and the gate are four ``Linear`` projections around one
fused op of ``tensor``, so each stage adds exactly five interior nodes to the
tape, its block's skip connection included: the output projection adds it
inside its node.  A readout call adds the slice of its query row.  A biased
``Linear`` is one node, and so is an ``Mlp`` with its skip.  Desk training
time is per-node overhead, so the whole step's tape is pinned: 261 nodes, 135
of them interior, and in every ablation row, loss row and the desk recipe
each node the step tapes must be one its loss reads.  Bench-geometry memory
is the tape's bytes, so a node keeps only what its backward reads,
``backward`` frees each node once its rule has run, a parameter's gradient is
written straight into the optimizer's vector, and the selection reads each
row's frames in place, so the tape holds no copy of the batch's videos.  A
census pins, per ablation row, the parameters whose gradient one step leaves
below 1e-12 of the largest.
"""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from glimpse import tensor as T
from glimpse import train as gtrain
from glimpse.config import RunConfig, desk_config, loss_variant, table_variant
from glimpse.data import Vocab, gen_episode
from glimpse.gating import cross_attention_core, gate_core
from glimpse.model import VideoQAModel
from glimpse.nn import Linear, Mlp, SelfAttention
from glimpse.tensor import Tensor


def reachable(root):
    """Every node reachable from ``root`` through parent links, leaves included."""
    seen = {id(root): root}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    return list(seen.values())


def interior(root):
    return sum(1 for node in reachable(root) if node._parents)


@pytest.fixture
def stage():
    rng = np.random.default_rng(0)
    attn = SelfAttention(8, 2, rng)
    seq = Tensor(rng.normal(size=(2, 7, 8)), requires_grad=True)
    text = Tensor(rng.normal(size=(2, 1, 8)), requires_grad=True)
    return attn, seq, text


def test_each_mixing_stage_adds_five_nodes(stage):
    # With its block's skip too, which the output projection adds in its node.
    attn, seq, text = stage
    assert interior(attn(seq, readout=True)) == 6  # and the query row's slice
    for skip in (None, seq):
        assert interior(attn(seq, residual=skip)) == 5
        assert interior(gate_core(seq, text, attn, residual=skip)) == 5
        assert interior(cross_attention_core(seq, text, attn, residual=skip)) == 5
        for temporal in (True, False):
            assert interior(attn(seq, residual=skip, grid=(2, 3), temporal=temporal)) == 5


def test_mlp_is_one_node_that_keeps_only_its_pre_activation():
    rng = np.random.default_rng(3)
    mlp = Mlp(64, 256, rng)
    x = Tensor(rng.normal(size=(128, 64)), requires_grad=True)
    assert interior(mlp(x)) == 1
    assert interior(mlp(x, residual=x)) == 1
    hidden = 128 * 256 * x.data.itemsize
    tracemalloc.start()
    try:
        out = mlp(x, residual=x)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert out.data.nbytes + hidden <= held < out.data.nbytes + hidden + hidden // 4


def test_biased_linear_is_one_node():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    assert interior(Linear(4, 5, rng, bias=True)(x)) == 1
    assert interior(Linear(4, 5, rng)(x)) == 1


def test_layer_norm_keeps_no_input_sized_array_but_its_output():
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(256, 64)), requires_grad=True)
    gain, bias = (Tensor(rng.normal(size=64), requires_grad=True) for _ in range(2))
    tracemalloc.start()
    try:
        out = T.layer_norm(x, gain, bias)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert out.data.nbytes <= held < out.data.nbytes + x.data.nbytes // 4


def test_weight_gradient_is_one_product_written_into_its_slot():
    # Per-entry products of a (4, S, 64) @ (64, 256) stack would make a
    # (4, 64, 256) array and then sum it; one product over the 4*S rows
    # writes the gradient into the slot, so no weight-sized array is made.
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(4, 3, 64)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.normal(size=(64, 256)).astype(np.float32), requires_grad=True)
    w.grad_slot = np.zeros(w.shape, np.float32)
    loss = T.tsum(T.matmul(x, w))
    tracemalloc.start()
    try:
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w.grad is w.grad_slot
    assert peak < w.data.nbytes, peak


def desk_step(monkeypatch, at_backward, cfg=None, dtype=np.float32):
    """One desk train step over 8 episodes (default: the desk config at B=8);
    ``at_backward(model, optimizer, nodes, n_interior)`` runs right after the
    step's ``backward``, with every node of its tape and the count of interior
    ones, taken before ``backward`` freed their links."""
    cfg = cfg or desk_config(seed=1, batch_size=8)
    vocab = Vocab(cfg.vocab_seed, cfg.dim)
    batch = [gen_episode(s, cfg.n_frames, cfg.n_grid, cfg.dim, vocab) for s in range(8)]
    model = VideoQAModel(cfg, vocab, np.random.default_rng(cfg.seed)).astype(dtype)
    optimizer = gtrain.AdamW(list(model.named_parameters()), cfg.weight_decay)
    backward = Tensor.backward

    def observed(root, *args, **kwargs):
        nodes = reachable(root)
        n_interior = sum(1 for node in nodes if node._parents)
        backward(root, *args, **kwargs)
        at_backward(model, optimizer, nodes, n_interior)

    monkeypatch.setattr(Tensor, "backward", observed)
    gtrain.train_step(model, optimizer, batch, cfg, 0)
    return model, optimizer


def test_desk_train_step_tapes_at_most_261_nodes_135_interior(monkeypatch):
    counts = []
    desk_step(monkeypatch, lambda model, optimizer, nodes, n_interior:
              counts.append((len(nodes), n_interior)))
    assert len(counts) == 1, counts
    (n_nodes, n_interior), = counts
    assert n_nodes <= 261 and n_interior <= 135, counts


def test_desk_train_step_tapes_no_copy_of_the_batch_videos(monkeypatch):
    # Each row's selection reads its episode's frames in place, so no array
    # of the batch's B*N*P*D frame values is live when backward starts.  A
    # 3x3 grid makes P*D differ from the sampler MLP's hidden width, 4*D.
    cfg = desk_config(seed=1, batch_size=8, n_grid=3)
    vocab = Vocab(cfg.vocab_seed, cfg.dim)
    batch = [gen_episode(s, cfg.n_frames, cfg.n_grid, cfg.dim, vocab) for s in range(8)]
    model = VideoQAModel(cfg, vocab, np.random.default_rng(cfg.seed))
    optimizer = gtrain.AdamW(list(model.named_parameters()), cfg.weight_decay)
    blocks = []
    backward = Tensor.backward

    def snapshot(root, *args, **kwargs):
        blocks.extend(trace.size for trace in tracemalloc.take_snapshot().traces)
        backward(root, *args, **kwargs)

    monkeypatch.setattr(Tensor, "backward", snapshot)
    tracemalloc.start()
    try:
        gtrain.train_step(model, optimizer, batch, cfg, 0)
    finally:
        tracemalloc.stop()
    videos = sum(episode.frames.nbytes for episode in batch)
    assert blocks and max(blocks) < videos, (max(blocks), videos)


def test_parameter_grads_are_views_of_the_optimizer_vector(monkeypatch):
    # With the masked-text term off, the MLM head is not on the tape: its
    # grad stays None, and the step leaves its data and moments alone.
    unreached = []

    def check(model, optimizer, nodes, n_interior):
        on_tape = {id(node) for node in nodes}
        for name, p in model.named_parameters():
            if id(p) in on_tape:
                assert p.grad is p.grad_slot and p.grad.base is optimizer.grads, name
            else:
                assert p.grad is None, name
                unreached.append((name, p.data.copy()))

    model, optimizer = desk_step(monkeypatch, check,
                                 desk_config(seed=1, batch_size=8, w_vgmlm=0.0))
    assert unreached and all(name.startswith("mlm_head.") for name, _ in unreached)
    params, moments = dict(model.named_parameters()), optimizer.moments
    for name, before in unreached:
        assert (params[name].data == before).all(), name
        assert not moments[name][0].any() and not moments[name][1].any(), name


def tape_config(grid, row):
    """The desk config at B=8 as table row ``row``, as loss row ``row``, or
    (``grid`` "recipe") the committed desk recipe, whose own batch is cut to
    the step's 8 episodes."""
    if grid == "recipe":
        return RunConfig.from_file(Path(__file__).parents[1] / "configs" / "desk_recipe.json")
    variant = table_variant if grid == "table" else loss_variant
    return variant(desk_config(seed=1, batch_size=8), row)


TAPE_CONFIGS = ([("table", row) for row in "abcdef"] + [("losses", row) for row in "abcdef"]
                + [("recipe", None)])


@pytest.mark.parametrize("grid,row", TAPE_CONFIGS,
                         ids=[f"{grid}-{row}" if row else grid for grid, row in TAPE_CONFIGS])
def test_every_taped_node_is_read_by_the_loss(monkeypatch, grid, row):
    # A node that the loss does not reach costs its op and its place on the
    # tape for nothing: every node a step tapes must be on backward's walk.
    taped = []
    node = T._node

    def recorded(data, parents):
        out = node(data, parents)
        if out._parents:
            taped.append(out)
        return out

    walked = []
    monkeypatch.setattr(T, "_node", recorded)
    desk_step(monkeypatch, lambda model, optimizer, nodes, n_interior: walked.extend(nodes),
              tape_config(grid, row))
    on_walk = {id(n) for n in walked}
    unread = [(n._backward.__qualname__, n.shape) for n in taped if id(n) not in on_walk]
    assert taped and not unread, unread


# Parameters whose gradient is below 1e-12 of a step's largest, per table row.
# The last sampler block's output bias shifts every frame logit of a slot
# alike, which the softmax ignores; under cross-attention over the one text
# row, each gate's softmax is over one key, so its query side is unused.
IDLE_SAMPLER_BIAS = {"sampler.blocks.1.mlp.fc2.b"}
IDLE_GATE_QUERIES = {f"{stack}.blocks.{i}.{name}" for stack in ("sampler", "refiner")
                     for i in range(2)
                     for name in ("ln_gate.gain", "ln_gate.bias", "gate.w_q.w", "gate.w_k.w")}
CANNOT_LEARN = {"a": set(), "b": set(), "c": IDLE_SAMPLER_BIAS, "d": IDLE_SAMPLER_BIAS,
                "e": IDLE_SAMPLER_BIAS | IDLE_GATE_QUERIES, "f": IDLE_SAMPLER_BIAS}


@pytest.mark.parametrize("row", sorted(CANNOT_LEARN))
def test_census_of_parameters_that_cannot_learn(monkeypatch, row):
    # One float64 step at B=4 over matched rows, every loss term on.
    grads = {}

    def census(model, optimizer, nodes, n_interior):
        for name, p in model.named_parameters():
            grads[name] = 0.0 if p.grad is None else np.abs(p.grad).max()

    cfg = table_variant(desk_config(seed=1, batch_size=4, exchange_prob=0.0), row)
    desk_step(monkeypatch, census, cfg, np.float64)
    largest = max(grads.values())
    assert np.isfinite(largest) and largest > 0.0
    idle = {name for name, g in grads.items() if g < 1e-12 * largest}
    assert idle == CANNOT_LEARN[row]
    assert all(grads[name] == 0.0 for name in idle - IDLE_SAMPLER_BIAS)
