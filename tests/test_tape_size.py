"""The tape each token-mixing stage records, and a desk train step's.

Every attention path and the gate are four ``Linear`` projections around one
fused op of ``tensor``, so each stage adds exactly five interior nodes to the
tape; a readout call adds the slice of its query row.  Desk training time is
per-node overhead, so the whole step's tape is pinned too.
"""

import numpy as np
import pytest

from glimpse import train as gtrain
from glimpse.config import desk_config
from glimpse.data import Vocab, gen_episode
from glimpse.gating import cross_attention_core, gate_core
from glimpse.model import VideoQAModel
from glimpse.nn import SelfAttention
from glimpse.refiner import _divided_attention
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
    attn, seq, text = stage
    assert interior(attn(seq)) == 5
    assert interior(attn(seq, readout=True)) == 6  # and the query row's slice
    assert interior(gate_core(seq, text, attn)) == 5
    assert interior(cross_attention_core(seq, text, attn)) == 5
    for temporal in (True, False):
        assert interior(_divided_attention(seq, attn, 2, 3, temporal)) == 5


def test_desk_train_step_tapes_at_most_320_nodes(monkeypatch):
    cfg = desk_config(seed=1, batch_size=8)
    vocab = Vocab(cfg.vocab_seed, cfg.dim)
    batch = [gen_episode(s, cfg.n_frames, cfg.n_grid, cfg.dim, vocab) for s in range(8)]
    model = VideoQAModel(cfg, vocab, np.random.default_rng(cfg.seed))
    optimizer = gtrain.AdamW(list(model.named_parameters()), cfg.weight_decay)
    counts = []
    backward = Tensor.backward

    def counted(root, *args, **kwargs):
        counts.append(len(reachable(root)))
        return backward(root, *args, **kwargs)

    monkeypatch.setattr(Tensor, "backward", counted)
    gtrain.train_step(model, optimizer, batch, cfg, 0)
    assert len(counts) == 1 and counts[0] <= 320, counts
