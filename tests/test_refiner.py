"""Refinement stack: assembly, divided attention topology, and CLS extraction."""

import functools

import numpy as np
import pytest

from glimpse import tensor as T
from glimpse.config import RunConfig
from glimpse.data import FrameBundle, Vocab
from glimpse.gating import gate_core
from glimpse.gradcheck import grad_check
from glimpse.model import VideoQAModel
from glimpse.nn import Block, Linear, Mlp, widen_weights
from glimpse.refiner import RefinerParams, VrBlock, assemble_refiner_input, refine
from glimpse.tensor import Tensor


def make_refiner(seed=0, d=16, h=2, k=2, p=4, depth=1):
    return RefinerParams(d, h, k, p, depth, np.random.default_rng(seed), "la_gate")


def zero_tables(params):
    params.cls_init = Tensor(np.zeros_like(params.cls_init.data), requires_grad=True)
    params.spatial_table = Tensor(np.zeros_like(params.spatial_table.data), requires_grad=True)
    params.temporal_table_k = Tensor(np.zeros_like(params.temporal_table_k.data),
                                     requires_grad=True)


class TestAssemble:
    def test_zero_tables_give_flattened_patches(self):
        rng = np.random.default_rng(0)
        params = make_refiner()
        zero_tables(params)
        patches = rng.normal(size=(2, 4, 16))
        out = assemble_refiner_input(Tensor(patches), params)
        assert out.shape == (9, 16)
        np.testing.assert_array_equal(out.data[0], 0.0)
        np.testing.assert_array_equal(out.data[1:], patches.reshape(8, 16))

    def test_minimal_sequence_length(self):
        params = make_refiner(k=1, p=1)
        out = assemble_refiner_input(Tensor(np.zeros((1, 1, 16))), params)
        assert out.shape == (2, 16)

    def test_positions_indexed_frame_major(self):
        rng = np.random.default_rng(1)
        params = make_refiner()
        patches = rng.normal(size=(2, 4, 16))
        out = assemble_refiner_input(Tensor(patches), params)
        for k in range(2):
            for p in range(4):
                expected = (patches[k, p] + params.spatial_table.data[p]
                            + params.temporal_table_k.data[k])
                np.testing.assert_array_equal(out.data[1 + k * 4 + p], expected)

    def test_shape_mismatch_rejected(self):
        # The refiner trusts its input: patches whose count P or width D do not
        # fit it are stopped where the frames enter the model.
        cfg = RunConfig(n_frames=6, k_select=2, depth=1, dim=24, heads=2, n_grid=2)
        model = VideoQAModel(cfg, Vocab(cfg.vocab_seed, cfg.dim), np.random.default_rng(0))
        rng = np.random.default_rng(3)
        for p, d in ((3, 24), (4, 25)):
            bundle = FrameBundle(v_patch=rng.normal(size=(6, p, d)), v_cls=rng.normal(size=(6, d)))
            with pytest.raises(ValueError,
                               match=r"expected float32 or float64 \(6, 4, 24\) and \(6, 24\)"):
                model.represent([bundle], [[2, 3]], [0])

    def test_gradient_reaches_cls_and_tables(self):
        rng = np.random.default_rng(2)
        params = make_refiner(d=8, p=2, k=2)
        patches = Tensor(rng.normal(size=(2, 2, 8)), requires_grad=True)
        w = Tensor(rng.normal(size=(5, 8)))
        checked = [patches, params.cls_init, params.spatial_table, params.temporal_table_k]
        report = grad_check(
            lambda: T.tsum(assemble_refiner_input(patches, params) * w), checked
        )
        assert report.passed, report.max_rel_error


class TestVrBlock:
    def test_zero_output_projections_make_identity(self):
        rng = np.random.default_rng(3)
        block = VrBlock(8, 2, rng, "la_gate")
        for proj in (block.gate.w_o, block.attn_temporal.w_o, block.attn.w_o):
            proj.w = Tensor(np.zeros((8, 8)), requires_grad=True)
        block.mlp.fc2.w = Tensor(np.zeros((32, 8)), requires_grad=True)
        block.mlp.fc2.b = Tensor(np.zeros(8), requires_grad=True)
        seq = rng.normal(size=(9, 8))
        out = block(Tensor(seq), Tensor(rng.normal(size=(1, 8))), k=2, p=4)
        np.testing.assert_array_equal(out.data, seq)

    def test_gate_stage_is_row_local(self):
        # Before the attention stages mix rows, the gate sublayer must leave
        # untouched rows bit-identical when another row is perturbed.
        rng = np.random.default_rng(4)
        block = VrBlock(8, 2, rng, "la_gate")
        seq = rng.normal(size=(9, 8))
        t_row = Tensor(rng.normal(size=(1, 8)))
        gated = (Tensor(seq) + gate_core(block.ln_gate(Tensor(seq)), t_row, block.gate)).data
        bumped = seq.copy()
        bumped[4] += 1.0
        gated_b = (Tensor(bumped) + gate_core(block.ln_gate(Tensor(bumped)), t_row, block.gate)).data
        rows = [i for i in range(9) if i != 4]
        assert (gated[rows] == gated_b[rows]).all()

    def test_temporal_stage_respects_groups(self):
        # With spatial attention and MLP silenced, perturbing a patch at one
        # spatial slot must not move patch outputs at other slots (the CLS row
        # sees everything, so it may move).
        rng = np.random.default_rng(5)
        block = VrBlock(8, 2, rng, "la_gate")
        block.gate.w_o.w = Tensor(np.zeros((8, 8)), requires_grad=True)
        block.attn.w_o.w = Tensor(np.zeros((8, 8)), requires_grad=True)
        block.mlp.fc2.w = Tensor(np.zeros((32, 8)), requires_grad=True)
        k, p = 3, 2
        seq = rng.normal(size=(1 + k * p, 8))
        t = Tensor(rng.normal(size=(1, 8)))
        base = block(Tensor(seq), t, k=k, p=p).data
        bumped = seq.copy()
        bumped[1] += 1.0  # frame 0, slot 0
        moved = block(Tensor(bumped), t, k=k, p=p).data
        slot_of = lambda row: (row - 1) % p
        for row in range(1, 1 + k * p):
            if slot_of(row) != 0:
                assert (moved[row] == base[row]).all(), f"row {row} leaked across slots"

    def test_gradients_pass_oracle(self):
        rng = np.random.default_rng(6)
        block = VrBlock(16, 2, np.random.default_rng(6), "la_gate")
        widen_weights(block, rng)
        seq = Tensor(rng.normal(size=(9, 16)), requires_grad=True)
        t_cls = Tensor(rng.normal(size=(1, 16)), requires_grad=True)
        report = grad_check(
            lambda: T.tsum(block(seq, t_cls, k=2, p=4)),
            [seq, t_cls] + block.parameters(),
        )
        assert report.passed, report.max_rel_error


class TestRefine:
    def test_single_block_zero_residuals_return_cls_init(self):
        rng = np.random.default_rng(7)
        params = make_refiner(seed=7)
        block = params.blocks[0]
        block.gate.w_o.w = Tensor(np.zeros((16, 16)), requires_grad=True)
        block.attn_temporal.w_o.w = Tensor(np.zeros((16, 16)), requires_grad=True)
        block.attn.w_o.w = Tensor(np.zeros((16, 16)), requires_grad=True)
        block.mlp.fc2.w = Tensor(np.zeros((64, 16)), requires_grad=True)
        block.mlp.fc2.b = Tensor(np.zeros(16), requires_grad=True)
        out = refine(Tensor(rng.normal(size=(2, 4, 16))), Tensor(rng.normal(size=(1, 16))),
                     params)
        np.testing.assert_array_equal(out.data, params.cls_init.data)

    def test_output_dimension(self):
        rng = np.random.default_rng(8)
        params = make_refiner(depth=2)
        out = refine(Tensor(rng.normal(size=(2, 4, 16))), Tensor(rng.normal(size=(1, 16))),
                     params)
        assert out.shape == (16,)

    def test_full_connectivity_from_any_patch(self):
        # One temporal plus one spatial stage connect every input patch to the
        # final CLS token.
        rng = np.random.default_rng(9)
        params = make_refiner(seed=9)
        patches = rng.normal(size=(2, 4, 16))
        t = Tensor(rng.normal(size=(1, 16)))
        base = refine(Tensor(patches), t, params).data
        for k in range(2):
            for p in range(4):
                bumped = patches.copy()
                bumped[k, p] += 0.5
                moved = refine(Tensor(bumped), t, params).data
                assert np.abs(moved - base).max() > 0, f"patch ({k},{p}) unreachable"

    def test_gradient_reaches_every_parameter_and_patch(self):
        rng = np.random.default_rng(10)
        params = make_refiner(seed=10, depth=2)
        patches = Tensor(rng.normal(size=(2, 4, 16)), requires_grad=True)
        t = Tensor(rng.normal(size=(1, 16)), requires_grad=True)
        out = refine(patches, t, params)
        T.tsum(out * Tensor(rng.normal(size=16))).backward()
        assert patches.grad is not None and np.abs(patches.grad).max() > 0
        assert t.grad is not None and np.abs(t.grad).max() > 0
        for name, p in params.named_parameters():
            assert p.grad is not None, f"{name} got no gradient"
            assert np.abs(p.grad).max() > 0, f"{name} gradient identically zero"


class TestReadout:
    """The last block of a readout stack computes the CLS row alone.

    Its readout call must be row 0 of its full call, in value and in every
    gradient of a loss that weights row 0 only.  The two calls reach row 0
    through products of other sizes, so they agree to float64 roundoff, not
    bit for bit.
    """

    REL = 1e-12

    def assert_readout_is_row_0(self, block, call, inputs):
        rng = np.random.default_rng(12)
        widen_weights(block, rng)
        checked = [*inputs, *block.parameters()]
        w0 = Tensor(rng.normal(size=(*inputs[0].shape[:-2], 1, inputs[0].shape[-1])))
        results = []
        for readout in (False, True):
            for t in checked:
                t.grad = None
            row = call(readout=readout)
            if not readout:
                row = row[..., :1, :]
            T.tsum(row * w0).backward()
            results.append((row.data, [t.grad for t in checked]))
        (full, full_grads), (row, row_grads) = results
        assert row.shape == full.shape
        np.testing.assert_allclose(row, full, rtol=0, atol=self.REL * np.abs(full).max())
        names = ["seq", "text"][:len(inputs)] + [n for n, _ in block.named_parameters()]
        for name, want, got in zip(names, full_grads, row_grads):
            assert np.abs(want).max() > 0, f"{name} gets no gradient from row 0"
            err = np.abs(got - want).max() / np.abs(want).max()
            assert err <= self.REL, f"{name}: {err:.1e}"

    @pytest.mark.parametrize("fusion", ["la_gate", "cross_attention"])
    def test_vr_block(self, fusion):
        rng = np.random.default_rng(13)
        k, p = 2, 3
        block = VrBlock(16, 2, np.random.default_rng(13), fusion=fusion)
        seq = Tensor(rng.normal(size=(2, 1 + k * p, 16)), requires_grad=True)
        # Two text rows: over one, cross-attention's softmax is constant.
        text = Tensor(rng.normal(size=(2, 2, 16)), requires_grad=True)
        self.assert_readout_is_row_0(
            block, functools.partial(block, seq, text, k, p), [seq, text])

    def test_block(self):
        rng = np.random.default_rng(14)
        block = Block(16, 2, np.random.default_rng(14))
        x = Tensor(rng.normal(size=(2, 7, 16)), requires_grad=True)
        self.assert_readout_is_row_0(block, functools.partial(block, x), [x])

    @pytest.mark.parametrize("refiner", ["gated", "plain"])
    def test_represent_runs_the_last_block_on_the_cls_row(self, refiner, monkeypatch):
        # Every block but the last maps whole sequences; the last one's MLP
        # and its row-mixing stage's queries see one row per sequence.
        cfg = RunConfig(n_frames=6, k_select=2, depth=2, dim=24, heads=2, n_grid=2,
                        refiner=refiner)
        model = VideoQAModel(cfg, Vocab(cfg.vocab_seed, cfg.dim), np.random.default_rng(0))
        shapes = {}
        for cls in (Mlp, Linear):
            original = cls.__call__

            def recorded(module, x, *args, original=original, **kwargs):
                shapes.setdefault(id(module), []).append(x.shape)
                return original(module, x, *args, **kwargs)

            monkeypatch.setattr(cls, "__call__", recorded)
        rng = np.random.default_rng(15)
        b, n, p, d = 3, 6, 4, 24
        videos = rng.normal(size=(b, n, p, d)).astype(np.float32)
        frame_cls = rng.normal(size=(b, n, d)).astype(np.float32)
        out = model.represent([FrameBundle(v_patch=v, v_cls=c) for v, c in zip(videos, frame_cls)],
                              [[2, 3, 4]] * b, [0, 1, 2])
        assert out["v_star"].shape == (b, d)
        stack = model.refiner if refiner == "gated" else model.plain
        *body, last = stack.blocks
        text = 0 if refiner == "gated" else 1 + 3   # plain: the text CLS and 3 tokens
        s = 1 + text + cfg.k_select * p
        for block in body:
            assert shapes[id(block.mlp)] == [(b, s, d)]
            assert shapes[id(block.attn.w_q)] == [(b, s, d)]
        assert shapes[id(last.mlp)] == [(b, 1, d)]
        assert shapes[id(last.attn.w_q)] == [(b, 1, d)]
        assert shapes[id(last.attn.w_k)] == [(b, s, d)]
