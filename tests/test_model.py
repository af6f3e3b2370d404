"""Pipeline assembly, variant wiring, determinism, and checkpoints."""

import dataclasses

import numpy as np
import pytest

from glimpse import tensor as T
from glimpse.config import RunConfig, desk_config, loss_variant, table_variant
from glimpse.data import Vocab, gen_episode
from glimpse.model import VideoQAModel, load_checkpoint, save_checkpoint
from glimpse.tensor import Tensor


@pytest.fixture(scope="module")
def world():
    cfg = desk_config(seed=3)
    vocab = Vocab(cfg.vocab_seed, cfg.dim)
    episode = gen_episode(99, cfg.n_frames, cfg.n_grid, cfg.dim, vocab)
    return cfg, vocab, episode


def build(cfg, vocab):
    return VideoQAModel(cfg, vocab, np.random.default_rng(cfg.seed))


class TestTextEncoder:
    def test_shapes_and_determinism(self, world):
        cfg, vocab, episode = world
        model = build(cfg, vocab)
        t_cls, tokens = model.encode_text(episode.question_tokens)
        assert t_cls.shape == (1, cfg.dim)
        assert tokens.shape == (len(episode.question_tokens), cfg.dim)
        t_cls2, _ = model.encode_text(episode.question_tokens)
        assert (t_cls.data == t_cls2.data).all()

    def test_text_encoder_is_trainable_but_embeddings_frozen(self, world):
        cfg, vocab, episode = world
        model = build(cfg, vocab)
        t_cls, _ = model.encode_text(episode.question_tokens)
        T.tsum(t_cls).backward()
        assert model.text_encoder.pos.grad is not None
        assert model.text_encoder.embed.requires_grad is False
        names = dict(model.named_parameters())
        assert "text_encoder.embed" not in names

    def test_empty_and_overlong_text_rejected(self, world):
        cfg, vocab, _ = world
        model = build(cfg, vocab)
        with pytest.raises(ValueError, match="empty text"):
            model.encode_text([])
        with pytest.raises(ValueError, match="exceeds"):
            model.encode_text([2] * (cfg.text_max_len + 1))


class TestVariants:
    def test_full_model_modules(self, world):
        cfg, vocab, _ = world
        model = build(cfg, vocab)
        assert model.sampler is not None and model.refiner is not None
        assert model.plain is None

    @pytest.mark.parametrize("row,sampler,refiner,fusion", [
        ("a", "none", "plain", "la_gate"),
        ("b", "uniform", "gated", "la_gate"),
        ("c", "soft", "gated", "la_gate"),
        ("d", "sparse", "plain", "la_gate"),
        ("e", "sparse", "gated", "cross_attention"),
        ("f", "sparse", "gated", "la_gate"),
    ])
    def test_module_rows_wire_correctly(self, world, row, sampler, refiner, fusion):
        cfg, vocab, episode = world
        variant = table_variant(cfg, row)
        assert (variant.sampler, variant.refiner, variant.fusion) == (sampler, refiner, fusion)
        model = build(variant, vocab)
        rep = model.represent(episode.bundle, episode.question_tokens, rng_seed=5)
        assert rep["v_star"].shape == (cfg.dim,)
        assert len(rep["indices"]) == cfg.k_select

    def test_loss_rows_set_weights(self, world):
        cfg, vocab, _ = world
        assert loss_variant(cfg, "a").w_vtm == 0.0
        row_e = loss_variant(cfg, "e")
        assert (row_e.w_vtm, row_e.w_cl, row_e.w_vgmlm) == (1.0, 0.0, 1.0)

    def test_uniform_and_none_use_fixed_grid(self, world):
        cfg, vocab, episode = world
        for sampler in ("uniform", "none"):
            model = build(table_variant(cfg, "a").replace(sampler=sampler), vocab)
            rep1 = model.represent(episode.bundle, episode.question_tokens, rng_seed=1)
            rep2 = model.represent(episode.bundle, episode.question_tokens, rng_seed=2)
            assert (rep1["indices"] == rep2["indices"]).all()  # seed-independent


class TestRepresent:
    def test_deterministic_given_seed(self, world):
        cfg, vocab, episode = world
        model = build(cfg, vocab)
        a = model.represent(episode.bundle, episode.question_tokens, rng_seed=7)
        b = model.represent(episode.bundle, episode.question_tokens, rng_seed=7)
        assert (a["v_star"].data == b["v_star"].data).all()
        assert (a["indices"] == b["indices"]).all()

    def test_surrogate_branch_is_smooth_but_indices_agree(self, world):
        cfg, vocab, episode = world
        model = build(cfg, vocab)
        hard = model.represent(episode.bundle, episode.question_tokens, rng_seed=7)
        soft = model.represent(episode.bundle, episode.question_tokens, rng_seed=7,
                               surrogate=True)
        assert (hard["indices"] == soft["indices"]).all()
        assert not (hard["v_star"].data == soft["v_star"].data).all()

    def test_untaped_pass_is_bit_equal(self, world):
        cfg, vocab, episode = world
        model = build(cfg, vocab)
        taped = model.represent(episode.bundle, episode.question_tokens, rng_seed=7)
        with T.no_grad():
            free = model.represent(episode.bundle, episode.question_tokens, rng_seed=7)
        assert taped["v_star"].requires_grad and not free["v_star"].requires_grad
        assert free["v_star"]._parents == () and free["v_star"]._backward is None
        for key in ("v_star", "t_cls", "t_tokens"):
            assert free[key].data.tobytes() == taped[key].data.tobytes()
        assert (free["indices"] == taped["indices"]).all()

    def test_gradient_reaches_selector_through_hard_path(self, world):
        cfg, vocab, episode = world
        model = build(cfg, vocab)
        rep = model.represent(episode.bundle, episode.question_tokens, rng_seed=7)
        T.tsum(rep["v_star"]).backward()
        assert model.sampler.w_s.w.grad is not None
        assert np.abs(model.sampler.w_s.w.grad).max() > 0

    def test_init_std_redraw_is_deterministic(self, world):
        cfg, vocab, _ = world
        wide = cfg.replace(init_std=0.1)
        m1, m2 = build(wide, vocab), build(wide, vocab)
        for (n1, p1), (n2, p2) in zip(m1.named_parameters(), m2.named_parameters()):
            assert n1 == n2
            assert (p1.data == p2.data).all()


class TestCheckpoints:
    def test_round_trip_is_bit_exact(self, tmp_path, world):
        cfg, vocab, episode = world
        model = build(cfg, vocab)
        before = model.represent(episode.bundle, episode.question_tokens, rng_seed=11)
        save_checkpoint(tmp_path, model, step=17)
        loaded, step, opt_state = load_checkpoint(tmp_path)
        assert step == 17 and opt_state is None
        after = loaded.represent(episode.bundle, episode.question_tokens, rng_seed=11)
        assert (before["v_star"].data == after["v_star"].data).all()
        assert (before["indices"] == after["indices"]).all()

    def test_optimizer_state_round_trip(self, tmp_path, world):
        cfg, vocab, _ = world
        model = build(cfg, vocab)
        moments = {name: (np.full_like(p.data, 0.25), np.full_like(p.data, 0.5))
                   for name, p in model.named_parameters()}
        save_checkpoint(tmp_path, model, step=3,
                        optimizer_state={"t": 3, "moments": moments})
        _, _, opt_state = load_checkpoint(tmp_path)
        assert opt_state["t"] == 3
        name = next(iter(moments))
        assert (opt_state["moments"][name][0] == moments[name][0]).all()
        assert (opt_state["moments"][name][1] == moments[name][1]).all()

    def test_mismatched_state_rejected(self, tmp_path, world):
        cfg, vocab, _ = world
        model = build(cfg, vocab)
        state = model.state_dict()
        state.pop(next(iter(state)))
        with pytest.raises(ValueError, match="mismatch"):
            model.load_state_dict(state)


class TestConfig:
    def test_validation_catches_bad_values(self):
        with pytest.raises(ValueError):
            RunConfig(dim=30, heads=4).validate()
        with pytest.raises(ValueError):
            RunConfig(k_select=200, n_frames=100).validate()
        with pytest.raises(ValueError):
            RunConfig(sampler="random").validate()

    def test_json_round_trip(self, tmp_path):
        cfg = desk_config(seed=9, lr=1e-3)
        path = tmp_path / "cfg.json"
        path.write_text(cfg.to_json())
        assert RunConfig.from_file(path) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            RunConfig.from_dict({"dims": 32})

    def test_removed_n_max_key_rejected(self):
        # Config files written while the temporal-table capacity was an option
        # carry "n_max"; they must fail loudly rather than load silently.
        with pytest.raises(ValueError, match=r"unknown config keys: \['n_max'\]"):
            RunConfig.from_dict({**dataclasses.asdict(desk_config()), "n_max": 0})
