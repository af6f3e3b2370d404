"""Pipeline assembly, variant wiring, determinism, and checkpoints."""

import dataclasses
import io
import json
import re
import struct
import zlib

import numpy as np
import pytest

from glimpse import model as gmodel
from glimpse import nn
from glimpse import refiner as grefiner
from glimpse import sampler as gsampler
from glimpse import tensor as T
from glimpse.config import RunConfig, desk_config, loss_variant, table_variant
from glimpse.data import FrameBundle, Vocab, gen_episode
from glimpse.model import PlainFusion, VideoQAModel, load_checkpoint, save_checkpoint
from glimpse.tensor import Tensor


@pytest.fixture(scope="module")
def world():
    cfg = desk_config(seed=3)
    vocab = Vocab(cfg.vocab_seed, cfg.dim)
    episode = gen_episode(99, cfg.n_frames, cfg.n_grid, cfg.dim, vocab)
    return cfg, vocab, episode


def build(cfg, vocab):
    return VideoQAModel(cfg, vocab, np.random.default_rng(cfg.seed))


def zero_moments(model, t=3):
    return {"t": t, "moments": {name: (np.zeros_like(p.data), np.zeros_like(p.data))
                                for name, p in model.named_parameters()}}


def represent_one(model, episode, rng_seed):
    """A batch of one row: the episode's own video and question."""
    return model.represent([episode.bundle], [episode.question_tokens], [rng_seed])


class TestTextEncoder:
    def test_shapes_and_determinism(self, world):
        # One (1+M, D) sequence, the CLS row first; the token outputs are
        # its last M rows.
        cfg, vocab, episode = world
        model = build(cfg, vocab)
        m = len(episode.question_tokens)
        text = model.encode_text(episode.question_tokens)
        tokens = model.encode_text_tokens(episode.question_tokens)
        assert text.shape == (1 + m, cfg.dim) and tokens.shape == (m, cfg.dim)
        assert tokens.data.tobytes() == text.data[1:].tobytes()
        again = model.encode_text(episode.question_tokens)
        assert text.data.tobytes() == again.data.tobytes()

    def test_text_encoder_is_trainable_but_embeddings_frozen(self, world):
        cfg, vocab, episode = world
        model = build(cfg, vocab)
        T.tsum(model.encode_text(episode.question_tokens)[:1]).backward()
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
            model.encode_text([2] * 17)  # texts hold at most 16 tokens


class TestVariants:
    def test_full_model_modules(self, world):
        cfg, vocab, _ = world
        model = build(cfg, vocab)
        assert model.sampler is not None and model.refiner is not None
        assert model.plain is None

    @pytest.mark.parametrize("row,sampler,refiner,fusion", [
        ("a", "uniform", "plain", "la_gate"),
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
        rep = represent_one(model, episode, 5)
        assert rep["v_star"].shape == (1, cfg.dim)
        assert rep.keys() == {"v_star", "t_cls", "indices"}
        assert rep["t_cls"].shape == (1, 1, cfg.dim)
        assert rep["indices"].shape == (1, cfg.k_select)
        tokens = model.encode_text_tokens([episode.question_tokens])
        assert tokens.shape == (1, len(episode.question_tokens), cfg.dim)

    def test_plain_fusion_checks_patches_like_the_refiner(self, world):
        # Both fusions get their patches through represent's one check: rows
        # a and d (plain, without and with a sampler) and f (gated).
        cfg, vocab, episode = world
        plain = PlainFusion(16, 2, k_select=2, n_patches=4, depth=1,
                            rng=np.random.default_rng(0))
        assert plain(Tensor(np.zeros((2, 4, 16))), Tensor(np.zeros((3, 16)))).shape == (16,)
        for row in ("a", "d", "f"):
            model = build(table_variant(cfg, row), vocab)
            for patches in (episode.frames[:, :3], episode.frames[..., :-1]):
                bundle = FrameBundle(v_patch=patches, v_cls=episode.frame_cls)
                with pytest.raises(ValueError, match=r"expected float32 or float64 \(30, 4, 32\)"):
                    model.represent([bundle], [episode.question_tokens], [0])

    def test_loss_rows_set_weights(self, world):
        cfg, vocab, _ = world
        assert loss_variant(cfg, "a").w_vtm == 0.0
        row_e = loss_variant(cfg, "e")
        assert (row_e.w_vtm, row_e.w_cl, row_e.w_vgmlm) == (1.0, 0.0, 1.0)

    def test_uniform_uses_fixed_grid_and_none_is_refused(self, world):
        # "uniform" is the one fixed-grid sampler: no parameters, the same
        # indices for every seed; "none" is not a sampler name.
        cfg, vocab, episode = world
        model = build(table_variant(cfg, "a"), vocab)
        assert model.sampler is None
        rep1 = represent_one(model, episode, 1)
        rep2 = represent_one(model, episode, 2)
        assert (rep1["indices"] == rep2["indices"]).all()  # seed-independent
        with pytest.raises(ValueError, match=r"sampler must be one of \('sparse', 'uniform', "
                                             r"'soft'\)"):
            dataclasses.replace(cfg, sampler="none")


class TestRepresent:
    def test_deterministic_given_seed(self, world):
        cfg, vocab, episode = world
        model = build(cfg, vocab)
        a = represent_one(model, episode, 7)
        b = represent_one(model, episode, 7)
        assert (a["v_star"].data == b["v_star"].data).all()
        assert (a["indices"] == b["indices"]).all()

    def test_soft_model_is_smooth_but_indices_agree(self, world):
        # A soft model from the same seed holds the sparse model's parameters
        # and draws its noise, so only how the rows are applied differs.
        cfg, vocab, episode = world
        model = build(cfg, vocab)
        smooth = build(dataclasses.replace(cfg, sampler="soft"), vocab)
        params, same = model.state_dict(), smooth.state_dict()
        assert params.keys() == same.keys()
        assert all(params[k].tobytes() == same[k].tobytes() for k in params)
        hard = represent_one(model, episode, 7)
        soft = represent_one(smooth, episode, 7)
        assert (hard["indices"] == soft["indices"]).all()
        assert not (hard["v_star"].data == soft["v_star"].data).all()

    def test_untaped_pass_is_bit_equal(self, world):
        cfg, vocab, episode = world
        model = build(cfg, vocab)
        taped = represent_one(model, episode, 7)
        with T.no_grad():
            free = represent_one(model, episode, 7)
        assert taped["v_star"].requires_grad and not free["v_star"].requires_grad
        assert free["v_star"]._parents == () and free["v_star"]._backward is None
        for key in ("v_star", "t_cls"):
            assert free[key].data.tobytes() == taped[key].data.tobytes()
        assert (free["indices"] == taped["indices"]).all()
        tokens = model.encode_text_tokens([episode.question_tokens])
        with T.no_grad():
            free_tokens = model.encode_text_tokens([episode.question_tokens])
        assert tokens.requires_grad and not free_tokens.requires_grad
        assert free_tokens.data.tobytes() == tokens.data.tobytes()

    def test_gradient_reaches_selector_through_hard_path(self, world):
        cfg, vocab, episode = world
        model = build(cfg, vocab)
        rep = represent_one(model, episode, 7)
        T.tsum(rep["v_star"]).backward()
        assert model.sampler.w_s.w.grad is not None
        assert np.abs(model.sampler.w_s.w.grad).max() > 0


class TestCheckpoints:
    def test_round_trip_is_bit_exact(self, tmp_path, world):
        cfg, vocab, episode = world
        model = build(cfg, vocab)
        before = represent_one(model, episode, 11)
        save_checkpoint(tmp_path, model, step=17)
        loaded, step, opt_state = load_checkpoint(tmp_path)
        assert step == 17 and opt_state is None
        after = represent_one(loaded, episode, 11)
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

    def test_save_rebinds_no_parameter(self, tmp_path, world):
        # A save reads each parameter where it is, also one rebound out of the
        # model's buffer, and every tensor keeps the data object it had.
        cfg, vocab, _ = world
        model = build(cfg, vocab)
        params = model.parameters()
        params[1].data = params[1].data.copy()
        before = [p.data for p in params]
        save_checkpoint(tmp_path, model, step=1)
        assert all(p.data is data for p, data in zip(params, before))
        want = np.concatenate([data.reshape(-1) for data in before])
        assert np.load(tmp_path / "params.npy").tobytes() == want.tobytes()

    def test_load_draws_nothing_and_keeps_the_saved_bits(self, tmp_path, monkeypatch, world):
        # The model a load builds gets every weight from the dump, so building
        # it must draw none; the weights that come back are the saved ones, bit
        # for bit, also when they are far from any init.
        cfg, vocab, _ = world
        original = nn.init_normal
        for wide in (False, True):
            model = build(cfg, vocab)
            if wide:
                nn.widen_weights(model, np.random.default_rng(5))
            save_checkpoint(tmp_path, model, step=1)
            rngs = []

            def recording(rng, shape, *rest):
                rngs.append(rng)
                return original(rng, shape, *rest)

            for module in (nn, gmodel, grefiner, gsampler):
                monkeypatch.setattr(module, "init_normal", recording)
            loaded, _, _ = load_checkpoint(tmp_path)
            monkeypatch.undo()
            assert rngs and all(rng is None for rng in rngs)
            saved, back = model.state_dict(), loaded.state_dict()
            assert list(saved) == list(back)
            for name, arr in saved.items():
                assert back[name].dtype == arr.dtype and back[name].shape == arr.shape
                assert back[name].tobytes() == arr.tobytes()

    def test_interrupted_save_refuses_to_load(self, tmp_path, monkeypatch, world):
        # A save that stops partway over an older checkpoint must not leave a
        # mix of old and new parameters and moments that loads without error.
        cfg, vocab, episode = world
        older = build(cfg, vocab)
        save_checkpoint(tmp_path, older, step=1, optimizer_state=zero_moments(older))
        newer = build(cfg, vocab)
        for p in newer.parameters():
            p.data = p.data + np.float32(1.0)
        written, save = [], np.save

        def failing(path, array):
            if len(written) == 1:
                raise OSError("disk full")
            written.append(path)
            save(path, array)

        monkeypatch.setattr(gmodel.np, "save", failing)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(tmp_path, newer, step=2, optimizer_state=zero_moments(newer))
        monkeypatch.undo()
        assert written == [tmp_path / "params.npy"]
        with pytest.raises(ValueError, match="meta.json is missing"):
            load_checkpoint(tmp_path)
        save_checkpoint(tmp_path, newer, step=2)
        loaded, step, _ = load_checkpoint(tmp_path)
        assert step == 2
        assert (represent_one(loaded, episode, 4)["v_star"].data
                == represent_one(newer, episode, 4)["v_star"].data).all()

    def test_save_without_optimizer_state_drops_older_moments(self, tmp_path, world):
        # A later save without optimizer state must not load with the moments
        # an earlier save left in the same directory.
        cfg, vocab, _ = world
        model = build(cfg, vocab)
        save_checkpoint(tmp_path, model, step=3, optimizer_state=zero_moments(model))
        save_checkpoint(tmp_path, model, step=9)
        _, step, opt_state = load_checkpoint(tmp_path)
        assert step == 9 and opt_state is None

    def test_save_of_another_config_replaces_every_parameter(self, tmp_path, world):
        # A uniform-frame model has no sampler parameters: the sparse model's
        # dumps must not survive its save and make the load refuse.
        cfg, vocab, episode = world
        save_checkpoint(tmp_path, build(cfg, vocab), step=1)
        uniform = build(dataclasses.replace(cfg, sampler="uniform"), vocab)
        save_checkpoint(tmp_path, uniform, step=2)
        loaded, step, _ = load_checkpoint(tmp_path)
        assert step == 2 and loaded.cfg == uniform.cfg
        assert (represent_one(loaded, episode, 4)["v_star"].data
                == represent_one(uniform, episode, 4)["v_star"].data).all()

    def test_format_1_checkpoint_rejected(self, tmp_path, world):
        # Format 1 kept config.json and one dump per parameter under params/,
        # format 2 one "TDMP" dump of <f8 values per vector; each meta.json
        # names its format, and the load refuses it by that number.
        cfg, vocab, _ = world
        model = build(cfg, vocab)
        (tmp_path / "params").mkdir()
        (tmp_path / "config.json").write_text(json.dumps(dataclasses.asdict(cfg)))
        (tmp_path / "meta.json").write_text(json.dumps({"step": 1, "format": 1}))
        with pytest.raises(ValueError, match="checkpoint of format 1; only format 3"):
            load_checkpoint(tmp_path)
        old = tmp_path / "format2"
        old.mkdir()
        flat = nn.param_buffer(model.parameters())
        (old / "params.tdmp").write_bytes(tdmp_bytes(flat))
        (old / "moments.tdmp").write_bytes(tdmp_bytes(np.zeros(2 * flat.size)))
        (old / "meta.json").write_text(json.dumps({
            "format": 2, "config": dataclasses.asdict(cfg), "step": 1, "t": 3,
            "names": [name for name, _ in model.named_parameters()]}))
        with pytest.raises(ValueError, match="checkpoint of format 2; only format 3"):
            load_checkpoint(old)
        # A save over it leaves none of the format-2 dumps behind.
        save_checkpoint(old, model, step=2, optimizer_state=zero_moments(model))
        assert sorted(p.name for p in old.iterdir()) == ["meta.json", "moments.npy",
                                                          "params.npy"]
        loaded, step, state = load_checkpoint(old)
        assert step == 2 and state["t"] == 3
        assert (nn.param_buffer(loaded.parameters()) == flat).all()

    def test_names_or_dump_size_that_do_not_fit_rejected(self, tmp_path, world):
        cfg, vocab, _ = world
        model = build(cfg, vocab)
        save_checkpoint(tmp_path, model, step=1, optimizer_state=zero_moments(model))
        meta = json.loads((tmp_path / "meta.json").read_text())
        first = meta["names"].pop(0)
        (tmp_path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=rf"parameter mismatch: \['{first}'\]"):
            load_checkpoint(tmp_path)
        # The same names in another order name the first position that differs.
        names = [first, *meta["names"]]
        (tmp_path / "meta.json").write_text(json.dumps({**meta, "names": names[::-1]}))
        with pytest.raises(ValueError, match=re.escape(
                f"parameter mismatch: order differs at position 0: '{names[-1]}' saved, "
                f"'{first}' built")):
            load_checkpoint(tmp_path)
        # Every dump that is not exactly one float32 .npy vector of the
        # model's length, with nothing after it, is refused by name.
        flat = nn.param_buffer(model.parameters())

        def bad_dumps(vector):
            npy = npy_bytes(vector)
            return {
                "truncated": npy[:-4],
                "empty": b"",
                "a format-2 TDMP dump": tdmp_bytes(vector),
                "trailing bytes": npy + b"\0" * 4,
                "float64": npy_bytes(vector.astype(np.float64)),
                "int64": npy_bytes(vector.astype(np.int64)),
                "too short": npy_bytes(vector[:-1]),
                "too long": npy_bytes(np.append(vector, np.float32(0))),
            }

        for name, vector in (("params.npy", flat),
                             ("moments.npy", np.zeros(2 * flat.size, np.float32))):
            for case, blob in bad_dumps(vector).items():
                save_checkpoint(tmp_path, model, step=1, optimizer_state=zero_moments(model))
                (tmp_path / name).write_bytes(blob)
                with pytest.raises(ValueError, match=name) as err:
                    load_checkpoint(tmp_path)
                assert "checksum" not in str(err.value), (name, case)

    def test_dump_changed_after_the_save_refuses_to_load(self, tmp_path, world):
        # A dump whose bytes change after a finished save, at the same size,
        # refuses to load: here one value's exponent byte is flipped.
        cfg, vocab, _ = world
        model = build(cfg, vocab)
        for name in ("params.npy", "moments.npy"):
            save_checkpoint(tmp_path, model, step=1, optimizer_state=zero_moments(model))
            blob = bytearray((tmp_path / name).read_bytes())
            blob[-5] ^= 0x01
            (tmp_path / name).write_bytes(bytes(blob))
            with pytest.raises(ValueError, match=rf"{name} does not match its checksum"):
                load_checkpoint(tmp_path)

    def test_non_finite_value_refuses_to_load_naming_its_parameter(self, tmp_path, world):
        # A dump whose checksum matches but which holds a NaN or an infinity
        # is refused, naming the first parameter that holds one; a moment is
        # named by its parameter.
        cfg, vocab, _ = world
        model = build(cfg, vocab)
        names = [name for name, _ in model.named_parameters()]
        starts = np.cumsum([0] + [p.size for _, p in model.named_parameters()])
        second = starts[-1]   # where the second moments start
        head = names.index("answer_head.fc2.w")
        for dump, writes, named in (
                ("params", [(starts[head], np.nan)], head),
                ("params", [(starts[2] - 1, np.inf), (starts[-1] - 1, np.nan)], 1),
                ("moments", [(second + starts[3] + 2, -np.inf)], 3)):
            save_checkpoint(tmp_path, model, step=1, optimizer_state=zero_moments(model))
            vector = np.load(tmp_path / f"{dump}.npy")
            for at, value in writes:
                vector[at] = value
            np.save(tmp_path / f"{dump}.npy", vector)
            meta = json.loads((tmp_path / "meta.json").read_text())
            meta[f"{dump}_crc32"] = zlib.crc32(vector)
            (tmp_path / "meta.json").write_text(json.dumps(meta))
            with pytest.raises(ValueError) as err:
                load_checkpoint(tmp_path)
            assert str(err.value) == (f"{tmp_path / dump}.npy holds a non-finite value in "
                                      f"parameter {names[named]}")

    def test_meta_without_a_required_key_rejected(self, tmp_path, world):
        # A meta.json of the current format that lacks a field refuses to load
        # and names the field; one that is not a JSON object has no format.
        cfg, vocab, _ = world
        model = build(cfg, vocab)
        save_checkpoint(tmp_path, model, step=1, optimizer_state=zero_moments(model))
        full = json.loads((tmp_path / "meta.json").read_text())
        for key in ("config", "step", "names", "params_crc32", "moments_crc32"):
            meta = {k: v for k, v in full.items() if k != key}
            (tmp_path / "meta.json").write_text(json.dumps(meta))
            with pytest.raises(ValueError, match=rf"meta.json lacks \['{key}'\]"):
                load_checkpoint(tmp_path)
        (tmp_path / "meta.json").write_text(json.dumps({"format": gmodel.CHECKPOINT_FORMAT}))
        with pytest.raises(ValueError,
                           match=r"lacks \['config', 'step', 'names', 'params_crc32'\]"):
            load_checkpoint(tmp_path)
        (tmp_path / "meta.json").write_text("[]")
        with pytest.raises(ValueError, match="checkpoint of format None"):
            load_checkpoint(tmp_path)

    def test_meta_field_of_the_wrong_type_rejected_before_the_model_is_built(
            self, tmp_path, monkeypatch, world):
        # A count that is a string, a fraction, a bool or negative, a step past
        # the config's steps, and names or a config of another JSON type each
        # refuse to load, naming the field, before any model is built; a
        # format that is not the int 3 is shown as written.
        cfg, vocab, _ = world
        model = build(cfg, vocab)
        save_checkpoint(tmp_path, model, step=cfg.steps, optimizer_state=zero_moments(model))
        full = json.loads((tmp_path / "meta.json").read_text())
        monkeypatch.setattr(gmodel, "VideoQAModel", None)   # a build raises TypeError
        past = cfg.steps + 1
        for key, value, message in (
                ("step", "2", 'step must be a non-negative integer, not "2"'),
                ("step", -1, "step must be a non-negative integer, not -1"),
                ("step", past, f"step {past} exceeds the config's steps {cfg.steps}"),
                ("t", "2", 't must be a non-negative integer, not "2"'),
                ("t", 2.5, "t must be a non-negative integer, not 2.5"),
                ("t", True, "t must be a non-negative integer, not true"),
                ("params_crc32", -1, "params_crc32 must be a non-negative integer, not -1"),
                ("moments_crc32", 1.0, "moments_crc32 must be a non-negative integer, not 1.0"),
                ("names", 5, "names must be a list of strings, not 5"),
                ("names", ["a", 5], 'names must be a list of strings, not ["a", 5]'),
                ("config", 5, "config must be a JSON object, not int"),
                ("config", None, "config must be a JSON object, not NoneType"),
                ("format", "3", "checkpoint of format '3'; only format 3"),
                ("format", 3.0, "checkpoint of format 3.0; only format 3")):
            (tmp_path / "meta.json").write_text(json.dumps({**full, key: value}))
            with pytest.raises(ValueError, match=re.escape(message)):
                load_checkpoint(tmp_path)
        monkeypatch.undo()
        (tmp_path / "meta.json").write_text(json.dumps(full))
        assert load_checkpoint(tmp_path)[1] == cfg.steps

    def test_dumps_are_plain_float32_npy_with_their_checksums(self, tmp_path, world):
        # The on-disk contract: numpy alone reads each dump as one float32
        # vector; the parameters are the model's buffer, the moments every
        # first moment and then every second; meta.json holds the crc32 of
        # each dump's values.  Nothing else is written.
        cfg, vocab, _ = world
        model = build(cfg, vocab)
        rng = np.random.default_rng(4)
        moments = {name: (rng.normal(size=p.shape).astype(np.float32),
                          rng.random(p.shape).astype(np.float32))
                   for name, p in model.named_parameters()}
        save_checkpoint(tmp_path, model, step=2, optimizer_state={"t": 2, "moments": moments})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["meta.json", "moments.npy",
                                                               "params.npy"]
        params, stacked = np.load(tmp_path / "params.npy"), np.load(tmp_path / "moments.npy")
        assert params.dtype == stacked.dtype == np.float32
        assert params.ndim == stacked.ndim == 1
        assert params.tobytes() == nn.param_buffer(model.parameters()).tobytes()
        pairs = list(moments.values())
        want = np.concatenate([m.ravel() for m, _ in pairs] + [v.ravel() for _, v in pairs])
        assert stacked.tobytes() == want.tobytes()
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["params_crc32"] == zlib.crc32(params.tobytes())
        assert meta["moments_crc32"] == zlib.crc32(stacked.tobytes())


def npy_bytes(array) -> bytes:
    """``array`` as numpy writes it to a .npy file."""
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


def tdmp_bytes(array) -> bytes:
    """A flat vector in format 2's dump: b"TDMP", u32 rank, u64 dims, <f8 values."""
    return (b"TDMP" + struct.pack("<IQ", 1, array.size)
            + np.asarray(array, "<f8").tobytes())


class TestSizes:
    # The desk config, and the benchmark's bench geometry (perfbench/spec.py).
    @pytest.mark.parametrize("geometry", [{}, dict(dim=256, n_grid=7, k_select=16,
                                                   n_frames=100, heads=8, depth=2)])
    def test_parameter_count_is_the_built_models(self, geometry):
        base = desk_config(**geometry)
        vocab = Vocab(base.vocab_seed, base.dim)
        for row in "abcdef":
            cfg = table_variant(base, row)
            model = VideoQAModel(cfg, vocab, None)   # zeros: nothing drawn
            assert gmodel.parameter_count(cfg) == sum(p.size for p in model.parameters()), row

    def test_reference_geometry_is_admitted_and_a_deep_stack_refused(self):
        gmodel.check_memory(RunConfig())
        deep = dataclasses.replace(RunConfig(), depth=10 ** 8)
        count = gmodel.parameter_count(deep)
        with pytest.raises(ValueError, match=f"^the config has {count:,} parameters; "):
            gmodel.check_memory(deep)


# Each refusal a config can give, with a value (over the desk config) that gives it.
REFUSALS = [
    ({"dim": "32"}, "dim must be of type int, not str ('32')"),
    ({"lr": True}, "lr must be of type float, not bool (True)"),
    *(({name: float("nan")}, f"{name} must be finite")
      for name in ("lr", "weight_decay", "w_vtm", "w_cl", "w_vgmlm", "w_qa", "tau", "tau_g")),
    *(({name: 0}, f"{name} must be >= 1")
      for name in ("dim", "heads", "k_select", "depth", "batch_size", "n_grid")),
    *(({name: -1}, f"{name} must be >= 0")
      for name in ("steps", "lr", "weight_decay", "w_vtm", "w_cl", "w_vgmlm", "w_qa", "seed",
                   "vocab_seed")),
    ({"mask_rate": 1.5}, "mask_rate must be in [0, 1]"),
    ({"exchange_prob": -0.1}, "exchange_prob must be in [0, 1]"),
    ({"dim": 30, "heads": 4}, "dim must be divisible by heads"),
    ({"k_select": 31}, "k_select must not exceed n_frames"),
    ({"tau": 0.0}, "temperatures must be positive"),
    ({"tau_g": -1.0}, "temperatures must be positive"),
    ({"sampler": "random"}, "sampler must be one of ('sparse', 'uniform', 'soft')"),
    ({"fusion": "concat"}, "fusion must be one of ('la_gate', 'cross_attention')"),
    ({"refiner": "none"}, "refiner must be one of ('gated', 'plain')"),
    ({"warmup": 1.0}, "warmup fraction must be in [0, 1)"),
]


class TestConfig:
    @pytest.mark.parametrize("overrides, message", REFUSALS)
    def test_every_way_to_make_a_config_refuses_a_bad_value(self, overrides, message):
        desk = dataclasses.asdict(desk_config())
        makers = (lambda: RunConfig(**{**desk, **overrides}),
                  lambda: RunConfig.from_dict({**desk, **overrides}),
                  lambda: desk_config(**overrides),
                  lambda: dataclasses.replace(desk_config(), **overrides))
        for make in makers:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                make()

    def test_config_cannot_be_changed(self):
        cfg = desk_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.dim = 64
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.sampler = "none"
        assert cfg == desk_config()

    def test_json_round_trip(self, tmp_path):
        cfg = desk_config(seed=9, lr=1e-3)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dataclasses.asdict(cfg)))
        assert RunConfig.from_file(path) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            RunConfig.from_dict({"dims": 32})

    def test_removed_n_max_key_rejected(self):
        # Config files written while the temporal-table capacity was an option
        # carry "n_max"; they must fail loudly rather than load silently.
        with pytest.raises(ValueError, match=r"unknown config keys: \['n_max'\]"):
            RunConfig.from_dict({**dataclasses.asdict(desk_config()), "n_max": 0})

    def test_field_of_the_wrong_type_rejected_by_name(self):
        # A JSON string, a fractional count or a bool would otherwise pass
        # validation and fail far from the config, or not at all.
        base = dataclasses.asdict(desk_config())
        for key, value in (("dim", "32"), ("steps", 2.5), ("batch_size", True),
                           ("lr", False), ("lr", "1e-3"), ("sampler", 1), ("seed", None)):
            with pytest.raises(ValueError, match=rf"^{key} must be of type "):
                RunConfig.from_dict({**base, key: value})
        # Integers fill float fields, and numpy scalars count as their kind.
        cfg = RunConfig.from_dict({**base, "lr": 1, "steps": np.int64(3), "tau": np.float32(0.5)})
        assert (cfg.lr, cfg.steps) == (1, 3)

    def test_removed_size_keys_rejected(self):
        # The MLP width, the answer-head width and the text length are fixed;
        # config files that still carry their old knobs must fail loudly, and
        # name the key, rather than load silently.
        for key in ("mlp_ratio", "answer_hidden", "text_max_len"):
            with pytest.raises(ValueError, match=rf"^unknown config keys: \['{key}'\]$"):
                RunConfig.from_dict({**dataclasses.asdict(desk_config()), key: 4})
