"""Synthetic world: determinism, signal strength, and the ground-truth oracles
that make the end-to-end targets meaningful."""

import json
import re

import numpy as np
import pytest

from glimpse import data
from glimpse.config import RunConfig, desk_config
from glimpse.data import (
    KINDS,
    NUM_VALUES,
    VALUE_WORDS,
    WINDOWS,
    Episode,
    Vocab,
    blind_input,
    episode_seeds,
    gen_episode,
    load_dataset,
    save_dataset,
    window_bounds,
)

DIM = 32
N_FRAMES = 30
N_GRID = 2


@pytest.fixture(scope="module")
def vocab():
    return Vocab(seed=7, dim=DIM)


def episodes(vocab, count, base_seed=0):
    return [gen_episode(base_seed ^ i, N_FRAMES, N_GRID, DIM, vocab) for i in range(count)]


class TestVocab:
    def test_size_and_round_trip(self, vocab):
        assert 30 <= len(vocab) <= 45
        words = ["what", "color", "at", "late", "with", "ball", "top", "?"]
        assert [vocab.words[i] for i in vocab.encode(words)] == words

    def test_frozen_tables_reproducible(self):
        a, b = Vocab(seed=3, dim=DIM), Vocab(seed=3, dim=DIM)
        assert (a.embeddings == b.embeddings).all()
        assert (a.directions == b.directions).all()
        assert (a.frame_projection == b.frame_projection).all()

    def test_attribute_directions_orthonormal(self, vocab):
        flat = vocab.directions.reshape(-1, DIM)
        gram = flat @ flat.T
        np.testing.assert_allclose(gram, np.eye(len(flat)), atol=1e-12)

    def test_frame_projection_is_a_rotation(self, vocab):
        p = vocab.frame_projection
        np.testing.assert_allclose(p @ p.T, np.eye(DIM), atol=1e-12)

    def test_small_dim_rejected(self):
        with pytest.raises(ValueError, match="orthonormal"):
            Vocab(seed=0, dim=16)


class TestGenEpisode:
    def test_same_seed_identical(self, vocab):
        a = gen_episode(42, N_FRAMES, N_GRID, DIM, vocab)
        b = gen_episode(42, N_FRAMES, N_GRID, DIM, vocab)
        assert (a.frames == b.frames).all()
        assert a.question_tokens == b.question_tokens
        assert (a.answer, a.event_frame, a.event_attr) == (b.answer, b.event_frame, b.event_attr)

    def test_window_edges_at_the_reference_length(self):
        # Thirds of N = 100 frames round down at both inner edges.
        assert [window_bounds(w, 100) for w in range(3)] == [(0, 33), (33, 66), (66, 100)]

    def test_event_frame_inside_named_window(self, vocab):
        for ep in episodes(vocab, 300):
            lo, hi = window_bounds(ep.window, N_FRAMES)
            assert lo <= ep.event_frame < hi
            words = [vocab.words[i] for i in ep.question_tokens]
            assert (words[1], words[3]) == (KINDS[ep.question_kind], WINDOWS[ep.window])

    def test_answer_is_queried_attribute(self, vocab):
        for ep in episodes(vocab, 100):
            assert ep.answer == ep.event_attr[ep.question_kind]

    def test_answer_token_never_in_question(self, vocab):
        for ep in episodes(vocab, 300):
            answer_word = VALUE_WORDS[KINDS[ep.question_kind]][ep.answer]
            assert answer_word not in [vocab.words[i] for i in ep.question_tokens]

    def test_question_names_other_two_attributes(self, vocab):
        ep = episodes(vocab, 1)[0]
        words = [vocab.words[i] for i in ep.question_tokens]
        others = [k for k in range(3) if k != ep.question_kind]
        for k in others:
            assert VALUE_WORDS[KINDS[k]][ep.event_attr[k]] in words

    def test_event_signal_at_least_two_sigma(self, vocab):
        # The event patch projects onto its own attribute direction with mean
        # shift EVENT_MAGNITUDE over unit background noise.
        margins = []
        for ep in episodes(vocab, 1000, base_seed=10_000):
            enc_dir = vocab.directions[ep.question_kind, ep.answer] @ vocab.frame_projection
            margins.append(ep.frames[ep.event_frame] @ enc_dir)
        margins = np.concatenate(margins)
        assert margins.mean() > 2.0


class TestVisionOracles:
    def test_sufficiency_oracle_at_least_99(self, vocab):
        # Matched filter on the true event frame: project the mean event patch
        # onto the queried kind's encoded directions and take the argmax.
        hits = 0
        eps = episodes(vocab, 1000, base_seed=20_000)
        for ep in eps:
            enc_dirs = vocab.directions[ep.question_kind] @ vocab.frame_projection
            scores = ep.frames[ep.event_frame].mean(axis=0) @ enc_dirs.T
            hits += int(np.argmax(scores) == ep.answer)
        assert hits / len(eps) >= 0.99

    def test_text_only_classifier_stays_at_chance(self, vocab):
        # The Bayes-optimal text-only classifier on this task is a per-question
        # majority vote (questions take finitely many values), which dominates
        # any model of question_cls.  Held-out accuracy must sit at chance.
        train = episodes(vocab, 10_000, base_seed=30_000)
        test = episodes(vocab, 2_000, base_seed=40_000)
        table: dict[tuple, np.ndarray] = {}
        for ep in train:
            counts = table.setdefault(tuple(ep.question_tokens), np.zeros(NUM_VALUES))
            counts[ep.answer] += 1
        prior = np.zeros(NUM_VALUES)
        for ep in train:
            prior[ep.answer] += 1
        hits = 0
        for ep in test:
            counts = table.get(tuple(ep.question_tokens), prior)
            hits += int(np.argmax(counts) == ep.answer)
        chance = 1.0 / NUM_VALUES
        assert hits / len(test) < chance + 0.05


class TestStubEncoder:
    """The frozen encoder stand-in inside episode generation."""

    def test_identical_inputs_identical_embeddings(self, vocab):
        a, b = (data._draw_frames(np.random.default_rng(0), (5, 4, DIM), vocab.frame_projection)
                for _ in range(2))
        assert (a.v_patch == b.v_patch).all()
        assert (a.v_cls == b.v_cls).all()

    def test_cls_is_projected_patch_mean(self, vocab):
        raw = np.random.default_rng(1).standard_normal((3, 4, DIM))
        bundle = data._draw_frames(np.random.default_rng(1), (3, 4, DIM), vocab.frame_projection)
        # float32 results against the float64 reference
        np.testing.assert_allclose(bundle.v_patch, raw @ vocab.frame_projection, atol=1e-6)
        np.testing.assert_allclose(
            bundle.v_cls, raw.mean(axis=1) @ vocab.frame_projection, atol=1e-6
        )

    def test_frozen_outputs_are_plain_arrays(self, vocab):
        # The encoder is outside the trainable graph by construction: it deals
        # in numpy arrays, so no gradient can ever reach the projection.
        ep = gen_episode(0, N_FRAMES, N_GRID, DIM, vocab)
        assert isinstance(ep.frames, np.ndarray)
        assert isinstance(ep.frame_cls, np.ndarray)

    def test_wrong_shape_rejected(self, vocab):
        with pytest.raises(ValueError, match="vocab dimension mismatch"):
            gen_episode(0, N_FRAMES, N_GRID, DIM + 1, vocab)


class TestBlindInput:
    def test_static_mode_freezes_frame_zero(self, vocab):
        ep = episodes(vocab, 1)[0]
        blind = blind_input(ep, "static")
        assert blind.v_patch.shape == ep.frames.shape
        assert (blind.v_patch == ep.frames[0]).all()
        assert (blind.v_cls == ep.frame_cls[0]).all()

    def test_gaussian_mode_reproducible(self, vocab):
        ep = episodes(vocab, 1)[0]
        a = blind_input(ep, "gaussian")
        b = blind_input(ep, "gaussian")
        assert (a.v_patch == b.v_patch).all() and (a.v_cls == b.v_cls).all()
        assert not np.allclose(a.v_patch, ep.frames)

    def test_unknown_mode_rejected(self, vocab):
        with pytest.raises(ValueError, match="unknown blind mode"):
            blind_input(episodes(vocab, 1)[0], "sepia")


class TestDatasetIO:
    def test_index_schema_and_reload(self, tmp_path):
        save_dataset(tmp_path, base_seed=5, count=4, n_frames=N_FRAMES,
                     n_grid=N_GRID, dim=DIM, vocab_seed=7)
        index = json.loads((tmp_path / "index.json").read_text())
        assert {"episode_id", "seed", "answer", "event_frame"} == set(index["episodes"][0])
        assert sorted(tmp_path.iterdir()) == [tmp_path / "index.json"]
        meta, vocab, eps = load_dataset(tmp_path)
        assert len(eps) == 4
        for entry, ep in zip(index["episodes"], eps):
            assert entry["answer"] == ep.answer
            assert entry["event_frame"] == ep.event_frame
        # An index written when gen-data still dumped every episode loads too.
        index["meta"]["materialized"] = True
        (tmp_path / "index.json").write_text(json.dumps(index))
        assert len(load_dataset(tmp_path)[2]) == 4

    def test_loaded_episodes_equal_generation(self, tmp_path):
        save_dataset(tmp_path, base_seed=11, count=3, n_frames=N_FRAMES,
                     n_grid=N_GRID, dim=DIM, vocab_seed=7)
        _, vocab, eps = load_dataset(tmp_path)
        for i, seed in enumerate(episode_seeds(11, 3)):
            want, got = gen_episode(seed, N_FRAMES, N_GRID, DIM, vocab), eps[i]
            assert got.seed == seed
            for name in ("frames", "frame_cls", "question_cls"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
            assert got.question_tokens == want.question_tokens
            assert ((got.answer, got.event_frame, got.event_attr, got.question_kind, got.window)
                    == (want.answer, want.event_frame, want.event_attr, want.question_kind,
                        want.window))

    def test_stale_index_entry_raises(self, tmp_path, monkeypatch):
        # An index whose recorded answer no longer matches its seed must stop
        # the load, not warn and carry on, and the header replay finds it
        # before any frame is generated.
        save_dataset(tmp_path, base_seed=5, count=3, n_frames=N_FRAMES,
                     n_grid=N_GRID, dim=DIM, vocab_seed=7)
        path = tmp_path / "index.json"
        index = json.loads(path.read_text())
        index["episodes"][2]["answer"] = (index["episodes"][2]["answer"] + 1) % NUM_VALUES
        path.write_text(json.dumps(index))
        _forbid_frames(monkeypatch)
        with pytest.raises(ValueError, match="episode 2 regenerated differently"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("break_index, message", [
        (lambda index: index.pop("meta"), r"dataset index lacks \['meta'\]"),
        (lambda index: index["meta"].pop("vocab_seed"), r"dataset meta lacks \['vocab_seed'\]"),
        (lambda index: index["episodes"][1].pop("seed"),
         r"dataset episode entry 1 lacks \['seed'\]"),
        (lambda index: index.clear(), r"dataset index lacks \['meta', 'episodes'\]"),
    ])
    def test_index_missing_a_key_raises_naming_it(self, break_index, message, tmp_path,
                                                  monkeypatch):
        save_dataset(tmp_path, base_seed=5, count=3, n_frames=N_FRAMES,
                     n_grid=N_GRID, dim=DIM, vocab_seed=7)
        path = tmp_path / "index.json"
        index = json.loads(path.read_text())
        break_index(index)
        path.write_text(json.dumps(index))
        calls = _forbid_frames(monkeypatch)
        with pytest.raises(ValueError, match=message):
            load_dataset(tmp_path)
        assert calls == []

    @pytest.mark.parametrize("part, key, value", [
        ("entry", "seed", "12"),
        ("entry", "seed", 3.0),
        ("entry", "seed", True),      # JSON true is not read as 1
        ("entry", "seed", -4),
        ("entry", "episode_id", "2"),
        ("meta", "n_frames", "30"),
        ("meta", "n_grid", 2.0),
        ("meta", "dim", False),
        ("meta", "vocab_seed", -7),
    ])
    def test_index_value_that_is_not_a_count_raises_naming_it(self, part, key, value,
                                                              tmp_path, monkeypatch):
        # Refused before any header is replayed, naming the key and the entry,
        # where numpy's seeding or a comparison would raise a TypeError, read
        # a bool as 1, or name no entry.
        save_dataset(tmp_path, base_seed=5, count=3, n_frames=N_FRAMES,
                     n_grid=N_GRID, dim=DIM, vocab_seed=7)
        path = tmp_path / "index.json"
        index = json.loads(path.read_text())
        (index["meta"] if part == "meta" else index["episodes"][2])[key] = value
        path.write_text(json.dumps(index))
        replays = []
        monkeypatch.setattr(data, "_draw_header", lambda *a: replays.append(a))
        where = "dataset meta" if part == "meta" else "dataset episode entry 2"
        with pytest.raises(ValueError, match=f"^{where}: {key} must be a non-negative "
                                             f"integer, not {re.escape(json.dumps(value))}$"):
            load_dataset(tmp_path)
        assert replays == []

    def test_index_that_is_a_list_raises(self, tmp_path):
        (tmp_path / "index.json").write_text(json.dumps([{"meta": {}}]))
        with pytest.raises(ValueError, match="dataset index must be a JSON object, not list"):
            load_dataset(tmp_path)

    def test_reference_size_index_loads_without_frames(self, tmp_path, monkeypatch):
        # 3,000 episodes at the reference geometry would be 240 GB of float32
        # frames: writing and loading the index must generate none of them.
        cfg = RunConfig()
        calls = _forbid_frames(monkeypatch)
        save_dataset(tmp_path, base_seed=1, count=3000, n_frames=cfg.n_frames,
                     n_grid=cfg.n_grid, dim=cfg.dim, vocab_seed=cfg.vocab_seed)
        meta, vocab, eps = load_dataset(tmp_path)
        assert len(eps) == 3000 and vocab.dim == cfg.dim and meta["count"] == 3000
        assert calls == []

    def test_cache_stays_within_budget_and_regenerates_bit_identically(self, tmp_path,
                                                                        monkeypatch):
        save_dataset(tmp_path, base_seed=9, count=6, n_frames=N_FRAMES,
                     n_grid=N_GRID, dim=DIM, vocab_seed=7)
        _, vocab, eps = load_dataset(tmp_path)
        size = eps[0].frames.nbytes + eps[0].frame_cls.nbytes
        monkeypatch.setattr(data, "EPISODE_CACHE_BYTES", 2 * size + size // 2)
        first = [eps[i].frames.tobytes() for i in range(6)]
        calls = []
        real = data.gen_episode
        monkeypatch.setattr(data, "gen_episode", lambda *a: calls.append(a[0]) or real(*a))
        resident = sum(ep.frames.nbytes + ep.frame_cls.nbytes for ep in eps._cache.values())
        assert len(eps._cache) == 2 and resident <= data.EPISODE_CACHE_BYTES
        assert eps[5].frames.tobytes() == first[5] and calls == []  # still cached
        assert eps[0].frames.tobytes() == first[0] and calls == [eps.seeds[0]]  # evicted
        assert list(eps._cache) == [5, 0]

    def test_slices_are_lists_of_the_episodes_they_select(self, tmp_path):
        save_dataset(tmp_path, base_seed=3, count=5, n_frames=N_FRAMES,
                     n_grid=N_GRID, dim=DIM, vocab_seed=7)
        _, _, eps = load_dataset(tmp_path)
        for key, picks in ((slice(1, 3), [1, 2]), (slice(-1, 0, -2), [4, 2]),
                           (slice(None, None, -1), [4, 3, 2, 1, 0]), (slice(-2, 9), [3, 4]),
                           (slice(3, 1), [])):
            got = eps[key]
            assert isinstance(got, list) and len(got) == len(picks), key
            for ep, i in zip(got, picks):
                assert ep.seed == eps.seeds[i] and ep.frames.tobytes() == eps[i].frames.tobytes()


def _forbid_frames(monkeypatch) -> list:
    """Record every frame draw and fail it; returns the record."""
    calls = []

    def forbidden(rng, shape, *rest):
        calls.append(shape)
        raise AssertionError("frames were generated")

    monkeypatch.setattr(data, "_draw_frames", forbidden)
    return calls


class TestComputeDtype:
    def test_frames_are_the_float64_draw_rounded_once(self, vocab):
        # Reference: the whole video drawn and encoded in float64 at once.
        ep = gen_episode(42, N_FRAMES, N_GRID, DIM, vocab)
        rng = np.random.default_rng(42)
        _, _, attrs, event_frame = data._draw_header(rng, N_FRAMES)
        raw = rng.standard_normal((N_FRAMES, N_GRID * N_GRID, DIM))
        raw[event_frame] += data.EVENT_MAGNITUDE * sum(
            vocab.directions[k, attrs[k]] for k in range(len(KINDS)))
        proj = vocab.frame_projection
        assert ep.frames.dtype == ep.frame_cls.dtype == np.float32
        assert ep.frames.tobytes() == (raw @ proj).astype(np.float32).tobytes()
        assert ep.frame_cls.tobytes() == (raw.mean(axis=1) @ proj).astype(np.float32).tobytes()

    def test_frame_blocks_do_not_change_a_bit(self, monkeypatch):
        # A desk video is one block; a budget of one byte draws and encodes
        # frame by frame, and must give the bytes of one block, at desk and
        # at bench geometry.
        cfg = desk_config()
        assert 8 * cfg.n_frames * cfg.n_grid ** 2 * cfg.dim <= data.FRAME_BLOCK_BYTES
        for n_frames, n_grid, dim in ((N_FRAMES, N_GRID, DIM), (100, 7, 256)):
            world = Vocab(seed=7, dim=dim)
            outputs = []
            for budget in (1, 1 << 40):
                monkeypatch.setattr(data, "FRAME_BLOCK_BYTES", budget)
                ep = gen_episode(3, n_frames, n_grid, dim, world)
                blind = blind_input(ep, "gaussian")
                outputs.append([a.tobytes() for a in (ep.frames, ep.frame_cls,
                                                      blind.v_patch, blind.v_cls)])
            assert outputs[0] == outputs[1]

    def test_gaussian_blind_is_the_float64_draw_rounded_once(self, vocab):
        ep = episodes(vocab, 1)[0]
        drawn = np.random.default_rng(ep.seed ^ data._GAUSSIAN_BLIND_SALT).standard_normal(
            ep.frames.shape)
        blind = blind_input(ep, "gaussian")
        assert blind.v_patch.dtype == blind.v_cls.dtype == np.float32
        assert blind.v_patch.tobytes() == drawn.astype(np.float32).tobytes()
        assert blind.v_cls.tobytes() == drawn.mean(axis=1).astype(np.float32).tobytes()
