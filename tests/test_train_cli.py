"""Trainer semantics, CLI surface, exit codes, and stream determinism."""

import dataclasses
import gc
import json
import math
import os
import re
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from glimpse import cli as gcli
from glimpse import data
from glimpse import evaluate as geval
from glimpse import tensor as T
from glimpse.ablate import run_grid
from glimpse.cli import main
from glimpse.config import RunConfig, desk_config
from glimpse.data import (BLIND_MODES, EpisodeSet, Vocab, blind_input,
                          episode_seeds, gen_episode, save_dataset)
from glimpse.evaluate import evaluate_model, evaluate_with_blind_probes
from glimpse.model import VideoQAModel, load_checkpoint, save_checkpoint
from glimpse.objectives import MATCHED, UNMATCHED
from glimpse.sampler import uniform_indices
from glimpse.nn import widen_weights
from glimpse.train import (AdamW, NumericFailure, derive_seed, episode_noise_seed, lr_at,
                           train, train_step)
from glimpse.tensor import Tensor


DESK_RECIPE = Path(__file__).resolve().parent.parent / "configs" / "desk_recipe.json"


def smoke_config(**overrides):
    base = dict(steps=2, batch_size=4, lr=1e-3, warmup=0.0, seed=5)
    base.update(overrides)
    return desk_config(**base)


def wide_model(cfg, std):
    """A model whose projections are re-drawn at ``std``, off the near-uniform init."""
    model = VideoQAModel(cfg, Vocab(cfg.vocab_seed, cfg.dim), np.random.default_rng(cfg.seed))
    widen_weights(model, np.random.default_rng(derive_seed(cfg.seed, 0x1217)), std)
    return model


def exit_code(argv) -> int:
    """``main``'s exit code, also when a flag's check exits from the parser."""
    try:
        return main(argv)
    except SystemExit as err:
        return err.code


DESK_FLAGS = ["--n-frames", "30", "--k-select", "4", "--depth", "1", "--dim", "32",
              "--heads", "2", "--n-grid", "2"]
SRC = Path(__file__).parents[1] / "src"


def overflowing_checkpoint(tmp_path):
    """A 2-episode desk dataset and a depth-1 checkpoint of finite weights whose
    attention logits overflow float32: (data dir, checkpoint dir, model)."""
    cfg = desk_config(depth=1, seed=2)
    data, ckpt = tmp_path / "data", tmp_path / "ckpt"
    assert main(["gen-data", "--out", str(data), "--episodes", "2", *DESK_FLAGS]) == 0
    model = VideoQAModel(cfg, Vocab(cfg.vocab_seed, cfg.dim), np.random.default_rng(2))
    rng = np.random.default_rng(5)
    for name, p in model.named_parameters():
        if name.endswith(("attn.w_q.w", "attn.w_k.w")):
            p.data[...] = rng.normal(0.0, 1e20, p.shape)
    save_checkpoint(ckpt, model, step=0)
    return data, ckpt, model


def pool(cfg, count, base=0):
    vocab = Vocab(cfg.vocab_seed, cfg.dim)
    return [gen_episode(base ^ i, cfg.n_frames, cfg.n_grid, cfg.dim, vocab)
            for i in range(count)]


class TestSchedules:
    def test_linear_warmup_then_decay(self):
        cfg = smoke_config(steps=100, warmup=0.1, lr=1.0)
        assert lr_at(cfg, 0) == pytest.approx(0.1)
        assert lr_at(cfg, 9) == pytest.approx(1.0)
        assert lr_at(cfg, 99) == pytest.approx(1.0 / 90)
        assert lr_at(cfg, 54) == pytest.approx(46 / 90)

    def test_derive_seed_is_stable_and_mixed(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)

    def test_derive_seed_refuses_a_negative_key(self):
        # abs() would give derive_seed(-5, 3) the stream of derive_seed(5, 3).
        for keys, negative in (((-5, 3), -5), ((5, -3), -3), ((np.int64(-1), 29, 0), -1)):
            with pytest.raises(ValueError, match=f"non-negative, got {negative} in"):
                derive_seed(*keys)
        assert derive_seed(0, 3) != derive_seed(5, 3)


class TestAdamW:
    def test_decoupled_decay_shrinks_without_gradient_signal(self):
        p = Tensor(np.ones(3), requires_grad=True)
        opt = AdamW([("p", p)], weight_decay=0.1)
        p.grad = p.grad_slot
        p.grad[...] = 0.0
        opt.step(lr=1.0)
        np.testing.assert_allclose(p.data, 0.9)

    def test_adaptive_step_is_signlike_at_start(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        opt = AdamW([("p", p)], weight_decay=0.0)
        p.grad = p.grad_slot
        p.grad[...] = [1e-3, -1e3]
        opt.step(lr=0.01)
        np.testing.assert_allclose(np.abs(p.data), 0.01, rtol=1e-4)
        assert p.data[0] < 0 < p.data[1]


class TestTrainLoop:
    def test_smoke_run_and_metrics_schema(self):
        cfg = smoke_config()
        episodes = pool(cfg, 8)
        model, opt, records = train(cfg, episodes)
        assert len(records) == 2
        assert set(records[0]) == {"step", "l_vtm", "l_cl", "l_vgmlm", "l_qa",
                                   "l_total", "lr"}

    def test_untrained_vtm_loss_near_ln2(self):
        cfg = smoke_config(steps=1, batch_size=8)
        model, opt, records = train(cfg, pool(cfg, 16))
        assert records[0]["l_vtm"] == pytest.approx(math.log(2.0), abs=0.05)

    def test_metrics_stream_reproducible_byte_for_byte(self):
        cfg = smoke_config(steps=3, batch_size=4)
        episodes = pool(cfg, 8)
        import io
        streams = []
        for _ in range(2):
            buf = io.StringIO()
            train(cfg, episodes, metrics_stream=buf)
            streams.append(buf.getvalue())
        assert streams[0] == streams[1]
        assert len(streams[0].splitlines()) == 3

    def test_checkpoints_resume_to_identical_stream(self, tmp_path, monkeypatch):
        # A run stopped after step 2 resumes from its checkpoint directory,
        # under the same config, and emits the rest of the uninterrupted stream.
        cfg = smoke_config(steps=4, batch_size=4)
        episodes = pool(cfg, 8)
        import io
        full = io.StringIO()
        train(cfg, episodes, metrics_stream=full)

        def stop_at_step_2(model, optimizer, episodes, cfg, step):
            if step == 2:
                raise RuntimeError("interrupted")
            return train_step(model, optimizer, episodes, cfg, step)

        monkeypatch.setattr("glimpse.train.train_step", stop_at_step_2)
        with pytest.raises(RuntimeError, match="interrupted"):
            train(cfg, episodes, out_dir=tmp_path, checkpoint_every=2)
        monkeypatch.undo()
        assert load_checkpoint(tmp_path)[1] == 2
        rest = io.StringIO()
        train(cfg, episodes, metrics_stream=rest, resume=tmp_path)
        assert full.getvalue().splitlines()[2:] == rest.getvalue().splitlines()

    def test_resume_with_another_config_rejected(self, tmp_path):
        # Through the API as on the command line, a checkpoint continues only
        # the config it was saved under: another lr must not go on silently.
        cfg = smoke_config()
        episodes = pool(cfg, 8)
        train(cfg, episodes, out_dir=tmp_path)
        with pytest.raises(ValueError, match=r"config differs from this run's config: "
                                             r"lr=0\.001 vs 0\.002$"):
            train(cfg.replace(lr=2e-3), episodes, resume=tmp_path)

    def test_resume_builds_one_model(self, tmp_path, monkeypatch):
        # The checkpoint's model is the one trained on: no second model is
        # built, and the one built draws no weights.
        cfg = smoke_config()
        episodes = pool(cfg, 8)
        model = VideoQAModel(cfg, Vocab(cfg.vocab_seed, cfg.dim), np.random.default_rng(1))
        save_checkpoint(tmp_path, model, step=1)
        rngs = []
        init = VideoQAModel.__init__

        def counting(self, cfg, vocab, rng):
            rngs.append(rng)
            init(self, cfg, vocab, rng)

        monkeypatch.setattr(VideoQAModel, "__init__", counting)
        _, _, records = train(cfg, episodes, resume=tmp_path)
        assert rngs == [None]
        assert [r["step"] for r in records] == [1]

    def test_negative_checkpoint_interval_raises_before_any_step(self, tmp_path, monkeypatch):
        # Every step modulo -1 is 0, so -1 would checkpoint after every step.
        steps = []
        monkeypatch.setattr("glimpse.train.train_step", lambda *a: steps.append(a))
        cfg = smoke_config()
        with pytest.raises(ValueError, match="checkpoint_every must be >= 0"):
            train(cfg, pool(cfg, 2), out_dir=tmp_path, checkpoint_every=-1)
        assert steps == [] and not any(tmp_path.iterdir())

    def test_grid_without_episodes_raises_before_any_pool_or_step(self, monkeypatch):
        # Without the check a variant trains to the end before its empty
        # eval pool fails.
        pools = []
        monkeypatch.setattr("glimpse.ablate._episode_pool", lambda *a: pools.append(a))

        def no_training(*args, **kwargs):
            raise AssertionError("a variant trained")

        monkeypatch.setattr("glimpse.ablate.train", no_training)
        for counts in ((0, 4), (4, 0), (-1, 4)):
            with pytest.raises(ValueError, match="episode counts must be >= 1"):
                run_grid(smoke_config(), "modules", *counts)
        assert pools == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_abort_names_step(self):
        cfg = smoke_config(steps=5, lr=1e15, warmup=0.0)
        with pytest.raises(NumericFailure, match="at step"):
            train(cfg, pool(cfg, 8))

    def test_checkpoint_forward_bit_identical(self, tmp_path):
        cfg = smoke_config()
        episodes = pool(cfg, 8)
        model, _, _ = train(cfg, episodes, out_dir=tmp_path)
        reloaded, _, _ = load_checkpoint(tmp_path)
        ep = episodes[0]
        a = model.represent([ep.bundle], [ep.question_tokens], [3])
        b = reloaded.represent([ep.bundle], [ep.question_tokens], [3])
        assert (a["v_star"].data == b["v_star"].data).all()


class TestTapeLifetime:
    def test_train_step_and_eval_leave_no_cyclic_garbage(self):
        # Tapes must be freed by reference counting alone, not by the collector.
        cfg = smoke_config()
        episodes = pool(cfg, 8)
        model = VideoQAModel(cfg, Vocab(cfg.vocab_seed, cfg.dim),
                             np.random.default_rng(cfg.seed))
        optimizer = AdamW(list(model.named_parameters()), cfg.weight_decay)
        gc.collect()
        gc.disable()
        try:
            train_step(model, optimizer, episodes, cfg, 0)
            evaluate_with_blind_probes(model, episodes, eval_seed=4)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_eval_represents_each_distinct_text_once_per_episode(self, monkeypatch):
        # A blind-probe report is one list of rows: each episode's distinct
        # clean texts (own question, foreign question and MCQ candidates,
        # each once) on its video, then each blind mode's question on the
        # episode's blinded video, all with the episode's noise seed.  A call
        # carries at most the token budget's rows, so an 8-episode desk
        # report is one call; a small budget splits the rows of one episode
        # across calls without changing the report.
        cfg = smoke_config()
        episodes = pool(cfg, 8)
        model = VideoQAModel(cfg, Vocab(cfg.vocab_seed, cfg.dim),
                             np.random.default_rng(cfg.seed))
        expected = evaluate_with_blind_probes(model, episodes, eval_seed=4)
        owner = {episode_noise_seed(4, ep.seed, 0): i for i, ep in enumerate(episodes)}
        kinds = (None, *BLIND_MODES)
        videos = {(i, kind): ep.frame_cls if kind is None else blind_input(ep, kind).v_cls
                  for i, ep in enumerate(episodes) for kind in kinds}
        real = model.represent
        whole = geval.REFINER_TOKENS_PER_CALL
        for budget, n_calls in ((whole, 1), (7 * (1 + cfg.k_select * cfg.n_grid ** 2), None)):
            monkeypatch.setattr(geval, "REFINER_TOKENS_PER_CALL", budget)
            per_call = geval.rows_per_call(cfg)
            calls = []

            def counted(bundles, token_ids, rng_seeds, **kwargs):
                calls.append((bundles, [tuple(t) for t in token_ids], list(rng_seeds)))
                return real(bundles, token_ids, rng_seeds, **kwargs)

            monkeypatch.setattr(model, "represent", counted)
            assert evaluate_with_blind_probes(model, episodes, eval_seed=4) == expected
            rows = []
            for bundles, texts, seeds in calls:
                assert len(texts) <= per_call
                for r, (text, seed) in enumerate(zip(texts, seeds)):
                    i = owner[seed]
                    shown = bundles[r].v_cls
                    kind, = [k for k in kinds if (shown == videos[i, k]).all()]
                    rows.append((i, text, kind))
            assert len(rows) == len(set(rows))
            assert len(calls) == (n_calls or -(-len(rows) // per_call))
            for i, ep in enumerate(episodes):
                texts = {text for j, text, kind in rows if j == i and kind is None}
                assert tuple(ep.question_tokens) in texts
                assert tuple(episodes[(i + 1) % len(episodes)].question_tokens) in texts
                assert len(texts) <= 6
                for mode in BLIND_MODES:
                    assert [text for j, text, kind in rows
                            if (j, kind) == (i, mode)] == [tuple(ep.question_tokens)]
        assert per_call == 7 and len(calls) > 1


class TestEvalBatching:
    def test_one_row_per_call_gives_identical_reports(self, monkeypatch):
        # A row's outputs move with the rows it shares a call with only by
        # float32 rounding, so the size of a represent call changes no metric
        # of the blind-probe, no-MCQ or single-mode reports.
        cfg = smoke_config()
        episodes = pool(cfg, 12)
        model = wide_model(cfg, 0.3)

        def reports():
            return (evaluate_with_blind_probes(model, episodes, eval_seed=4),
                    evaluate_model(model, episodes, eval_seed=4, with_mcq=False),
                    evaluate_with_blind_probes(model, episodes, eval_seed=4, modes=("gaussian",)))

        expected = reports()
        assert geval.rows_per_call(cfg) > 6 * len(episodes)
        monkeypatch.setattr(geval, "REFINER_TOKENS_PER_CALL", 1)
        assert geval.rows_per_call(cfg) == 1
        assert reports() == expected
        with pytest.raises(ValueError, match="no episodes to evaluate"):
            evaluate_model(model, [], eval_seed=4)

    def test_blind_modes_are_checked_first_and_represented_once(self, monkeypatch):
        # An unknown mode fails before any row is represented, and a mode
        # named twice adds its rows once.
        cfg = smoke_config()
        episodes = pool(cfg, 8)
        model = VideoQAModel(cfg, Vocab(cfg.vocab_seed, cfg.dim),
                             np.random.default_rng(cfg.seed))
        rows = []
        real = model.represent
        monkeypatch.setattr(model, "represent",
                            lambda bundles, texts, *a, **k: rows.extend(texts)
                            or real(bundles, texts, *a, **k))
        with pytest.raises(ValueError, match="unknown blind mode: 'sepia'"):
            evaluate_with_blind_probes(model, episodes, eval_seed=4, modes=("static", "sepia"))
        assert rows == []
        once = evaluate_with_blind_probes(model, episodes, eval_seed=4, modes=("static",))
        n_rows = len(rows)
        rows.clear()
        assert evaluate_with_blind_probes(model, episodes, eval_seed=4,
                                          modes=("static", "static")) == once
        assert len(rows) == n_rows

    def test_report_generates_each_episode_at_most_twice(self, monkeypatch):
        # An episode set larger than its cache regenerates on every read.  A
        # report reads each episode once to lay out its rows and once in the
        # one call that shows them, clean and blinded alike.
        cfg = smoke_config()
        episodes = EpisodeSet(episode_seeds(0, 16), cfg.n_frames, cfg.n_grid,
                              Vocab(cfg.vocab_seed, cfg.dim))
        model = VideoQAModel(cfg, episodes.vocab, np.random.default_rng(cfg.seed))
        size = episodes[0].frames.nbytes + episodes[0].frame_cls.nbytes
        monkeypatch.setattr(data, "EPISODE_CACHE_BYTES", 4 * size)
        calls = []
        real = data.gen_episode
        monkeypatch.setattr(data, "gen_episode", lambda *a: calls.append(a[0]) or real(*a))
        evaluate_with_blind_probes(model, episodes, eval_seed=4)
        assert len(calls) <= 2 * len(episodes)

    def test_blind_delta_is_blind_minus_clean(self):
        # At this init the blinded videos change some answers, so each delta
        # is nonzero and its sign is pinned.
        cfg = smoke_config()
        report = evaluate_with_blind_probes(wide_model(cfg, 0.3), pool(cfg, 12), eval_seed=4)
        clean = report["clean"]["qa_accuracy"]
        for mode in BLIND_MODES:
            assert report[mode]["qa_accuracy"] != clean, mode
            assert report[mode]["delta"] == report[mode]["qa_accuracy"] - clean, mode

    def test_mcq_needs_more_episodes_than_choices(self):
        # Multiple choice is asked only of more episodes than it has choices;
        # both sides of that boundary are pinned.
        cfg = smoke_config()
        model = VideoQAModel(cfg, Vocab(cfg.vocab_seed, cfg.dim),
                             np.random.default_rng(cfg.seed))
        episodes = pool(cfg, geval.MCQ_CHOICES + 1)
        assert "mcq_accuracy" in evaluate_model(model, episodes, eval_seed=4)
        assert "mcq_accuracy" not in evaluate_model(model, episodes[:-1], eval_seed=4)

    def test_one_episode_reports_no_matching_accuracy(self):
        # One episode's "next episode's question" is its own, so the matched
        # and the foreign row would be one row and score exactly 0.5.
        cfg = smoke_config()
        model = VideoQAModel(cfg, Vocab(cfg.vocab_seed, cfg.dim),
                             np.random.default_rng(cfg.seed))
        episodes = pool(cfg, 2)
        assert "vtm_accuracy" not in evaluate_model(model, episodes[:1], eval_seed=4)
        assert "vtm_accuracy" in evaluate_model(model, episodes, eval_seed=4)

    def test_vtm_scores_against_the_next_question_that_differs(self):
        # Episodes 0 and 1 ask one question, so episode 0's foreign text is
        # episode 2's question, not its own again: with it, the matched and
        # the foreign row would be one row, scored both ways.  When every
        # episode asks one question there is no foreign text at all.
        cfg = smoke_config()
        model = wide_model(cfg, 1.0)
        episodes = pool(cfg, 4)
        episodes[1] = dataclasses.replace(episodes[1],
                                          question_tokens=list(episodes[0].question_tokens))
        questions = [tuple(ep.question_tokens) for ep in episodes]
        assert len(set(questions)) == 3

        @T.no_grad()
        def verdict(ep, text):
            rep = model.represent([ep.bundle], [list(text)],
                                  [episode_noise_seed(4, ep.seed, 0)])
            return int(np.argmax(model.vtm_head(rep["v_star"]).data))

        foreign = [questions[2], questions[2], questions[3], questions[0]]
        # At this init episode 0 scores 2 of 2 against episode 2's question,
        # where its own question as the foreign text would score 1 of 2.
        assert verdict(episodes[0], questions[0]) == MATCHED
        assert verdict(episodes[0], questions[2]) == UNMATCHED
        hits = sum((verdict(ep, own) == MATCHED) + (verdict(ep, other) == UNMATCHED)
                   for ep, own, other in zip(episodes, questions, foreign))
        metrics = evaluate_model(model, episodes, eval_seed=4, with_mcq=False)
        assert metrics["vtm_accuracy"] == hits / 8
        one_question = [dataclasses.replace(ep, question_tokens=list(questions[0]))
                        for ep in episodes]
        assert "vtm_accuracy" not in evaluate_model(model, one_question, eval_seed=4)

    def test_budget_sets_rows_per_call(self):
        # 1 CLS + K * n_grid^2 patch tokens per row.
        assert geval.rows_per_call(desk_config()) == 240
        assert geval.rows_per_call(desk_config(n_frames=100, k_select=16, dim=256,
                                               n_grid=7)) == 5
        assert geval.rows_per_call(desk_config(k_select=30, n_grid=12)) == 1


class TestCli:
    def test_usage_error_exits_1(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["train"])  # missing required arguments
        assert excinfo.value.code == 1
        for removed in ("sample-frames", "dump-tensor"):
            with pytest.raises(SystemExit) as excinfo:
                main([removed])
            assert excinfo.value.code == 1
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        assert "{gradcheck,gen-data,train,eval,ablate}" in capsys.readouterr().out

    def test_unknown_flag_exits_1(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["gradcheck", "--not-a-flag", "3"])
        assert excinfo.value.code == 1

    def test_gen_train_eval_flow(self, tmp_path, capsys):
        data = tmp_path / "data"
        ckpt = tmp_path / "ckpt"
        metrics = tmp_path / "metrics.jsonl"
        overrides = ["--n-frames", "30", "--k-select", "4", "--depth", "1",
                     "--dim", "32", "--heads", "2", "--n-grid", "2"]
        assert main(["gen-data", "--out", str(data), "--episodes", "12",
                     *overrides]) == 0
        assert main(["train", "--data", str(data), "--out", str(ckpt),
                     "--metrics", str(metrics), "--steps", "2",
                     "--batch-size", "4", "--lr", "1e-3", *overrides]) == 0
        lines = [json.loads(line) for line in metrics.read_text().splitlines()]
        assert len(lines) == 2
        assert {"step", "l_vtm", "l_cl", "l_vgmlm", "l_total", "lr"} <= set(lines[0])
        out = tmp_path / "eval.json"
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                     "--blind", "static", "--blind", "gaussian",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert "clean" in report and "static" in report and "gaussian" in report
        assert report["static"]["delta"] == pytest.approx(
            report["static"]["qa_accuracy"] - report["clean"]["qa_accuracy"])

    def test_desk_recipe_reads_and_trains(self, tmp_path):
        # The committed recipe: desk sizes, QA only, no exchange, lr 1e-3,
        # 2,000 steps at batch 16, seed 1; every other field a default.
        recipe = RunConfig.from_file(DESK_RECIPE)
        assert recipe == desk_config(w_vtm=0.0, w_cl=0.0, w_vgmlm=0.0, exchange_prob=0.0,
                                     lr=1e-3, steps=2000, batch_size=16, seed=1)
        data, config = tmp_path / "data", ["--config", str(DESK_RECIPE)]
        assert main(["gen-data", "--out", str(data), "--episodes", "8", *config]) == 0
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "ckpt"),
                     "--metrics", str(tmp_path / "m.jsonl"), *config,
                     "--steps", "2", "--batch-size", "4"]) == 0
        assert load_checkpoint(tmp_path / "ckpt")[0].cfg == recipe.replace(steps=2, batch_size=4)

    def test_eval_untrained_is_near_chance(self, tmp_path):
        data = tmp_path / "data"
        ckpt = tmp_path / "ckpt"
        overrides = ["--n-frames", "30", "--k-select", "4", "--depth", "1",
                     "--dim", "32", "--heads", "2", "--n-grid", "2"]
        main(["gen-data", "--out", str(data), "--episodes", "64",
              *overrides])
        main(["train", "--data", str(data), "--out", str(ckpt), "--steps", "1",
              "--batch-size", "4", "--metrics", str(tmp_path / "m.jsonl"), *overrides])
        out = tmp_path / "eval.json"
        main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
              "--out", str(out)])
        acc = json.loads(out.read_text())["clean"]["qa_accuracy"]
        assert acc < 0.35  # untrained model sits near the 1/8 chance level

    def test_uniform_hit_rate_matches_combinatorial_count(self, tmp_path):
        # With the fixed uniform grid, the hit-rate is exactly the chance that
        # the event frame (uniform in its third) falls on a grid index.
        cfg = desk_config(seed=1, sampler="uniform", refiner="plain", steps=1,
                          batch_size=4, depth=1)
        episodes = pool(cfg, 600, base=12345)
        from glimpse.evaluate import evaluate_model
        vocab = Vocab(cfg.vocab_seed, cfg.dim)
        model = VideoQAModel(cfg, vocab, np.random.default_rng(1))
        metrics = evaluate_model(model, episodes, eval_seed=9, with_mcq=False)
        grid = set(uniform_indices(cfg.n_frames, cfg.k_select).tolist())
        expected = 0.0
        for window in range(3):
            lo, hi = window * 10, (window + 1) * 10
            expected += len([f for f in range(lo, hi) if f in grid]) / 10 / 3
        assert metrics["hit_rate"] == pytest.approx(expected, abs=0.05)

    def test_stale_dataset_index_exits_1(self, tmp_path, capsys):
        data = tmp_path / "data"
        overrides = ["--n-frames", "30", "--k-select", "4", "--depth", "1",
                     "--dim", "32", "--heads", "2", "--n-grid", "2"]
        assert main(["gen-data", "--out", str(data), "--episodes", "4",
                     *overrides]) == 0
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "ckpt"),
                     "--steps", "1", "--batch-size", "2",
                     "--metrics", str(tmp_path / "m.jsonl"), *overrides]) == 0
        index = json.loads((data / "index.json").read_text())
        index["episodes"][2]["event_frame"] += 1
        (data / "index.json").write_text(json.dumps(index))
        capsys.readouterr()
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "ckpt2"),
                     "--steps", "1", "--batch-size", "2",
                     "--metrics", str(tmp_path / "m2.jsonl"), *overrides]) == 1
        assert "episode 2 regenerated differently" in capsys.readouterr().err
        assert main(["eval", "--checkpoint", str(tmp_path / "ckpt"),
                     "--data", str(data)]) == 1
        assert "episode 2 regenerated differently" in capsys.readouterr().err

    def test_out_of_range_sizes_exit_1_with_an_error_line(self, tmp_path, capsys):
        # Sizes that cannot run fail at the config, the pool or the episode
        # count with a usage error, not deep in the model with a traceback.
        data, empty = tmp_path / "data", tmp_path / "empty"
        overrides = ["--n-frames", "30", "--k-select", "4", "--depth", "1",
                     "--dim", "32", "--heads", "2", "--n-grid", "2"]
        assert main(["gen-data", "--out", str(data), "--episodes", "4", *overrides]) == 0
        save_dataset(empty, base_seed=1, count=0, n_frames=30, n_grid=2, dim=32, vocab_seed=7)
        train_args = ["train", "--out", str(tmp_path / "ckpt"), "--steps", "1",
                      "--batch-size", "2", "--metrics", str(tmp_path / "m.jsonl"), *overrides]
        cases = [
            (["--data", str(data), "--heads", "0"], "heads must be >= 1"),
            (["--data", str(data), "--batch-size", "0"], "batch_size must be >= 1"),
            (["--data", str(data), "--k-select", "0"], "k_select must be >= 1"),
            (["--data", str(data), "--lr", "-1"], "lr must be >= 0"),
            (["--data", str(data), "--n-grid", "0"], "n_grid must be >= 1"),
            (["--data", str(data), "--steps", "-1"], "steps must be >= 0"),
            (["--data", str(data), "--weight-decay", "-5"], "weight_decay must be >= 0"),
            (["--data", str(data), "--mask-rate", "2"], "mask_rate must be in [0, 1]"),
            (["--data", str(data), "--mask-rate", "-1"], "mask_rate must be in [0, 1]"),
            (["--data", str(empty)], "no episodes to train on"),
        ]
        capsys.readouterr()
        for extra, message in cases:
            assert main(train_args + extra) == 1, extra
            assert f"error: {message}" in capsys.readouterr().err
        assert exit_code(["gen-data", "--out", str(tmp_path / "neg"), "--episodes", "-1"]) == 1
        captured = capsys.readouterr()
        assert "error: --episodes must be >= 1" in captured.err and "wrote" not in captured.out
        assert not (tmp_path / "neg").exists()

    def test_bad_probability_weight_or_sampler_exits_1_before_any_dataset_read(
            self, tmp_path, capsys, monkeypatch):
        # An exchange probability outside [0, 1], a negative loss weight and
        # the sampler name "none" fail at the config, in a flag, a config
        # file or a checkpoint, before the dataset is read.
        reads = []
        monkeypatch.setattr(gcli, "load_dataset", lambda path: reads.append(path))
        train_args = ["train", "--data", str(tmp_path / "data"), "--out", str(tmp_path / "c")]
        samplers = "sampler must be one of ('sparse', 'uniform', 'soft')"
        cases = [(["--exchange-prob", "1.5"], "exchange_prob must be in [0, 1]"),
                 (["--exchange-prob", "-0.1"], "exchange_prob must be in [0, 1]"),
                 *((["--" + w.replace("_", "-"), "-1"], f"{w} must be >= 0")
                   for w in ("w_vtm", "w_cl", "w_vgmlm", "w_qa")),
                 (["--sampler", "none"], samplers)]
        path = tmp_path / "none.json"
        path.write_text(json.dumps({**dataclasses.asdict(desk_config()), "sampler": "none"}))
        cases.append((["--config", str(path)], samplers))
        capsys.readouterr()
        for extra, message in cases:
            assert main(train_args + extra) == 1, extra
            assert f"error: {message}" in capsys.readouterr().err, extra
        cfg = desk_config(depth=1, sampler="uniform")
        ckpt = tmp_path / "ckpt"
        save_checkpoint(ckpt, VideoQAModel(cfg, Vocab(cfg.vocab_seed, cfg.dim),
                                           np.random.default_rng(2)), step=0)
        meta = json.loads((ckpt / "meta.json").read_text())
        meta["config"]["sampler"] = "none"
        (ckpt / "meta.json").write_text(json.dumps(meta))
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(tmp_path / "data")]) == 1
        assert f"error: {samplers}" in capsys.readouterr().err
        assert reads == []

    def test_negative_seeds_exit_1_naming_the_field_before_any_dataset_read(
            self, tmp_path, capsys, monkeypatch):
        # Every seed is a non-negative integer; a negative one fails at its
        # flag or at the config, named there, before the dataset is read.
        reads = []
        monkeypatch.setattr(gcli, "load_dataset", lambda path: reads.append(path))
        cfg = desk_config(depth=1)
        ckpt = tmp_path / "ckpt"
        save_checkpoint(ckpt, VideoQAModel(cfg, Vocab(cfg.vocab_seed, cfg.dim),
                                           np.random.default_rng(2)), step=0)
        data, out = str(tmp_path / "data"), tmp_path / "out"
        tiny = ["--n-frames", "6", "--k-select", "2", "--depth", "1", "--dim", "16",
                "--heads", "2", "--n-grid", "2", "--steps", "1", "--batch-size", "2",
                "--train-episodes", "2", "--eval-episodes", "2"]
        cases = [
            (["train", "--data", data, "--out", str(out), "--seed", "-1"],
             "error: seed must be >= 0"),
            (["train", "--data", data, "--out", str(out), "--vocab-seed", "-1"],
             "error: vocab_seed must be >= 0"),
            (["eval", "--checkpoint", str(ckpt), "--data", data, "--eval-seed", "-5"],
             "error: --eval-seed must be >= 0"),
            (["gen-data", "--out", str(out), "--episodes", "2", "--data-seed", "-1"],
             "error: --data-seed must be >= 0"),
            (["ablate", *tiny, "--data-seed", "-1"], "error: --data-seed must be >= 0"),
        ]
        capsys.readouterr()
        for argv, message in cases:
            assert exit_code(argv) == 1, argv
            assert message in capsys.readouterr().err, argv
        assert reads == [] and not out.exists()

    def test_negative_interval_or_empty_episode_counts_exit_1_before_any_work(
            self, tmp_path, capsys, monkeypatch):
        # A negative --checkpoint-every would act as 1 (every step modulo -1
        # is 0) and an ablation with no train or eval episodes would train a
        # whole variant first; both fail at their flag, named there.
        reads, trains = [], []
        monkeypatch.setattr(gcli, "load_dataset", lambda path: reads.append(path))
        monkeypatch.setattr("glimpse.ablate.train", lambda *a, **k: trains.append(a))
        out = tmp_path / "out"
        tiny = ["--n-frames", "6", "--k-select", "2", "--depth", "1", "--dim", "16",
                "--heads", "2", "--n-grid", "2", "--steps", "1", "--batch-size", "2"]
        cases = [
            (["train", "--data", str(tmp_path / "data"), "--out", str(out),
              "--checkpoint-every", "-1"], "error: --checkpoint-every must be >= 0"),
            (["ablate", *tiny, "--train-episodes", "0"], "error: --train-episodes must be >= 1"),
            (["ablate", *tiny, "--eval-episodes", "0"], "error: --eval-episodes must be >= 1"),
            (["ablate", *tiny, "--eval-episodes", "-3"], "error: --eval-episodes must be >= 1"),
        ]
        capsys.readouterr()
        for argv, message in cases:
            assert exit_code(argv) == 1, argv
            assert message in capsys.readouterr().err, argv
        assert reads == [] and trains == [] and not out.exists()

    @pytest.mark.parametrize("field, value", [
        *((f, v) for f in ("lr", "weight_decay", "w_vtm", "w_cl", "w_vgmlm", "w_qa", "tau",
                           "tau_g") for v in ("nan", "inf")),
        ("dim", "0")])
    def test_non_finite_float_or_zero_dim_exits_1_before_any_dataset_read(
            self, field, value, tmp_path, capsys, monkeypatch):
        reads = []
        monkeypatch.setattr(gcli, "load_dataset", lambda path: reads.append(path))
        argv = ["train", "--data", str(tmp_path / "data"), "--out", str(tmp_path / "out"),
                "--" + field.replace("_", "-"), value]
        assert main(argv) == 1
        message = "dim must be >= 1" if field == "dim" else f"{field} must be finite"
        assert f"error: {message}" in capsys.readouterr().err
        assert reads == []

    def test_eval_of_unfinished_checkpoint_exits_1(self, tmp_path, capsys):
        cfg = desk_config(depth=1, seed=2)
        ckpt = tmp_path / "ckpt"
        save_checkpoint(ckpt, VideoQAModel(cfg, Vocab(cfg.vocab_seed, cfg.dim),
                                           np.random.default_rng(2)), step=0)
        (ckpt / "meta.json").unlink()
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(tmp_path / "data")]) == 1
        assert "holds no complete checkpoint: meta.json is missing" in capsys.readouterr().err

    def test_config_value_of_the_wrong_type_exits_1_naming_the_field(self, tmp_path, capsys):
        # A string size and a fractional step count fail at gen-data, before
        # any dataset is written, not as a traceback or later in train.
        desk = {k: getattr(desk_config(), k)
                for k in ("n_frames", "k_select", "depth", "dim", "heads", "n_grid")}
        for values, message in (({"dim": "32"}, "dim must be of type int, not str ('32')"),
                                ({**desk, "steps": 2.5}, "steps must be of type int, not float")):
            path, out = tmp_path / "config.json", tmp_path / "data"
            path.write_text(json.dumps(values))
            capsys.readouterr()
            assert main(["gen-data", "--config", str(path), "--out", str(out),
                         "--episodes", "2"]) == 1
            assert f"error: {message}" in capsys.readouterr().err
            assert not out.exists()

    def test_config_file_that_is_no_object_or_no_file_exits_1(self, tmp_path, capsys):
        # A config file holding another JSON value, or a path that is a
        # directory, gives an error line and no dataset, not a traceback.
        out = tmp_path / "data"
        for text, message in (("5", "a config must be a JSON object, not int"),
                              ("null", "a config must be a JSON object, not NoneType"),
                              ('"abc"', "a config must be a JSON object, not str")):
            (tmp_path / "config.json").write_text(text)
            capsys.readouterr()
            assert main(["gen-data", "--config", str(tmp_path / "config.json"),
                         "--out", str(out)]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
        assert main(["gen-data", "--config", str(tmp_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 21] Is a directory") and "Traceback" not in err
        assert not out.exists()

    def test_dataset_episodes_that_are_no_list_exit_1(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["gen-data", "--out", str(data), "--episodes", "2"]) == 0
        index = json.loads((data / "index.json").read_text())
        (data / "index.json").write_text(json.dumps({**index, "episodes": 5}))
        capsys.readouterr()
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "ckpt")]) == 1
        assert (capsys.readouterr().err
                == "error: dataset index: episodes must be a JSON list, not int\n")

    def test_checkpoint_step_of_the_wrong_type_exits_1_naming_it(self, tmp_path, capsys):
        cfg = desk_config(depth=1, seed=2)
        ckpt = tmp_path / "ckpt"
        save_checkpoint(ckpt, VideoQAModel(cfg, Vocab(cfg.vocab_seed, cfg.dim),
                                           np.random.default_rng(2)), step=2)
        meta = json.loads((ckpt / "meta.json").read_text())
        (ckpt / "meta.json").write_text(json.dumps({**meta, "step": "2"}))
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(tmp_path / "data")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert 'meta.json: step must be a non-negative integer, not "2"' in err

    def test_dataset_index_without_meta_exits_1(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        (data / "index.json").write_text(json.dumps({"episodes": []}))
        capsys.readouterr()
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "ckpt")]) == 1
        assert "error: dataset index lacks ['meta']" in capsys.readouterr().err

    def test_dataset_seed_of_the_wrong_type_exits_1_naming_the_entry(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["gen-data", "--out", str(data), "--episodes", "3", "--n-frames", "30",
                     "--n-grid", "2", "--dim", "32"]) == 0
        index = json.loads((data / "index.json").read_text())
        index["episodes"][1]["seed"] = str(index["episodes"][1]["seed"])
        (data / "index.json").write_text(json.dumps(index))
        capsys.readouterr()
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "ckpt")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: dataset episode entry 1: seed must be a non-negative "
                              "integer, not \"") and "Traceback" not in err

    def test_format_1_checkpoint_and_removed_config_keys_exit_1(self, tmp_path, capsys):
        # Both compatibility breaks fail loudly and name their cause: a
        # format-1 or format-2 checkpoint, and a config file, flag or
        # checkpoint with a removed knob.
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        capsys.readouterr()
        for number in (1, 2):
            (ckpt / "meta.json").write_text(json.dumps({"step": 1, "format": number}))
            assert main(["eval", "--checkpoint", str(ckpt),
                         "--data", str(tmp_path / "data")]) == 1
            assert f"checkpoint of format {number}; only format 3" in capsys.readouterr().err
        for key in ("mlp_ratio", "answer_hidden", "text_max_len",
                    "soft_warmup", "init_std", "tau_g_anneal", "tau_g_final"):
            path = tmp_path / f"{key}.json"
            path.write_text(json.dumps({**dataclasses.asdict(desk_config()), key: 4}))
            out = ["--out", str(tmp_path / key), "--episodes", "1"]
            assert main(["gen-data", "--config", str(path), *out]) == 1
            assert f"unknown config keys: ['{key}'] ({key}: removed, " in capsys.readouterr().err
            with pytest.raises(SystemExit) as exit_info:
                main(["gen-data", "--" + key.replace("_", "-"), "4", *out])
            assert exit_info.value.code == 1
            assert f"({key}: removed, " in capsys.readouterr().err
        # Every checkpoint saved while the four training knobs existed carries
        # them in its config, at their defaults.
        cfg = desk_config(depth=1, seed=2)
        old = tmp_path / "old"
        save_checkpoint(old, VideoQAModel(cfg, Vocab(cfg.vocab_seed, cfg.dim),
                                          np.random.default_rng(2)), step=0)
        meta = json.loads((old / "meta.json").read_text())
        meta["config"].update(soft_warmup=0.0, init_std=0.02, tau_g_anneal=False,
                              tau_g_final=0.5)
        (old / "meta.json").write_text(json.dumps(meta))
        assert main(["eval", "--checkpoint", str(old), "--data", str(tmp_path / "data")]) == 1
        err = capsys.readouterr().err
        assert "soft_warmup: removed, selection is straight-through from step 0" in err
        for key in ("init_std", "tau_g_anneal", "tau_g_final"):
            assert f"{key}: removed, " in err

    def test_changed_dump_or_bare_meta_exits_1(self, tmp_path, capsys):
        # eval and train --resume refuse a dump whose bytes changed after the
        # save, and a meta.json that lacks a field, with an error line.
        data, ckpt = tmp_path / "data", tmp_path / "ckpt"
        overrides = ["--n-frames", "30", "--k-select", "4", "--depth", "1",
                     "--dim", "32", "--heads", "2", "--n-grid", "2"]
        assert main(["gen-data", "--out", str(data), "--episodes", "4", *overrides]) == 0
        train_args = ["train", "--data", str(data), "--metrics", str(tmp_path / "m.jsonl"),
                      "--steps", "1", "--batch-size", "2", *overrides]
        assert main(train_args + ["--out", str(ckpt)]) == 0
        commands = (["eval", "--checkpoint", str(ckpt), "--data", str(data)],
                    train_args + ["--out", str(tmp_path / "more"), "--resume", str(ckpt)])
        blob = bytearray((ckpt / "params.npy").read_bytes())
        blob[-5] ^= 0x01
        (ckpt / "params.npy").write_bytes(bytes(blob))
        meta = (ckpt / "meta.json").read_text()
        for broken, message in ((meta, "params.npy does not match its checksum"),
                                (json.dumps({"format": 3}), "meta.json lacks ['config', ")):
            (ckpt / "meta.json").write_text(broken)
            for command in commands:
                capsys.readouterr()
                assert main(command) == 1, command[0]
                err = capsys.readouterr().err
                assert err.startswith("error: ") and message in err, command[0]

    def test_eval_rejects_dataset_geometry_and_vocab_mismatch(self, tmp_path, capsys):
        desk = {"--n-frames": "30", "--k-select": "4", "--depth": "1", "--dim": "32",
                "--heads": "2", "--n-grid": "2"}
        cfg = desk_config(depth=1, seed=2)
        ckpt = tmp_path / "ckpt"
        save_checkpoint(ckpt, VideoQAModel(cfg, Vocab(cfg.vocab_seed, cfg.dim),
                                           np.random.default_rng(2)), step=0)
        for key, flag, value in (("n_grid", "--n-grid", "3"), ("vocab_seed", "--vocab-seed", "8")):
            data = tmp_path / key
            flags = [item for pair in {**desk, flag: value}.items() for item in pair]
            assert main(["gen-data", "--out", str(data), "--episodes", "2",
                         *flags]) == 0
            capsys.readouterr()
            assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data)]) == 1
            assert (f"dataset {key}={value} does not match checkpoint config "
                    f"{key}={getattr(cfg, key)}") in capsys.readouterr().err

    def test_eval_exits_2_on_overflowing_logits_and_1_on_a_non_finite_weight(self, tmp_path,
                                                                              capsys):
        # Finite weights whose attention logits overflow are a numeric failure,
        # found where the forward pass overflows; a NaN in a dump whose
        # checksum matches is a bad checkpoint, refused at load with the
        # parameter named.
        data, ckpt, model = overflowing_checkpoint(tmp_path)
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data)]) == 2
        assert capsys.readouterr().err == "error: overflow encountered in matmul\n"

        names, params = zip(*model.named_parameters())
        at = sum(p.size for p in params[:names.index("answer_head.fc2.w")])
        params = np.load(ckpt / "params.npy")
        params[at] = np.nan
        np.save(ckpt / "params.npy", params)
        meta = json.loads((ckpt / "meta.json").read_text())
        (ckpt / "meta.json").write_text(json.dumps({**meta, "params_crc32": zlib.crc32(params)}))
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data)]) == 1
        assert capsys.readouterr().err == (f"error: {ckpt / 'params.npy'} holds a non-finite "
                                           "value in parameter answer_head.fc2.w\n")

    def test_train_rejects_dataset_vocab_seed_mismatch(self, tmp_path, capsys):
        # Another seed means another frozen word table and frame rotation.
        data = tmp_path / "data"
        overrides = ["--n-frames", "30", "--k-select", "4", "--depth", "1",
                     "--dim", "32", "--heads", "2", "--n-grid", "2"]
        assert main(["gen-data", "--out", str(data), "--episodes", "4",
                     "--vocab-seed", "8", *overrides]) == 0
        capsys.readouterr()
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "ckpt"),
                     "--steps", "1", "--batch-size", "2",
                     "--metrics", str(tmp_path / "m.jsonl"), *overrides]) == 1
        assert "dataset vocab_seed=8 does not match config vocab_seed=7" in capsys.readouterr().err

    def test_resume_rejects_checkpoint_with_another_config(self, tmp_path, capsys):
        data, ckpt = tmp_path / "data", tmp_path / "ckpt"
        overrides = ["--n-frames", "30", "--k-select", "4", "--depth", "1",
                     "--dim", "32", "--heads", "2", "--n-grid", "2", "--batch-size", "2"]
        assert main(["gen-data", "--out", str(data), "--episodes", "4",
                     *overrides[:-2]]) == 0
        train_args = ["train", "--data", str(data), "--metrics", str(tmp_path / "m.jsonl"),
                      *overrides]
        assert main(train_args + ["--out", str(ckpt), "--steps", "1"]) == 0
        capsys.readouterr()
        assert main(train_args + ["--out", str(tmp_path / "more"), "--resume", str(ckpt),
                                  "--steps", "2", "--lr", "1e-3"]) == 1
        err = capsys.readouterr().err
        assert "--resume checkpoint config differs" in err
        assert "steps=1 vs 2" in err and "lr=3e-05 vs 0.001" in err
        assert main(train_args + ["--out", str(tmp_path / "same"), "--resume", str(ckpt),
                                  "--steps", "1"]) == 0

    def test_train_nan_exits_2(self, tmp_path):
        data = tmp_path / "data"
        overrides = ["--n-frames", "30", "--k-select", "4", "--depth", "1",
                     "--dim", "32", "--heads", "2", "--n-grid", "2"]
        main(["gen-data", "--out", str(data), "--episodes", "8",
              *overrides])
        code = main(["train", "--data", str(data), "--out", str(tmp_path / "c"),
                     "--steps", "5", "--batch-size", "4", "--lr", "1e15",
                     "--metrics", str(tmp_path / "m.jsonl"), *overrides])
        assert code == 2

    def test_numeric_failure_writes_one_stderr_line(self, tmp_path):
        # In a process of its own, where no test harness captures numpy's
        # warnings: an overflow ends the command with its one error line.
        data, ckpt, _ = overflowing_checkpoint(tmp_path)
        for argv, line in (
                (["eval", "--checkpoint", str(ckpt), "--data", str(data)],
                 "error: overflow encountered in matmul"),
                (["train", "--data", str(data), "--out", str(tmp_path / "c"), "--steps", "5",
                  "--batch-size", "2", "--lr", "1e15", "--metrics", str(tmp_path / "m.jsonl"),
                  *DESK_FLAGS], "error: non-finite loss term 'forward' at step 1")):
            run = subprocess.run([sys.executable, "-m", "glimpse.cli", *argv],
                                 capture_output=True, text=True, timeout=120,
                                 env={**os.environ, "PYTHONPATH": str(SRC),
                                      "OPENBLAS_NUM_THREADS": "1"})
            assert (run.returncode, run.stdout, run.stderr) == (2, "", line + "\n"), argv

    def test_gradcheck_detects_sabotaged_backward(self, monkeypatch, capsys):
        import glimpse.tensor as gt

        real_mlp = gt.mlp

        def broken_mlp(x, *args, **kwargs):
            out = real_mlp(x, *args, **kwargs)
            if out._backward is not None:
                real_bw = out._backward

                def lying_bw(g):
                    real_bw(g)
                    if x.grad is not None:
                        x.grad = x.grad * 1.05  # corrupt the rule
                out._backward = lying_bw
            return out

        monkeypatch.setattr("glimpse.tensor.mlp", broken_mlp)
        code = main(["gradcheck", "--n-frames", "3", "--k-select", "2",
                     "--depth", "1", "--dim", "8", "--heads", "2",
                     "--n-grid", "2"])
        assert code == 2
        # Every target with an MLP fails, the plain fusion among them.
        assert re.search(r"^FAIL .* plain_fusion ", capsys.readouterr().out, re.M)
