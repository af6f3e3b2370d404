"""Trainer semantics, CLI surface, exit codes, and stream determinism."""

import gc
import json
import math

import numpy as np
import pytest

from glimpse import tensor as T
from glimpse.cli import main
from glimpse.config import desk_config
from glimpse.data import Vocab, gen_episode, save_dataset
from glimpse.evaluate import evaluate_model, evaluate_with_blind_probes
from glimpse.model import VideoQAModel, load_checkpoint, save_checkpoint
from glimpse.sampler import uniform_indices
from glimpse.train import (AdamW, NumericFailure, derive_seed, lr_at, tau_g_at, train,
                           train_step)
from glimpse.tensor import Tensor, load_tensor, save_tensor


def smoke_config(**overrides):
    base = dict(steps=2, batch_size=4, lr=1e-3, warmup=0.0, seed=5)
    base.update(overrides)
    return desk_config(**base)


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

    def test_tau_anneal_endpoints(self):
        cfg = smoke_config(steps=50, tau_g_anneal=True, tau_g_final=0.5)
        assert tau_g_at(cfg, 0) == pytest.approx(1.0)
        assert tau_g_at(cfg, 49) == pytest.approx(0.5)
        cfg_flat = smoke_config(steps=50)
        assert tau_g_at(cfg_flat, 25) == 1.0

    def test_derive_seed_is_stable_and_mixed(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)


class TestAdamW:
    def test_decoupled_decay_shrinks_without_gradient_signal(self):
        p = Tensor(np.ones(3), requires_grad=True)
        opt = AdamW([("p", p)], weight_decay=0.1)
        p.grad = np.zeros(3)
        opt.step(lr=1.0)
        np.testing.assert_allclose(p.data, 0.9)

    def test_adaptive_step_is_signlike_at_start(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        opt = AdamW([("p", p)], weight_decay=0.0)
        p.grad = np.array([1e-3, -1e3])
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

    def test_checkpoints_resume_to_identical_stream(self, tmp_path):
        cfg = smoke_config(steps=4, batch_size=4)
        episodes = pool(cfg, 8)
        import io
        full = io.StringIO()
        train(cfg, episodes, metrics_stream=full)

        half_dir = tmp_path / "half"
        cfg_half = cfg.replace(steps=2)
        train(cfg_half, episodes, out_dir=half_dir)
        model, step, opt_state = load_checkpoint(half_dir)
        resume = {"model_state": model.state_dict(), "optimizer_state": opt_state,
                  "step": step}
        rest = io.StringIO()
        train(cfg, episodes, metrics_stream=rest, resume=resume)
        assert full.getvalue().splitlines()[2:] == rest.getvalue().splitlines()

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
        a = model.represent(ep.bundle, ep.question_tokens, rng_seed=3)
        b = reloaded.represent(ep.bundle, ep.question_tokens, rng_seed=3)
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
        cfg = smoke_config()
        episodes = pool(cfg, 8)
        model = VideoQAModel(cfg, Vocab(cfg.vocab_seed, cfg.dim),
                             np.random.default_rng(cfg.seed))
        expected = evaluate_model(model, episodes, eval_seed=4)
        calls = []
        real = model.represent

        def counted(bundle, tokens, rng_seed, **kwargs):
            calls.append((rng_seed, tuple(tokens)))
            return real(bundle, tokens, rng_seed, **kwargs)

        monkeypatch.setattr(model, "represent", counted)
        assert evaluate_model(model, episodes, eval_seed=4) == expected
        assert len(calls) == len(set(calls))
        # Own text, foreign text and 4 other MCQ candidates at most.
        assert len(calls) <= 6 * len(episodes)


class TestCli:
    def test_usage_error_exits_1(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["train"])  # missing required arguments
        assert excinfo.value.code == 1

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
                     "--index-only", *overrides]) == 0
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

    def test_eval_untrained_is_near_chance(self, tmp_path):
        data = tmp_path / "data"
        ckpt = tmp_path / "ckpt"
        overrides = ["--n-frames", "30", "--k-select", "4", "--depth", "1",
                     "--dim", "32", "--heads", "2", "--n-grid", "2"]
        main(["gen-data", "--out", str(data), "--episodes", "64", "--index-only",
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
        metrics = evaluate_model(model, episodes, eval_seed=9, with_mcq=False,
                                 with_vtm=False)
        grid = set(uniform_indices(cfg.n_frames, cfg.k_select).tolist())
        expected = 0.0
        for window in range(3):
            lo, hi = window * 10, (window + 1) * 10
            expected += len([f for f in range(lo, hi) if f in grid]) / 10 / 3
        assert metrics["hit_rate"] == pytest.approx(expected, abs=0.05)

    def test_sample_frames_emits_json_lines(self, tmp_path):
        rng = np.random.default_rng(0)
        cls_path = tmp_path / "cls.tdmp"
        text_path = tmp_path / "text.tdmp"
        save_tensor(cls_path, rng.normal(size=(10, 32)))
        save_tensor(text_path, rng.normal(size=32))
        out = tmp_path / "picks.jsonl"
        assert main(["sample-frames", "--frame-cls", str(cls_path),
                     "--text", str(text_path), "--k-select", "3",
                     "--depth", "1", "--heads", "2", "--out", str(out)]) == 0
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(lines) == 3
        for k, line in enumerate(lines):
            assert line["slot"] == k
            assert 0 <= line["index"] < 10
            assert len(line["soft"]) == 10
            assert sum(line["soft"]) == pytest.approx(1.0, abs=1e-9)

    def test_sample_frames_rejects_frame_count_mismatch(self, tmp_path, capsys):
        # A 30-frame checkpoint must refuse a 20-frame dump, not sample from it.
        cfg = desk_config(seed=2)
        model = VideoQAModel(cfg, Vocab(cfg.vocab_seed, cfg.dim), np.random.default_rng(2))
        save_checkpoint(tmp_path / "ckpt", model, step=0)
        rng = np.random.default_rng(0)
        cls_path, text_path = tmp_path / "cls.tdmp", tmp_path / "text.tdmp"
        save_tensor(cls_path, rng.normal(size=(20, cfg.dim)))
        save_tensor(text_path, rng.normal(size=cfg.dim))
        code = main(["sample-frames", "--frame-cls", str(cls_path), "--text", str(text_path),
                     "--checkpoint", str(tmp_path / "ckpt")])
        assert code == 1
        assert "bundle has 20 frames, sampler expects 30" in capsys.readouterr().err

    def test_sample_frames_checkpoint_rejects_config_flags(self, tmp_path, capsys):
        # The checkpoint fixes K and tau_g; a flag must not be silently ignored.
        cfg = desk_config(seed=2)
        model = VideoQAModel(cfg, Vocab(cfg.vocab_seed, cfg.dim), np.random.default_rng(2))
        save_checkpoint(tmp_path / "ckpt", model, step=0)
        (tmp_path / "cfg.json").write_text(cfg.to_json())
        rng = np.random.default_rng(0)
        cls_path, text_path = tmp_path / "cls.tdmp", tmp_path / "text.tdmp"
        save_tensor(cls_path, rng.normal(size=(cfg.n_frames, cfg.dim)))
        save_tensor(text_path, rng.normal(size=cfg.dim))
        base = ["sample-frames", "--frame-cls", str(cls_path), "--text", str(text_path),
                "--checkpoint", str(tmp_path / "ckpt")]
        assert main(base + ["--k-select", "2", "--tau-g", "0.1"]) == 1
        assert "drop --k-select, --tau-g" in capsys.readouterr().err
        assert main(base + ["--config", str(tmp_path / "cfg.json")]) == 1
        assert "drop --config" in capsys.readouterr().err
        assert main(base + ["--out", str(tmp_path / "picks.jsonl")]) == 0
        assert len((tmp_path / "picks.jsonl").read_text().splitlines()) == cfg.k_select

    def test_dump_tensor_inspects_file(self, tmp_path, capsys):
        path = tmp_path / "x.tdmp"
        save_tensor(path, np.arange(6, dtype=np.float64).reshape(2, 3))
        assert main(["dump-tensor", str(path), "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["shape"] == [2, 3]
        assert info["data"] == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_train_nan_exits_2(self, tmp_path):
        data = tmp_path / "data"
        overrides = ["--n-frames", "30", "--k-select", "4", "--depth", "1",
                     "--dim", "32", "--heads", "2", "--n-grid", "2"]
        main(["gen-data", "--out", str(data), "--episodes", "8", "--index-only",
              *overrides])
        code = main(["train", "--data", str(data), "--out", str(tmp_path / "c"),
                     "--steps", "5", "--batch-size", "4", "--lr", "1e15",
                     "--metrics", str(tmp_path / "m.jsonl"), *overrides])
        assert code == 2

    def test_gradcheck_detects_sabotaged_backward(self, monkeypatch):
        import glimpse.tensor as gt

        real_gelu = gt.gelu

        def broken_gelu(a):
            out = real_gelu(a)
            if out._backward is not None:
                real_bw = out._backward

                def lying_bw(g):
                    real_bw(g)
                    if a.grad is not None:
                        a.grad = a.grad * 1.05  # corrupt the rule
                out._backward = lying_bw
            return out

        monkeypatch.setattr("glimpse.tensor.gelu", broken_gelu)
        code = main(["gradcheck", "--n-frames", "3", "--k-select", "2",
                     "--depth", "1", "--dim", "8", "--heads", "2",
                     "--n-grid", "2"])
        assert code == 2
