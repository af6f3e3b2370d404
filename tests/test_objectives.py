"""Loss anchors, exchange/masking procedures, and answer heads."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glimpse import tensor as T
from glimpse.config import desk_config
from glimpse.data import Vocab, gen_episode
from glimpse.gradcheck import grad_check
from glimpse.model import VideoQAModel
from glimpse.nn import Linear, Mlp
from glimpse.objectives import (
    answer_cross_entropy,
    answer_multichoice,
    answer_open_ended,
    contrastive_loss,
    exchange_annotations,
    mask_tokens,
    vg_mlm_loss,
    vtm_loss,
)
from glimpse.tensor import Tensor
from glimpse.train import AdamW, NumericFailure, train_step


def zero_linear(d_in, d_out):
    head = Linear(d_in, d_out, np.random.default_rng(0))
    head.w = Tensor(np.zeros((d_in, d_out)), requires_grad=True)
    return head


def zero_mlp(d_in, hidden, d_out):
    head = Mlp(d_in, hidden, np.random.default_rng(0), out_dim=d_out)
    head.fc2.w = Tensor(np.zeros((hidden, d_out)), requires_grad=True)
    head.fc2.b = Tensor(np.zeros(d_out), requires_grad=True)
    return head


def moved(order):
    """The rows that show another row's annotation."""
    return np.flatnonzero(order != np.arange(len(order)))


class TestExchange:
    def test_p_zero_is_the_identity(self):
        assert exchange_annotations(6, 0.0, rng_seed=1).tolist() == list(range(6))

    def test_p_one_pair_swaps_both(self):
        assert exchange_annotations(2, 1.0, rng_seed=2).tolist() == [1, 0]

    def test_exchange_is_an_involution(self):
        order = exchange_annotations(17, 0.6, rng_seed=3)
        assert sorted(order.tolist()) == list(range(17))
        assert (order[order] == np.arange(17)).all()
        assert moved(order).size

    def test_unmatched_fraction_tracks_probability(self):
        fractions = [moved(exchange_annotations(256, 0.5, rng_seed=seed)).size / 256
                     for seed in range(100)]
        assert abs(np.mean(fractions) - 0.5) < 0.07

    def test_invalid_probability_rejected(self):
        for p in (1.5, -0.1):
            with pytest.raises(ValueError, match="exchange probability"):
                exchange_annotations(2, p, rng_seed=0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 12), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_exchange_moves_the_flagged_rows_but_an_odd_leftover(size, p, seed):
    order = exchange_annotations(size, p, rng_seed=seed)
    # A permutation that is its own inverse: moved rows come in pairs that
    # show each other's annotation.
    assert sorted(order.tolist()) == list(range(size))
    assert (order[order] == np.arange(size)).all()
    # The moved rows are the flagged rows, replayed from the seed, but the
    # last one shuffled when their count is odd, which stays matched.
    rng = np.random.default_rng(seed)
    flagged = np.flatnonzero(rng.random(size) < p)
    rng.shuffle(flagged)
    leftover = set(flagged[-1:].tolist()) if len(flagged) % 2 else set()
    assert set(moved(order).tolist()) == set(flagged.tolist()) - leftover


class TestVtmLoss:
    def test_uniform_logits_give_ln2(self):
        head = zero_linear(8, 2)
        loss = vtm_loss(Tensor(np.random.default_rng(0).normal(size=(3, 8))),
                        [0, 1, 0], head)
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_confident_correct_is_near_zero(self):
        head = Linear(1, 2, np.random.default_rng(0))
        head.w = Tensor(np.array([[20.0, -20.0]]), requires_grad=True)
        loss = vtm_loss(Tensor([[1.0]]), [0], head)
        assert loss.item() < 1e-8

    def test_hand_value(self):
        # logits [1, 3], label 0 -> log(1 + e^2)
        head = Linear(2, 2, np.random.default_rng(0))
        head.w = Tensor(np.array([[1.0, 0.0], [0.0, 3.0]]), requires_grad=True)
        loss = vtm_loss(Tensor([[1.0, 1.0]]), [0], head)
        assert loss.item() == pytest.approx(math.log(1.0 + math.e ** 2), rel=1e-12)
        assert loss.item() == pytest.approx(2.126928, abs=1e-6)

    def test_nonnegative_and_differentiable(self):
        rng = np.random.default_rng(1)
        v = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        head = Linear(6, 2, np.random.default_rng(2))
        loss = vtm_loss(v, [1, 0, 1, 1], head)
        assert loss.item() >= 0
        report = grad_check(lambda: vtm_loss(v, [1, 0, 1, 1], head), [v, head.w])
        assert report.passed, report.max_rel_error


class TestContrastiveLoss:
    def test_single_matched_pair_is_exactly_zero(self):
        rng = np.random.default_rng(3)
        v = Tensor(rng.normal(size=(1, 8)))
        loss = contrastive_loss(v, Tensor(rng.normal(size=(1, 8))), [True], tau=0.07)
        assert loss.item() == 0.0

    def test_two_orthogonal_pairs_hand_value(self):
        v = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        loss = contrastive_loss(v, v, [True, True], tau=0.07)
        expected = 2.0 * math.log(1.0 + math.exp(-1.0 / 0.07))
        assert loss.item() == pytest.approx(expected, rel=1e-9)
        assert loss.item() == pytest.approx(1.25e-6, rel=2e-2)

    def test_power_of_two_scaling_is_bit_identical(self):
        rng = np.random.default_rng(4)
        v = rng.normal(size=(4, 8))
        t = rng.normal(size=(4, 8))
        flags = [True, False, True, True]
        base = contrastive_loss(Tensor(v), Tensor(t), flags, tau=0.07).item()
        for c in (2.0 ** -6, 2.0, 2.0 ** 9):
            scaled = contrastive_loss(Tensor(v * c), Tensor(t * c), flags, tau=0.07).item()
            assert scaled == base

    def test_unmatched_rows_contribute_nothing_but_pad_denominator(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=(3, 8))
        t = rng.normal(size=(3, 8))
        with_unmatched = contrastive_loss(Tensor(v), Tensor(t), [True, False, True], 0.07)
        all_matched = contrastive_loss(Tensor(v), Tensor(t), [True, True, True], 0.07)
        # Dropping row 1 from the outer sum can only lower the total.
        assert with_unmatched.item() < all_matched.item()

    def test_no_matched_pairs_returns_zero(self):
        # The masked sum over no matched rows is exactly zero, with no special case.
        rng = np.random.default_rng(6)
        v = Tensor(rng.normal(size=(2, 4)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss = contrastive_loss(v, v, [False, False], tau=0.07)
        assert loss.item() == 0.0

    def test_nonpositive_temperature_rejected(self):
        v = Tensor(np.ones((1, 2)))
        with pytest.raises(ValueError, match="nonpositive temperature"):
            contrastive_loss(v, v, [True], tau=0.0)

    def test_zero_norm_row_rejected(self):
        v = Tensor(np.array([[0.0, 0.0]]))
        with pytest.raises(ValueError, match="zero-norm vector"):
            contrastive_loss(v, Tensor(np.ones((1, 2))), [True], tau=0.07)

    def test_nonnegative_and_differentiable(self):
        rng = np.random.default_rng(7)
        v = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        t = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        flags = [True, True, False]
        loss = contrastive_loss(v, t, flags, tau=0.5)
        assert loss.item() >= 0
        report = grad_check(lambda: contrastive_loss(v, t, flags, tau=0.5), [v, t])
        assert report.passed, report.max_rel_error


class TestMaskTokens:
    def setup_method(self):
        self.vocab = Vocab(seed=0, dim=24)
        self.tokens = self.vocab.encode(["what", "color", "at", "early", "with",
                                         "cube", "left", "?"])

    def test_rate_zero_forces_exactly_one(self):
        masked = mask_tokens(self.tokens, rng_seed=0, mask_rate=0.0, vocab=self.vocab)
        assert len(masked.mask_positions) == 1
        assert masked.original_ids == [self.tokens[masked.mask_positions[0]]]

    def test_rate_one_masks_every_nonspecial(self):
        masked = mask_tokens(self.tokens, rng_seed=1, mask_rate=1.0, vocab=self.vocab)
        assert masked.mask_positions == list(range(len(self.tokens)))

    def test_positions_unique_and_originals_recorded(self):
        for seed in range(40):
            masked = mask_tokens(self.tokens, rng_seed=seed, mask_rate=0.15, vocab=self.vocab)
            assert len(set(masked.mask_positions)) == len(masked.mask_positions)
            for pos, orig in zip(masked.mask_positions, masked.original_ids):
                assert self.tokens[pos] == orig

    def test_special_tokens_never_masked(self):
        tokens = [self.vocab.pad_id] + self.tokens
        for seed in range(20):
            masked = mask_tokens(tokens, rng_seed=seed, mask_rate=1.0, vocab=self.vocab)
            assert 0 not in masked.mask_positions

    def test_replacement_split_is_80_10_10(self):
        # Read from each masked position's token against its original; a random
        # draw of the original itself counts as kept.
        counts = {"mask": 0, "random": 0, "kept": 0}
        total = 0
        for seed in range(30_000):
            masked = mask_tokens(self.tokens, rng_seed=seed, mask_rate=0.3,
                                 vocab=self.vocab)
            for pos, original in zip(masked.mask_positions, masked.original_ids):
                token = masked.token_ids[pos]
                counts["mask" if token == self.vocab.mask_id
                       else "kept" if token == original else "random"] += 1
                total += 1
        assert counts["mask"] / total == pytest.approx(0.8, abs=0.02)
        assert counts["random"] / total == pytest.approx(0.1, abs=0.02)
        assert counts["kept"] / total == pytest.approx(0.1, abs=0.02)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            mask_tokens([], rng_seed=0, mask_rate=0.15, vocab=self.vocab)


class TestVgMlmLoss:
    def test_uniform_logits_give_ln2_for_two_word_vocab(self):
        masked = type("M", (), {})()
        from glimpse.objectives import MaskedText
        masked = MaskedText(token_ids=[0, 1], mask_positions=[1], original_ids=[1])
        dim = 4
        head = zero_mlp(2 * dim, 8, 2)  # vocab of two words, zero logits
        encode = lambda ids: Tensor(np.random.default_rng(0).normal(size=(1, 2, dim)))
        loss = vg_mlm_loss([masked], encode, Tensor(np.ones((1, dim))), head)
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_stop_gradient_contract(self):
        # The text encoder must receive exactly zero gradient through the
        # masked-token path while the video CLS receives a nonzero one.
        from glimpse.objectives import MaskedText
        rng = np.random.default_rng(8)
        dim, vocab_size = 6, 9
        embed = Tensor(rng.normal(size=(vocab_size, dim)), requires_grad=True)
        masked = [MaskedText(token_ids=[3, 4, 5], mask_positions=[0, 2],
                             original_ids=[2, 7])]
        v_star = Tensor(rng.normal(size=(1, dim)), requires_grad=True)
        head = Mlp(2 * dim, 16, np.random.default_rng(9), out_dim=vocab_size)

        def encode(ids):
            return T.take(embed, ids)

        loss = vg_mlm_loss(masked, encode, v_star, head)
        loss.backward()
        assert embed.grad is None  # the only path into the embeddings is cut
        assert v_star.grad is not None and np.abs(v_star.grad).max() > 0

        # Finite differences confirm the live path into the video CLS.
        report = grad_check(lambda: vg_mlm_loss(masked, encode, v_star, head),
                            [v_star] + head.parameters())
        assert report.passed, report.max_rel_error

    def test_batch_is_mean_of_per_text_means(self):
        # Texts with different numbers of masked words weigh equally, as if
        # each text's loss were computed alone and the results averaged.
        from glimpse.objectives import MaskedText
        rng = np.random.default_rng(10)
        dim, vocab_size = 6, 9
        embed = Tensor(rng.normal(size=(vocab_size, dim)))
        masked = [MaskedText(token_ids=[3, 4, 5, 1], mask_positions=[0, 2, 3],
                             original_ids=[2, 7, 1]),
                  MaskedText(token_ids=[6, 8, 2, 2], mask_positions=[1], original_ids=[4])]
        v_star = rng.normal(size=(2, dim))
        head = Mlp(2 * dim, 16, np.random.default_rng(11), out_dim=vocab_size)
        encode = lambda ids: T.take(embed, ids)
        batched = vg_mlm_loss(masked, encode, Tensor(v_star), head).item()
        alone = [vg_mlm_loss([m], encode, Tensor(v_star[j:j + 1]), head).item()
                 for j, m in enumerate(masked)]
        assert batched == pytest.approx(sum(alone) / 2, rel=1e-12)

    def test_empty_mask_positions_rejected(self):
        from glimpse.objectives import MaskedText
        masked = MaskedText(token_ids=[1, 2], mask_positions=[], original_ids=[])
        head = zero_mlp(8, 4, 2)
        with pytest.raises(ValueError, match="force"):
            vg_mlm_loss([masked], lambda ids: Tensor(np.zeros((1, 2, 4))),
                        Tensor(np.zeros((1, 4))), head)


def weighted_step_record(**weights):
    # One desk train_step with the given loss weights; returns its record and
    # the float32 weighted terms vtm, vgmlm, cl, qa in the order they are summed.
    cfg = desk_config(steps=1, batch_size=8, exchange_prob=0.5, seed=2, **weights)
    vocab = Vocab(cfg.vocab_seed, cfg.dim)
    episodes = [gen_episode(s, cfg.n_frames, cfg.n_grid, cfg.dim, vocab) for s in range(8)]
    model = VideoQAModel(cfg, vocab, np.random.default_rng(cfg.seed))
    optimizer = AdamW(list(model.named_parameters()), cfg.weight_decay)
    record = train_step(model, optimizer, episodes, cfg, 0)
    f32 = np.float32
    terms = [f32(record[key]) * f32(w) for key, w in (
        ("l_vtm", cfg.w_vtm), ("l_vgmlm", cfg.w_vgmlm), ("l_cl", cfg.w_cl), ("l_qa", cfg.w_qa))]
    return record, terms


class TestTotalLoss:
    def test_plain_sum(self):
        # Unit weights: l_total is the float32 sum vtm + vgmlm + cl + qa,
        # added left to right, compared to the bit.
        record, terms = weighted_step_record()
        assert all(terms)
        assert terms == [np.float32(record[key]) for key in ("l_vtm", "l_vgmlm", "l_cl", "l_qa")]
        assert record["l_total"] == float(((terms[0] + terms[1]) + terms[2]) + terms[3])

    def test_weights_apply_per_term(self):
        # Each term is multiplied by its own weight before the left-to-right
        # sum.  No weight is 1 and all differ, so a dropped or swapped weight
        # shows, and the sum is compared to the bit.
        record, terms = weighted_step_record(w_vtm=0.3, w_vgmlm=1.7, w_cl=0.6, w_qa=2.3)
        assert all(terms)
        assert record["l_total"] == float(((terms[0] + terms[1]) + terms[2]) + terms[3])

    def test_nan_term_names_itself(self, monkeypatch):
        # train_step checks every term before it sums them; a NaN masked-word
        # term must surface as a numeric failure that names it.
        cfg = desk_config(steps=1, batch_size=4, exchange_prob=0.0, seed=2)
        vocab = Vocab(cfg.vocab_seed, cfg.dim)
        episodes = [gen_episode(s, cfg.n_frames, cfg.n_grid, cfg.dim, vocab) for s in range(4)]
        model = VideoQAModel(cfg, vocab, np.random.default_rng(cfg.seed))
        optimizer = AdamW(list(model.named_parameters()), cfg.weight_decay)
        monkeypatch.setattr("glimpse.train.vg_mlm_loss", lambda *args: Tensor(np.nan))
        with pytest.raises(NumericFailure, match="non-finite loss term 'vgmlm' at step 0") as err:
            train_step(model, optimizer, episodes, cfg, 0)
        assert err.value.term == "vgmlm"


class TestAnswerHeads:
    def test_single_answer_space(self):
        head = zero_mlp(4, 8, 1)
        picks = answer_open_ended(Tensor(np.ones((2, 4))), head)
        assert isinstance(picks, np.ndarray) and picks.tolist() == [0, 0]

    def test_tie_goes_to_lowest_index(self):
        head = zero_mlp(4, 8, 5)  # all logits zero -> five-way tie
        picks = answer_open_ended(Tensor(np.ones((1, 3, 4))), head)
        assert isinstance(picks, np.ndarray) and picks.tolist() == [[0, 0, 0]]

    def test_multichoice_identical_candidates_tie(self):
        head = zero_linear(4, 2)
        candidates = Tensor(np.ones((1, 3, 4)))
        picks = answer_multichoice(candidates, head)
        assert isinstance(picks, np.ndarray) and picks.tolist() == [0]

    def test_multichoice_picks_largest_matched_logit(self):
        head = Linear(2, 2, np.random.default_rng(0))
        head.w = Tensor(np.array([[0.0, 1.0], [0.0, -1.0]]), requires_grad=True)
        candidates = Tensor(np.array([[[-10.0, 0.0], [10.0, 0.0], [-10.0, 0.0]]]))
        assert answer_multichoice(candidates, head).tolist() == [1]

    def test_answer_cross_entropy_matches_uniform_anchor(self):
        head = zero_mlp(4, 8, 8)
        loss = answer_cross_entropy(Tensor(np.ones((2, 4))), [3, 5], head)
        assert loss.item() == pytest.approx(math.log(8.0), abs=1e-12)
