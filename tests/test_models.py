import contextlib
import os
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from oracles import (combine, item_vector, predict, predict_all_items,
                     tower_grid_backward_reference, tower_grid_forward_reference)
from ncacf import data
from ncacf.data import FeatureTable
from ncacf.errors import ColdStartUnsupportedError, ConfigError, DataError
from ncacf.models import (Embeddings, Model, ModelVariant, combined_dim,
                          init_model, item_vectors, load_model, save_model,
                          score_matrix, tower_grid_backward, tower_grid_forward,
                          tower_widths)
from ncacf.numerics import AdamState, adam_step
from ncacf.training import group_params


def deep_model(seed=0, num_users=6, num_items=5, k=4, q=1,
               combination="multiplication", output_activation="sigmoid",
               coupling="relaxed", feature_dim=3):
    """An ncacf model; output_activation="identity" swaps the tower's sigmoid
    output for the identity, as the dot-product reduction needs."""
    model = init_model(ModelVariant("ncacf", coupling, combination, q), num_users,
                       num_items, k, feature_dim, seed, hidden_width=8,
                       extractor_layers=2)
    model.interaction.layers[-1].activation = output_activation
    return model


def random_features(rng, num_items, dim):
    return FeatureTable(rng.normal(0, 1, (num_items, dim)))


class TestVariantRules:
    def test_wmf_must_be_content_free(self):
        with pytest.raises(ConfigError):
            ModelVariant("wmf", "relaxed")

    def test_content_free_ncacf_names_ncf(self):
        with pytest.raises(ConfigError, match="family = ncf"):
            ModelVariant("ncacf", "content_free")

    def test_mf_families_force_dot_product(self):
        for fam in ("wmf", "dcb", "mf_hybrid", "mf_uni"):
            variant = ModelVariant(fam, "content_free" if fam == "wmf" else "relaxed")
            assert not variant.deep
            assert init_model(variant, 3, 4, 2, 2, seed=0).interaction is None

    def test_ncf_needs_deep(self):
        variant = ModelVariant("ncf", "content_free")
        assert variant.deep
        tower = init_model(variant, 3, 4, 2, 0, seed=0).interaction
        assert tower.layers[-1].activation == "sigmoid"


class TestInit:
    def test_same_seed_bit_identical(self):
        a = deep_model(seed=11)
        b = deep_model(seed=11)
        assert np.array_equal(a.embeddings.W, b.embeddings.W)
        assert np.array_equal(a.embeddings.H, b.embeddings.H)
        for la, lb in zip(a.extractor.layers, b.extractor.layers):
            assert np.array_equal(la.weights, lb.weights)
        for la, lb in zip(a.interaction.layers, b.interaction.layers):
            assert np.array_equal(la.weights, lb.weights)

    def test_embedding_std_near_configured(self):
        variant = ModelVariant("wmf", "content_free")
        model = init_model(variant, 1000, 100, 1, 0, seed=5)
        draws = np.concatenate([model.embeddings.W.ravel(), model.embeddings.H.ravel()])
        assert draws.size >= 1e5 * 0.01  # sanity on the sample size below
        model_big = init_model(variant, 10000, 10000, 5, 0, seed=5)
        std = np.concatenate([model_big.embeddings.W.ravel(),
                              model_big.embeddings.H.ravel()]).std()
        assert abs(std - 1e-2) <= 0.05 * 1e-2

    def test_output_layer_initialized_with_ones(self):
        model = deep_model(q=2)
        out_layer = model.interaction.layers[-1]
        assert out_layer.bias is None
        assert out_layer.weights.shape[0] == 1
        assert np.all(out_layer.weights == 1.0)

    def test_mlp_weights_within_fan_in_bound(self):
        model = deep_model(seed=3)
        first = model.extractor.layers[0]
        limit = np.sqrt(3.0 / first.in_dim)
        assert np.max(np.abs(first.weights)) <= limit

    def test_strict_has_no_item_matrix(self):
        variant = ModelVariant("mf_uni", "strict")
        model = init_model(variant, 4, 3, 2, 5, seed=0)
        assert model.embeddings.H is None


class TestCombine:
    def test_multiplication(self):
        npt.assert_array_equal(
            combine(np.array([1.0, 2.0]), np.array([3.0, 4.0]), "multiplication"),
            [3.0, 8.0])

    def test_concatenation(self):
        npt.assert_array_equal(
            combine(np.array([1.0, 2.0]), np.array([3.0, 4.0]), "concatenation"),
            [1.0, 2.0, 3.0, 4.0])

    def test_zero_absorbs_under_multiplication(self):
        w = np.array([5.0, -2.0])
        npt.assert_array_equal(combine(w, np.zeros(2), "multiplication"), np.zeros(2))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            combine(np.ones(2), np.ones(3), "multiplication")


class TestTowerWidths:
    def test_halving(self):
        assert tower_widths(16, 3) == [16, 8, 4]

    def test_clamped_at_one(self):
        assert tower_widths(4, 5) == [4, 2, 1, 1, 1]

    def test_combined_dim(self):
        assert combined_dim(8, "multiplication") == 8
        assert combined_dim(8, "concatenation") == 16


class TestItemVector:
    def test_relaxed_warm_uses_stored_column(self):
        rng = np.random.default_rng(0)
        model = deep_model(seed=1)
        feats = random_features(rng, model.num_items, model.feature_dim)
        npt.assert_array_equal(item_vector(model, 3, feats, "warm"),
                               model.embeddings.H[:, 3])

    def test_strict_always_extracts(self):
        rng = np.random.default_rng(1)
        model = deep_model(seed=2, coupling="strict")
        feats = random_features(rng, model.num_items, model.feature_dim)
        warm = item_vector(model, 2, feats, "warm")
        cold = item_vector(model, 2, feats, "cold")
        npt.assert_array_equal(warm, cold)

    def test_content_free_cold_unsupported(self):
        variant = ModelVariant("wmf", "content_free")
        model = init_model(variant, 4, 3, 2, 0, seed=0)
        with pytest.raises(ColdStartUnsupportedError):
            item_vector(model, 0, None, "cold")

    def test_relaxed_cold_uses_extractor(self):
        rng = np.random.default_rng(2)
        model = deep_model(seed=3)
        feats = random_features(rng, model.num_items, model.feature_dim)
        cold = item_vector(model, 1, feats, "cold")
        assert not np.allclose(cold, model.embeddings.H[:, 1])


class TestPredict:
    def test_dot_product(self):
        variant = ModelVariant("wmf", "content_free")
        model = init_model(variant, 2, 2, 2, 0, seed=0)
        model.embeddings = Embeddings(np.array([[1.0, 0.0], [0.0, 1.0]]),
                                      model.embeddings.H)
        assert predict(model, 0, np.array([0.5, 9.0])) == 0.5

    def test_deep_scores_strictly_in_unit_interval(self):
        rng = np.random.default_rng(3)
        model = deep_model(seed=4, q=2)
        for _ in range(20):
            s = predict(model, int(rng.integers(6)), rng.normal(0, 5, 4))
            assert 0.0 < s < 1.0

    def test_gmf_reduction_identity(self):
        # Unit output weights + identity activation + multiplication == dot.
        rng = np.random.default_rng(4)
        model = deep_model(seed=5, q=0, output_activation="identity")
        assert np.all(model.interaction.layers[0].weights == 1.0)
        for _ in range(100):
            w = rng.normal(0, 1, 4)
            h = rng.normal(0, 1, 4)
            model.embeddings.W[:, 0] = w
            deep = predict(model, 0, h)
            assert abs(deep - float(w @ h)) < 1e-12


class TestPredictAllItems:
    def test_singleton_consistency(self):
        rng = np.random.default_rng(5)
        model = deep_model(seed=6)
        feats = random_features(rng, model.num_items, model.feature_dim)
        items = np.array([2])
        got = predict_all_items(model, 1, items, feats, "warm")
        want = predict(model, 1, item_vector(model, 2, feats, "warm"))
        npt.assert_allclose(got, [want], atol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(6)
        model = deep_model(seed=7)
        feats = random_features(rng, model.num_items, model.feature_dim)
        items = np.arange(model.num_items)
        perm = rng.permutation(items)
        base = predict_all_items(model, 0, items, feats, "warm")
        shuffled = predict_all_items(model, 0, perm, feats, "warm")
        npt.assert_allclose(shuffled, base[perm], atol=1e-12)

    @pytest.mark.parametrize("combination", ["multiplication", "concatenation"])
    @pytest.mark.parametrize("setting", ["warm", "cold"])
    def test_batch_matches_per_item_loop(self, combination, setting):
        rng = np.random.default_rng(7)
        model = deep_model(seed=8, q=2, combination=combination)
        feats = random_features(rng, model.num_items, model.feature_dim)
        items = np.arange(model.num_items)
        batch = predict_all_items(model, 2, items, feats, setting)
        looped = [predict(model, 2, item_vector(model, int(i), feats, setting))
                  for i in items]
        npt.assert_allclose(batch, looped, atol=1e-12)

    @pytest.mark.parametrize("output_activation", ["sigmoid", "identity"])
    @pytest.mark.parametrize("q", [0, 1, 2])
    @pytest.mark.parametrize("combination", ["multiplication", "concatenation"])
    def test_score_matrix_matches_per_user(self, combination, q, output_activation):
        # The oracle is the per-pair path: the generic MLP on combine(w, h).
        rng = np.random.default_rng(8)
        model = deep_model(seed=9, q=q, combination=combination,
                           output_activation=output_activation)
        feats = random_features(rng, model.num_items, model.feature_dim)
        items = np.arange(model.num_items)
        iv = item_vectors(model, items, feats, "warm")
        S = score_matrix(model, iv)
        for u in range(model.num_users):
            want = [predict(model, u, iv[:, i]) for i in items]
            npt.assert_allclose(S[u], want, rtol=1e-12, atol=1e-12)
            npt.assert_allclose(predict_all_items(model, u, items, feats, "warm"),
                                want, rtol=1e-12, atol=1e-12)


class TestTowerKernels:
    @staticmethod
    def _tower(seed, k, q, combination, output_activation):
        """A tower with every weight and bias drawn, so that relu units sit on
        both sides of zero and the output weights are not all ones."""
        model = deep_model(seed=seed, k=k, q=q, combination=combination,
                           output_activation=output_activation)
        rng = np.random.default_rng(seed + 100)
        for layer in model.interaction.layers:
            layer.weights[...] = rng.normal(0, 1, layer.weights.shape)
            if layer.bias is not None:
                layer.bias[...] = rng.normal(0, 1, layer.bias.shape)
        return model.interaction

    # k = 1 clamps hidden layers to width 1, whose bias sums take sum's path.
    @pytest.mark.parametrize("k, users, items", [(1, 3, 5), (4, 7, 9), (16, 13, 70)])
    @pytest.mark.parametrize("output_activation", ["sigmoid", "identity"])
    @pytest.mark.parametrize("q", [0, 1, 2])
    @pytest.mark.parametrize("combination", ["multiplication", "concatenation"])
    def test_bit_equal_to_reference(self, combination, q, output_activation, k,
                                    users, items):
        tower = self._tower(20 + q + k, k, q, combination, output_activation)
        rng = np.random.default_rng(q + k)
        W = rng.normal(0, 1, (k, users))
        H = rng.normal(0, 1, (k, items))
        S, cache = tower_grid_forward(tower, W, H, combination)
        S_ref, cache_ref = tower_grid_forward_reference(tower, W, H, combination)
        assert np.array_equal(S, S_ref)
        _, _, first, rest = cache
        _, _, first_ref, rest_ref = cache_ref
        if first is not None:
            assert np.array_equal(first[-1], first_ref[-1])
        for layer, layer_ref in zip(rest or (), rest_ref or ()):
            assert np.array_equal(layer[0], layer_ref[0])
            assert np.array_equal(layer[-1], layer_ref[-1])
        # Training passes C-ordered score gradients; a Fortran-ordered one
        # must give the same bits too.
        for grad_scores in (rng.normal(0, 1, (users, items)),
                            np.asfortranarray(rng.normal(0, 1, (users, items)))):
            before = grad_scores.copy()
            grads, gW, gH = tower_grid_backward(tower, cache, grad_scores)
            want, gW_ref, gH_ref = tower_grid_backward_reference(tower, cache_ref,
                                                                 grad_scores)
            assert np.array_equal(grad_scores, before)
            assert grads.keys() == want.keys() == tower.param_dict().keys()
            for name in want:
                assert np.array_equal(grads[name], want[name]), name
            assert np.array_equal(gW, gW_ref)
            assert np.array_equal(gH, gH_ref)

    def test_sub_block_allocates_below_parent_kernels(self):
        """The peak of one sub-block's forward and backward passes (64 users
        x 64 items, grid width 32) stays below 4 grids of floats. It is about
        3.1; the kernels that kept separate pre- and post-activation grids
        and multiplied by fresh masks (oracles' reference kernels) peaked at
        about 5.3."""
        k, users, items = 16, 64, 64
        tower = self._tower(5, k, 2, "concatenation", "sigmoid")
        assert max(layer.out_dim for layer in tower.layers) == 2 * k
        rng = np.random.default_rng(6)
        W, H = rng.normal(0, 1, (k, users)), rng.normal(0, 1, (k, items))
        grad_scores = rng.normal(0, 1, (users, items))
        tower_grid_backward(tower, tower_grid_forward(tower, W, H, "concatenation")[1],
                            grad_scores)  # warm up lazy allocations
        tracemalloc.start()
        try:
            _, cache = tower_grid_forward(tower, W, H, "concatenation")
            tower_grid_backward(tower, cache, grad_scores)
            del cache
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * users * items * 2 * k * 8


class TestCheckpoint:
    def test_roundtrip_predictions_bit_identical(self, tmp_path):
        rng = np.random.default_rng(9)
        model = deep_model(seed=10, q=2, combination="concatenation")
        feats = random_features(rng, model.num_items, model.feature_dim)
        path = tmp_path / "model.ckpt"
        save_model(path, model, extra_header={"split_mode": "warm", "fold": 0})
        back, header, _, _ = load_model(path)
        assert back.variant == model.variant
        assert header["split_mode"] == "warm"
        items = np.arange(model.num_items)
        for u in range(model.num_users):
            a = predict_all_items(model, u, items, feats, "warm")
            b = predict_all_items(back, u, items, feats, "warm")
            assert np.array_equal(a, b)

    def test_strict_roundtrip_without_h(self, tmp_path):
        variant = ModelVariant("mf_uni", "strict")
        model = init_model(variant, 4, 3, 2, 5, seed=0)
        path = tmp_path / "m.ckpt"
        save_model(path, model)
        back, _, _, _ = load_model(path)
        assert back.embeddings.H is None
        assert np.array_equal(back.embeddings.W, model.embeddings.W)

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        save_model(path, deep_model(seed=13))
        before = path.read_bytes()
        real_replacing = data.replacing

        class HalfWriter:  # writes half of its first write, then fails
            def __init__(self, fh):
                self.fh = fh

            def write(self, raw):
                self.fh.write(raw[:len(raw) // 2])
                raise OSError("write failed")

        @contextlib.contextmanager
        def failing(target):
            with real_replacing(target) as fh:
                yield HalfWriter(fh)

        monkeypatch.setattr(data, "replacing", failing)
        with pytest.raises(OSError, match="write failed"):
            save_model(path, deep_model(seed=14))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.ckpt"]

    def test_every_cut_and_bit_flip_is_data_error(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_model(path, deep_model(seed=15, num_users=2, num_items=2, k=2))
        raw = path.read_bytes()
        damaged = tmp_path / "damaged.ckpt"
        # Every cut, and one flipped bit in every byte (the bit cycling
        # through all eight positions).
        cases = [raw[:size] for size in range(len(raw))]
        for offset in range(len(raw)):
            flipped = bytearray(raw)
            flipped[offset] ^= 1 << (offset % 8)
            cases.append(bytes(flipped))
        for case in cases:
            damaged.write_bytes(case)
            with pytest.raises(DataError) as exc:
                load_model(damaged)
            assert str(damaged) in str(exc.value)

    def test_training_state_roundtrip_bit_equal(self, tmp_path):
        model = deep_model(seed=16, q=2, combination="concatenation")
        rng = np.random.default_rng(17)
        adams = {}
        for group in ("W", "H", "extractor", "interaction"):
            params = group_params(model, group)
            state = AdamState.init(params, lr=3e-3, beta2=0.99)
            for _ in range(2):
                grads = {name: rng.normal(size=p.shape) for name, p in params.items()}
                params, state = adam_step(state, params, grads)
            adams[group] = state
        path = tmp_path / "state.ckpt"
        save_model(path, model, {"progress": {"global_epoch": 2}}, adams)
        back, header, back_adams, _ = load_model(path)
        assert header["progress"] == {"global_epoch": 2}
        assert (back.variant, back.init_seed) == (model.variant, model.init_seed)
        for a, b in ((model.embeddings.W, back.embeddings.W),
                     (model.embeddings.H, back.embeddings.H)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        for name in ("extractor", "interaction"):
            want, got = getattr(model, name), getattr(back, name)
            assert [l.activation for l in want.layers] == [l.activation for l in got.layers]
            assert want.param_dict().keys() == got.param_dict().keys()
            for key, arr in want.param_dict().items():
                assert np.array_equal(arr, got.param_dict()[key]), (name, key)
        assert back_adams.keys() == adams.keys()
        for group, state in adams.items():
            got = back_adams[group]
            assert ((got.step, got.lr, got.beta1, got.beta2, got.eps)
                    == (state.step, state.lr, state.beta1, state.beta2, state.eps))
            for moment in ("m", "v"):
                want_table, got_table = getattr(state, moment), getattr(got, moment)
                assert want_table.keys() == got_table.keys()
                for key, arr in want_table.items():
                    assert np.array_equal(arr, got_table[key]), (group, moment, key)

    def test_stored_validation_round_trip(self, tmp_path):
        """load_model returns the stored validation apart from the header, so
        a checkpoint saved again from its (model, header) holds none."""
        model = deep_model(seed=18)
        stored = {"setting": "cold", "fold": 1, "num_excluded": 2, "tau": 7.0,
                  "top_k": 10, "users": np.array([2, 5], dtype=np.int64),
                  "ndcg": np.array([0.5, 1.0])}
        path, again, plain = (tmp_path / name for name in ("v.ckpt", "again.ckpt",
                                                            "plain.ckpt"))
        save_model(path, model, {"prepared": [1, 2]}, validation=stored)
        back, header, _, got = load_model(path)
        assert "validation" not in header and got.keys() == stored.keys()
        for key, value in stored.items():
            assert type(got[key]) is type(value) and np.array_equal(got[key], value), key
            if isinstance(value, np.ndarray):
                assert got[key].dtype == value.dtype, key
        save_model(again, back, header)
        save_model(plain, model, {"prepared": [1, 2]})
        assert again.read_bytes() == plain.read_bytes()
        assert load_model(again)[3] is None

    def test_file_bytes_deterministic(self, tmp_path):
        model = deep_model(seed=12)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_model(a, model)
        save_model(b, model)
        assert a.read_bytes() == b.read_bytes()
