import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdhash.errors import (
    CapacityError,
    ChecksumError,
    ConfigError,
    DataError,
    DivergenceError,
    FormatError,
    ShapeError,
    TruncationError,
    VersionError,
)
from hdhash.codes import HashCode, pack_bits
from hdhash.features import FeatureMatrix, NormStats, normalize
from hdhash.rbm import Rbm
from hdhash.pipeline import (
    Model,
    TrainingConfig,
    config_lines,
    encode_matrix,
    init_model,
    load_model,
    parse_config_text,
    save_model,
    train,
)

def tiny_config(**overrides):
    base = dict(layer_dims=(4, 3), code_bits=2, epochs=1, batch_size=4, seed=1,
                outer_iters=1, init_mode="symmetric")
    base.update(overrides)
    return TrainingConfig(**base)


def tiny_data(rows=10, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    return FeatureMatrix(rng.uniform(-1, 1, size=(rows, dim)))


CLUSTER_CONFIG = dict(layer_dims=(32, 16, 8), code_bits=8, epochs=20, batch_size=10,
                      alpha=0.015, beta=200.0, outer_iters=5, init_mode="symmetric")


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            tiny_config(alpha=0.0)
        with pytest.raises(ConfigError):
            tiny_config(layer_dims=(4,))
        with pytest.raises(ConfigError):
            tiny_config(code_bits=0)
        with pytest.raises(ConfigError):
            tiny_config(outer_iters=0)
        with pytest.raises(ConfigError):
            tiny_config(decorrelation_mode="nope")
        with pytest.raises(ConfigError):
            tiny_config(eps_sae=-1.0)
        with pytest.raises(ConfigError):
            tiny_config(lam=-0.1)
        with pytest.raises(ConfigError):
            tiny_config(mu=-1.0)
        with pytest.raises(ConfigError):
            tiny_config(seed=-1)
        with pytest.raises(ConfigError):
            tiny_config(beta=0.5)
        for field, value in (("epochs", 0), ("batch_size", 0), ("cd_steps", 0),
                             ("max_repeats_per_iter", -1), ("eps_rbm", float("nan")),
                             ("layer_dims", (4, 0)), ("beta", float("inf")),
                             ("init_mode", "nope")):
            with pytest.raises(ConfigError):
                tiny_config(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("layer_dims", (4.7, 3)), ("layer_dims", (4, True)),
        ("max_repeats_per_iter", 1.5), ("epochs", 2.5), ("batch_size", 4.0),
        ("code_bits", 4.0), ("seed", 1.5), ("cd_steps", 1.5), ("outer_iters", 2.5),
        ("seed", np.float64(1.0)), ("lam", "0.1"), ("mu", None), ("beta", "10"),
        ("alpha", [0.01]), ("eps_sae", "auto"), ("eps_rbm", "1e-3"),
        ("layer_dims", 4), pytest.param("lam", 10**400, id="lam-10**400"),
        pytest.param("eps_sae", 10**400, id="eps_sae-10**400"),
    ])
    def test_wrong_kind_rejected_naming_field(self, field, value):
        # A count is an integer, never rounded ((4.7, 3) is not (4, 3)), and a
        # weight a number; either way the error names the field.
        with pytest.raises(ConfigError, match=f"^{field}: "):
            tiny_config(**{field: value})

    def test_numpy_scalars_accepted(self):
        config = tiny_config(layer_dims=(np.int64(4), 3), code_bits=np.int32(2),
                             lam=np.float32(0.5), seed=np.uint32(7))
        assert config.layer_dims == (4, 3) and type(config.layer_dims[0]) is int

    def test_parse_round_trip(self):
        config = tiny_config(lam=0.25, eps_sae=1e-3, eps_rbm=None)
        text = "\n".join(config_lines(config, prefix=""))
        assert parse_config_text(text) == config

    @given(lam=st.floats(0.0, 1e308), mu=st.floats(0.0, 1e308),
           beta=st.floats(1.0, 1.7e308), alpha=st.floats(0.0, 1.7e308, exclude_min=True),
           eps_sae=st.none() | st.floats(0.0, allow_nan=False),
           eps_rbm=st.none() | st.floats(0.0, allow_nan=False),
           layer_dims=st.lists(st.integers(1, 2**40), min_size=2, max_size=4),
           seed=st.integers(0, 2**64))
    @settings(max_examples=200, deadline=None)
    def test_parse_round_trip_extremes(self, **fields):
        # eps=inf ("never repeat") and floats down to the subnormals
        config = tiny_config(**fields)
        assert parse_config_text("\n".join(config_lines(config, prefix=""))) == config

    @pytest.mark.parametrize("key, value", [
        ("code_bits", "0_2"), ("code_bits", "\uff12"), ("seed", "\u0661"),
        ("lambda", "0_1"), ("eps_sae", "1_0"), ("layer_dims", "4,,3"),
        ("layer_dims", "4,3,"), ("layer_dims", "4,\u0663"),
    ])
    def test_non_ascii_numeral_rejected(self, key, value):
        # int()/float() read each of these; an empty layer_dims part was skipped.
        lines = [f"{key}={value}" if line.startswith(key + "=") else line
                 for line in config_lines(tiny_config(), prefix="")]
        with pytest.raises(ConfigError, match=key):
            parse_config_text("\n".join(lines))

    def test_missing_key_named(self):
        config = tiny_config()
        lines = [l for l in config_lines(config, prefix="") if not l.startswith("alpha=")]
        with pytest.raises(ConfigError) as err:
            parse_config_text("\n".join(lines))
        assert "alpha" in str(err.value)

    def test_unknown_key(self):
        config = tiny_config()
        text = "\n".join(config_lines(config, prefix="")) + "\nbogus=1"
        with pytest.raises(ConfigError) as err:
            parse_config_text(text)
        assert "bogus" in str(err.value)

    def test_duplicate_key(self):
        config = tiny_config()
        text = "\n".join(config_lines(config, prefix="")) + "\nseed=2"
        with pytest.raises(ConfigError):
            parse_config_text(text)

    def test_comments_and_blank_lines(self):
        config = tiny_config()
        text = "# a comment\n\n" + "\n".join(config_lines(config, prefix=""))
        assert parse_config_text(text) == config


class TestInitModel:
    def test_deterministic(self):
        config = tiny_config(init_mode="paper")
        a = init_model(config)
        b = init_model(config)
        np.testing.assert_array_equal(a.sae.layers[0].enc_w, b.sae.layers[0].enc_w)
        np.testing.assert_array_equal(a.rbm.w, b.rbm.w)

    def test_paper_mode_range(self):
        config = TrainingConfig(layer_dims=(6, 5, 4), code_bits=3, epochs=1,
                                batch_size=1, seed=3, init_mode="paper")
        model = init_model(config)
        for layer in model.sae.layers:
            for block in (layer.enc_w, layer.enc_b, layer.dec_w, layer.dec_b):
                assert np.all(block >= 0.0) and np.all(block < 1.0)
        for block in (model.rbm.w, model.rbm.vis_bias, model.rbm.hid_bias):
            assert np.all(block >= 0.0) and np.all(block < 1.0)

    def test_symmetric_mode_bounds(self):
        config = TrainingConfig(layer_dims=(6, 4), code_bits=3, epochs=1,
                                batch_size=1, seed=3, init_mode="symmetric")
        model = init_model(config)
        s = np.sqrt(6.0 / (6 + 4))
        layer = model.sae.layers[0]
        assert np.all(np.abs(layer.enc_w) <= s)

    def test_model_rbm_settings_are_the_configs(self):
        model = init_model(tiny_config())
        other = Rbm(model.rbm.w, model.rbm.vis_bias, model.rbm.hid_bias,
                    beta=model.rbm.beta + 1, cd_steps=model.rbm.cd_steps)
        with pytest.raises(ConfigError):
            Model(model.sae, other, model.norm_stats, model.config)

    def test_model_shapes_are_the_configs(self):
        # Either model would save a file that load_model refuses.
        model = init_model(tiny_config())
        with pytest.raises(ConfigError, match="stack dims"):
            Model(model.sae, model.rbm, model.norm_stats, tiny_config(layer_dims=(5, 3)))
        with pytest.raises(ConfigError, match="normalization width"):
            Model(model.sae, model.rbm, NormStats.identity(7), model.config)

    def test_structure(self):
        config = TrainingConfig(layer_dims=(4, 8), code_bits=3, epochs=1,
                                batch_size=1, seed=0)
        model = init_model(config)
        assert model.sae.dims == [4, 8]
        assert model.rbm.v_dim == 8 and model.rbm.h_dim == 3


class TestTrain:
    def test_single_iteration_history(self):
        data = tiny_data(rows=10)
        config = tiny_config(epochs=1, batch_size=10, outer_iters=1)
        model, history = train(config, data)
        assert len(history) == 1
        assert history[0].iteration == 1
        assert history[0].sae_repeats == 0 and history[0].rbm_repeats == 0

    def test_deterministic(self):
        data = tiny_data(rows=12)
        config = tiny_config(epochs=3, batch_size=4, outer_iters=3)
        m1, h1 = train(config, data)
        m2, h2 = train(config, data)
        assert h1 == h2
        np.testing.assert_array_equal(m1.rbm.w, m2.rbm.w)
        np.testing.assert_array_equal(m1.sae.layers[0].enc_w, m2.sae.layers[0].enc_w)

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            train(tiny_config(), tiny_data(dim=5))

    def test_capacity(self):
        with pytest.raises(CapacityError):
            train(tiny_config(epochs=4, batch_size=4), tiny_data(rows=10))

    def test_requires_normalized_data(self):
        rng = np.random.default_rng(0)
        raw = FeatureMatrix(rng.normal(0, 10, size=(10, 4)))
        with pytest.raises(DataError):
            train(tiny_config(), raw)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_detected_with_stage(self):
        data = tiny_data(rows=10)
        config = tiny_config(alpha=1e308, outer_iters=2, epochs=2, batch_size=5)
        with pytest.raises(DivergenceError) as err:
            train(config, data)
        assert err.value.stage in ("sae", "rbm")
        assert err.value.iteration == 1
        assert err.value.stage in str(err.value)

    def test_reconstruction_improves_on_clusters(self, cluster_data):
        raw_train, _ = cluster_data
        data = normalize(raw_train)
        config = TrainingConfig(code_bits=8, seed=42, **{k: v for k, v in
                                CLUSTER_CONFIG.items() if k != "code_bits"})
        model, history = train(config, data)
        assert history[-1].sae_objective < history[0].sae_objective

    def test_objective_medians_improve(self, cluster_data):
        # medians over the last quarter of iterations do not exceed the first
        raw_train, _ = cluster_data
        data = normalize(raw_train)
        config = TrainingConfig(layer_dims=(32, 16, 8), code_bits=8, epochs=20,
                                batch_size=10, alpha=0.015, beta=200.0,
                                outer_iters=8, init_mode="symmetric", seed=7)
        _, history = train(config, data)
        rs = [rec.sae_objective for rec in history]
        quarter = max(1, len(rs) // 4)
        assert np.median(rs[-quarter:]) <= np.median(rs[:quarter])


class TestRepeatLogic:
    def test_infinite_tolerance_never_repeats(self):
        data = tiny_data(rows=12)
        config = tiny_config(epochs=3, batch_size=4, outer_iters=4,
                             eps_sae=np.inf, eps_rbm=np.inf)
        _, history = train(config, data)
        assert all(rec.sae_repeats == 0 and rec.rbm_repeats == 0 for rec in history)

    def test_zero_tolerance_repeats_to_cap(self):
        data = tiny_data(rows=12)
        config = tiny_config(epochs=3, batch_size=4, outer_iters=4,
                             eps_sae=0.0, eps_rbm=np.inf, max_repeats_per_iter=2)
        _, history = train(config, data)
        for rec in history:
            if 1 < rec.iteration < 4:
                assert rec.sae_repeats == 2
            else:
                assert rec.sae_repeats == 0
            assert rec.rbm_repeats == 0


class TestEncode:
    def test_pure_function(self):
        data = tiny_data(rows=10)
        model, _ = train(tiny_config(), data)
        x = np.array([[0.1, -0.2, 0.3, 0.4]])
        assert np.array_equal(encode_matrix(model, x), encode_matrix(model, x))

    def test_all_zero_model_gives_all_ones(self):
        config = tiny_config()
        model = init_model(config)
        zeroed = Model(
            type(model.sae)(tuple(
                type(layer)(np.zeros_like(layer.enc_w), np.zeros_like(layer.enc_b),
                            np.zeros_like(layer.dec_w), np.zeros_like(layer.dec_b))
                for layer in model.sae.layers)),
            type(model.rbm)(np.zeros_like(model.rbm.w),
                            np.zeros_like(model.rbm.vis_bias),
                            np.zeros_like(model.rbm.hid_bias),
                            beta=model.rbm.beta, cd_steps=model.rbm.cd_steps),
            model.norm_stats, config)
        words = encode_matrix(zeroed, np.array([[0.5, -0.5, 0.25, 0.0]]))
        np.testing.assert_array_equal(words, pack_bits(np.ones((1, config.code_bits))))

    def test_code_length(self):
        data = tiny_data(rows=10)
        config = tiny_config(code_bits=2)
        model, _ = train(config, data)
        words = encode_matrix(model, np.zeros((3, 4)))
        assert words.shape == (3, 1)
        assert HashCode(2, words[0]).n_bits == 2

    def test_matrix_matches_single(self):
        data = tiny_data(rows=10)
        model, _ = train(tiny_config(), data)
        rows = tiny_data(rows=5, seed=9).values
        words = encode_matrix(model, rows)
        for i in range(5):
            assert np.array_equal(words[i], encode_matrix(model, rows[i])[0])

    def test_dimension_check(self):
        data = tiny_data(rows=10)
        model, _ = train(tiny_config(), data)
        with pytest.raises(ShapeError):
            encode_matrix(model, np.zeros((2, 7)))


class TestPersistence:
    def build(self, seed=5):
        data = tiny_data(rows=12)
        config = tiny_config(epochs=3, batch_size=4, outer_iters=2, seed=seed)
        model, _ = train(config, data)
        return model

    def test_round_trip_bitwise(self, tmp_path):
        model = self.build()
        path = tmp_path / "m.hdhm"
        save_model(model, path)
        loaded = load_model(path)
        for a, b in zip(model.sae.layers, loaded.sae.layers):
            np.testing.assert_array_equal(a.enc_w, b.enc_w)
            np.testing.assert_array_equal(a.enc_b, b.enc_b)
            np.testing.assert_array_equal(a.dec_w, b.dec_w)
            np.testing.assert_array_equal(a.dec_b, b.dec_b)
        np.testing.assert_array_equal(model.rbm.w, loaded.rbm.w)
        np.testing.assert_array_equal(model.rbm.vis_bias, loaded.rbm.vis_bias)
        np.testing.assert_array_equal(model.rbm.hid_bias, loaded.rbm.hid_bias)
        np.testing.assert_array_equal(model.norm_stats.shift, loaded.norm_stats.shift)
        assert loaded.config == model.config

    def test_save_deterministic_bytes(self, tmp_path):
        model = self.build()
        p1, p2 = tmp_path / "a", tmp_path / "b"
        save_model(model, p1)
        save_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_corrupted_byte_is_checksum_error(self, tmp_path):
        model = self.build()
        path = tmp_path / "m.hdhm"
        save_model(model, path)
        blob = bytearray(path.read_bytes())
        blob[40] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumError):
            load_model(path)

    def test_version_zero_rejected(self, tmp_path):
        model = self.build()
        path = tmp_path / "m.hdhm"
        save_model(model, path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = (0).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionError):
            load_model(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "m.hdhm"
        path.write_bytes(b"HDHM\x01")
        with pytest.raises(TruncationError):
            load_model(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.hdhm"
        path.write_bytes(b"XXXX" + bytes(20))
        with pytest.raises(FormatError):
            load_model(path)

    def test_loaded_model_encodes_identically(self, tmp_path):
        model = self.build()
        path = tmp_path / "m.hdhm"
        save_model(model, path)
        loaded = load_model(path)
        rows = tiny_data(rows=6, seed=3).values
        assert np.array_equal(encode_matrix(model, rows), encode_matrix(loaded, rows))
