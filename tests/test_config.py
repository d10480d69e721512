"""Config parsing, serialization, and validation."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hatetriage.config import PipelineConfig, load_config, parse_config, serialize_config
from hatetriage.pipeline import FeatureSettings


class TestDefaults:
    def test_default_values(self):
        cfg = PipelineConfig()
        assert cfg.corpus == ""
        assert cfg.output_dir == "out"
        assert cfg.min_df == 5
        assert cfg.max_df_ratio == 0.75
        assert cfg.model == "logreg"
        assert cfg.penalty == "l2"
        assert cfg.model_c == 1.0
        assert cfg.grid_cs == (0.01, 0.1, 1.0, 10.0)
        assert cfg.cv_folds == 5
        assert cfg.holdout_fraction == 0.10
        assert cfg.seed == 42

    def test_feature_settings_mirror_config(self):
        cfg = PipelineConfig(min_df=3, select_c=0.5, standardize=False)
        fs = cfg.feature_settings()
        assert fs.min_df == 3
        assert fs.select_c == 0.5
        assert fs.standardize is False
        assert fs.word_ngram_hi == 3

    def test_every_feature_setting_is_a_config_key_with_its_default(self):
        config_fields = {f.name: f for f in dataclasses.fields(PipelineConfig)}
        for f in dataclasses.fields(FeatureSettings):
            assert f.name in config_fields, f.name
            assert config_fields[f.name].default == f.default, f.name
        assert PipelineConfig().feature_settings() == FeatureSettings()

    def test_model_config_logreg_keeps_penalty(self):
        cfg = PipelineConfig(model="logreg", penalty="l1", model_c=2.0)
        mc = cfg.model_config()
        assert (mc.kind, mc.penalty, mc.C) == ("logreg", "l1", 2.0)

    def test_model_config_normalizes_other_kinds(self):
        # the penalty key is a logreg knob; svm and nb each have one option
        assert PipelineConfig(model="svm", penalty="l1").model_config().penalty == "l2"
        assert PipelineConfig(model="nb", penalty="l2").model_config().penalty == "none"

    def test_grid_composition(self):
        cfg = PipelineConfig(
            grid_models=("logreg", "nb"), grid_penalties=("l1",), grid_cs=(0.5,)
        )
        grid = cfg.grid()
        assert len(grid) == 2
        assert {(g.kind, g.penalty, g.C) for g in grid} == {
            ("logreg", "l1", 0.5),
            ("nb", "none", 0.5),
        }

    def test_default_grid_size(self):
        # logreg gets both penalties, svm and nb one each: (2+1+1) * 4 Cs
        assert len(PipelineConfig().grid()) == 16


class TestParse:
    def test_all_value_kinds(self):
        cfg = parse_config(
            "corpus = data/tweets.csv\n"
            "min_df = 7\n"
            "max_df_ratio = 0.5\n"
            "standardize = false\n"
            "grid_models = logreg, svm\n"
            "grid_cs = 0.5, 2\n"
        )
        assert cfg.corpus == "data/tweets.csv"
        assert cfg.min_df == 7
        assert cfg.max_df_ratio == 0.5
        assert cfg.standardize is False
        assert cfg.grid_models == ("logreg", "svm")
        assert cfg.grid_cs == (0.5, 2.0)

    def test_comments_and_blanks_skipped(self):
        cfg = parse_config("# a comment\n\nmin_df = 2\n\n# another\n")
        assert cfg.min_df == 2

    def test_spaces_around_equals_optional(self):
        assert parse_config("min_df=9\n").min_df == 9

    def test_untouched_keys_keep_defaults(self):
        cfg = parse_config("seed = 7\n")
        assert cfg.model == "logreg"
        assert cfg.grid_cs == (0.01, 0.1, 1.0, 10.0)

    def test_unknown_key_names_line(self):
        with pytest.raises(ValueError, match="unknown config key 'min_fd' on line 2"):
            parse_config("seed = 1\nmin_fd = 5\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate config key 'seed'"):
            parse_config("seed = 1\nseed = 2\n")

    def test_line_without_equals_rejected(self):
        with pytest.raises(ValueError, match="line 1 is not 'key = value'"):
            parse_config("just some words\n")

    def test_bad_int_rejected(self):
        with pytest.raises(ValueError, match="'min_df' expects a int"):
            parse_config("min_df = five\n")

    def test_bad_float_rejected(self):
        with pytest.raises(ValueError, match="'model_c' expects a float"):
            parse_config("model_c = big\n")

    def test_bool_literals_are_strict(self):
        with pytest.raises(ValueError, match="must be 'true' or 'false'"):
            parse_config("select = True\n")

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="'grid_cs' needs at least one item"):
            parse_config("grid_cs = ,\n")

    def test_list_item_type_checked(self):
        with pytest.raises(ValueError, match="'grid_cs' expects a float"):
            parse_config("grid_cs = 0.1, tiny\n")


class TestValidation:
    def test_cv_folds_floor(self):
        with pytest.raises(ValueError, match="cv_folds"):
            parse_config("cv_folds = 1\n")

    def test_holdout_fraction_bounds(self):
        with pytest.raises(ValueError, match="holdout_fraction"):
            parse_config("holdout_fraction = 0\n")
        with pytest.raises(ValueError, match="holdout_fraction"):
            parse_config("holdout_fraction = 1\n")

    def test_report_top_n_floor(self):
        with pytest.raises(ValueError, match="report_top_n"):
            parse_config("report_top_n = 0\n")

    def test_feature_errors_surface_at_parse_time(self):
        with pytest.raises(ValueError, match="min_df"):
            parse_config("min_df = 0\n")

    def test_unknown_model_kind(self):
        with pytest.raises(ValueError, match="unknown model kind 'forest'"):
            parse_config("model = forest\n")

    def test_bad_logreg_penalty(self):
        with pytest.raises(ValueError, match="config key 'penalty'"):
            parse_config("penalty = elastic\n")

    def test_bad_grid_model(self):
        with pytest.raises(ValueError, match="config key 'grid_models'"):
            parse_config("grid_models = logreg, forest\n")

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "0", "-1"])
    @pytest.mark.parametrize("key", ["select_c", "select_tol", "model_c", "grid_cs"])
    def test_float_keys_must_be_finite_and_positive(self, key, raw):
        with pytest.raises(ValueError, match=key):
            parse_config(f"{key} = {raw}\n")
        if key == "grid_cs":
            with pytest.raises(ValueError, match="config key 'grid_cs'"):
                parse_config(f"grid_cs = 1, {raw}\n")

    @pytest.mark.parametrize("key", ["max_df_ratio", "holdout_fraction"])
    def test_nan_fractions_rejected(self, key):
        with pytest.raises(ValueError, match=key):
            parse_config(f"{key} = nan\n")

    @pytest.mark.parametrize(
        "key, raw",
        [
            ("grid_class_weights", "uniform, bogus"),
            ("grid_penalties", "l2, l3"),
            ("class_weight", "bogus"),
        ],
    )
    def test_grid_and_model_errors_name_the_key(self, key, raw):
        with pytest.raises(ValueError, match=f"config key '{key}'"):
            parse_config(f"{key} = {raw}\n")

    def test_empty_grid_rejected_at_construction(self):
        with pytest.raises(ValueError, match="grid is empty"):
            PipelineConfig(grid_models=())


class TestSerialize:
    def test_round_trip_identity(self):
        text = (
            "corpus = data/tweets.csv\n"
            "min_df = 3\n"
            "select_tol = 0.0001\n"
            "standardize = false\n"
            "grid_cs = 0.5, 2\n"
            "model = svm\n"
        )
        cfg = parse_config(text)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_round_trip_of_defaults(self):
        cfg = PipelineConfig()
        assert parse_config(serialize_config(cfg)) == cfg

    @given(
        select_tol=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        max_df_ratio=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        grid_cs=st.lists(
            st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
            min_size=1,
            max_size=4,
        ),
    )
    def test_round_trip_identity_for_any_positive_float(self, select_tol, max_df_ratio, grid_cs):
        cfg = dataclasses.replace(
            PipelineConfig(),
            select_tol=select_tol,
            max_df_ratio=max_df_ratio,
            grid_cs=tuple(grid_cs),
        )
        assert parse_config(serialize_config(cfg)) == cfg

    def test_float_that_g_would_round_is_written_exactly(self):
        cfg = dataclasses.replace(PipelineConfig(), select_tol=1.23456789e-05)
        assert "select_tol = 1.23456789e-05" in serialize_config(cfg)

    def test_value_formatting(self):
        text = serialize_config(PipelineConfig())
        assert "max_df_ratio = 0.75" in text
        assert "select_tol = 0.0001" in text
        assert "standardize = true" in text
        assert "grid_cs = 0.01,0.1,1,10" in text
        assert "output_dir = out" in text

    def test_every_field_serialized_once(self):
        text = serialize_config(PipelineConfig())
        keys = [line.split(" = ")[0] for line in text.splitlines()]
        assert len(keys) == len(set(keys))
        assert "corpus" in keys and "report_top_n" in keys


class TestLoadConfig:
    def test_reads_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 11\nmin_df = 2\n", encoding="utf-8")
        cfg = load_config(path)
        assert cfg.seed == 11
        assert cfg.min_df == 2

    def test_leading_byte_order_mark_dropped(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("\ufeffcorpus = tweets.csv\nseed = 11\n", encoding="utf-8")
        cfg = load_config(path)
        assert cfg.corpus == "tweets.csv"
        assert cfg.seed == 11
