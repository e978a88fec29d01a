"""Config parsing, canonical rendering, and the identity fingerprint."""

import pytest

from twotower.config import (
    ConfigError,
    RunConfig,
    fingerprint,
    load_config,
    loss_config_from,
    parse_config,
    render_config,
    verify_seeds,
)


class TestParsing:
    def test_defaults_round_trip(self):
        config = parse_config(render_config(RunConfig()))
        assert config == RunConfig()

    def test_values_and_comments(self):
        config = parse_config(
            """
            # a comment
            seed = 42
            data.input = events.csv   # trailing comment
            model.dim = 8
            train.learning_rate = 0.01
            loss.preset = infonce
            """
        )
        assert config.seed == 42
        assert config.data.input == "events.csv"
        assert config.model.dim == 8
        assert config.train.learning_rate == 0.01
        assert config.loss.preset == "infonce"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("data.nope = 1\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_config("model.dim = eight\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("just some words\n")

    def test_byte_order_mark_dropped(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("\ufeffseed = 42\n", encoding="utf-8")
        assert load_config(str(path)).seed == 42

    def test_verify_seeds_parsed(self):
        config = parse_config("verify.seeds = 4,5 ,6\n")
        assert verify_seeds(config) == (4, 5, 6)

    @pytest.mark.parametrize("seeds", ["1,,2", "1,2,", ",1", "1, ,2"])
    def test_verify_seeds_empty_field_refused(self, seeds):
        with pytest.raises(ConfigError, match="verify.seeds: empty field"):
            verify_seeds(parse_config(f"verify.seeds = {seeds}\n"))

    def test_verify_seeds_empty_list_gives_none(self):
        assert verify_seeds(parse_config("verify.seeds =\n")) == ()


class TestFingerprint:
    def test_eval_keys_do_not_change_identity(self):
        a = parse_config("eval.top_n = 10\n")
        b = parse_config("eval.top_n = 5\n")
        assert fingerprint(a) == fingerprint(b)

    def test_model_keys_change_identity(self):
        a = parse_config("model.dim = 16\n")
        b = parse_config("model.dim = 8\n")
        assert fingerprint(a) != fingerprint(b)

    def test_seed_changes_identity(self):
        assert fingerprint(parse_config("seed = 1\n")) != fingerprint(parse_config("seed = 2\n"))

    def test_stable_across_process_runs(self):
        # hash must not depend on interpreter state (no builtin hash())
        assert fingerprint(RunConfig()) == fingerprint(RunConfig())


class TestLossFromConfig:
    def test_preset_wins_for_bidirectional(self):
        config = parse_config("loss.preset = col_bcnce\nloss.alpha = 1\n")
        loss = loss_config_from(config)
        assert (loss.alpha, loss.delta_alpha, loss.beta, loss.delta_beta) == (0, 0, 1, 1)

    def test_explicit_flags_without_preset(self):
        config = parse_config("loss.preset =\nloss.alpha = 1\nloss.beta = 0\nloss.delta_alpha = 0\nloss.delta_beta = 0\n")
        loss = loss_config_from(config)
        assert (loss.alpha, loss.delta_alpha, loss.beta, loss.delta_beta) == (1, 0, 0, 0)

    @pytest.mark.parametrize("family", ["bidirectional", "bce", "full_softmax_row", "ssm"])
    def test_unknown_preset_refused_under_any_family(self, family):
        with pytest.raises(ValueError, match="unknown preset 'nope'"):
            loss_config_from(parse_config(f"loss.family = {family}\nloss.preset = nope\n"))

    def test_bce_family_ignores_preset(self):
        config = parse_config("loss.family = bce\nloss.negative_strategy = user-marginal\n")
        loss = loss_config_from(config)
        assert loss.family == "bce"
        assert loss.negative_strategy == "user-marginal"
