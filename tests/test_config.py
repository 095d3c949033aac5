from __future__ import annotations

import re
from pathlib import Path

import pytest

from medcorr.config import EngineConfig, load_config
from medcorr.errors import ConfigError


def write(tmp_path, text: str):
    path = tmp_path / "medcorr.yaml"
    path.write_text(text, encoding="utf-8")
    return path


def test_empty_config_yields_documented_defaults(tmp_path):
    config = load_config(write(tmp_path, ""), env={})
    assert config.gateway.model == "gpt-4-0125-preview"
    assert config.gateway.temperature == 1.0
    assert config.gateway.top_p == 1.0
    assert config.gateway.max_tokens == 4096
    assert config.gateway.concurrency == 4
    assert config.pipeline.gate_threshold == 0.7
    assert config.optimize.demos_per_stage == 20
    assert config.optimize.n_candidates == 16
    assert config.optimize.instruction_proposals == 5
    assert config.pipeline.ms_gate_enabled is False


def test_readme_config_block_holds_the_defaults(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```yaml\n", 1)[1].split("```", 1)[0]
    assert load_config(write(tmp_path, block), env={}) == EngineConfig()


def test_no_file_gives_defaults_too():
    config = load_config(None, env={})
    assert config.gateway.backend == "replay"
    assert config.gateway.max_tokens == 4096


def test_gate_threshold_out_of_range(tmp_path):
    path = write(tmp_path, "pipeline:\n  gate_threshold: 1.5\n")
    with pytest.raises(ConfigError, match="gate_threshold"):
        load_config(path, env={})


def test_unknown_key_is_named(tmp_path):
    path = write(tmp_path, "gateway:\n  modle: typo\n")
    with pytest.raises(ConfigError, match="modle"):
        load_config(path, env={})


def test_unknown_section_is_named(tmp_path):
    path = write(tmp_path, "surprises:\n  x: 1\n")
    with pytest.raises(ConfigError, match="surprises"):
        load_config(path, env={})


def test_env_api_key_beats_file(tmp_path):
    path = write(tmp_path, "gateway:\n  api_key: from-file\n")
    config = load_config(path, env={"MEDCORR_API_KEY": "from-env"})
    assert config.gateway.api_key == "from-env"


def test_env_base_url_beats_file(tmp_path):
    path = write(tmp_path, "gateway:\n  base_url: https://file.example/v1\n")
    config = load_config(path, env={"MEDCORR_BASE_URL": "https://env.example/v1"})
    assert config.gateway.base_url == "https://env.example/v1"


def test_file_value_without_env(tmp_path):
    path = write(tmp_path, "gateway:\n  api_key: from-file\n")
    assert load_config(path, env={}).gateway.api_key == "from-file"


def test_bad_backend_rejected(tmp_path):
    # scripted needs a programmatic responder, so no config can select it
    for backend in ("telepathy", "scripted"):
        path = write(tmp_path, f"gateway:\n  backend: {backend}\n")
        with pytest.raises(ConfigError, match="backend"):
            load_config(path, env={})


def test_an_empty_cache_path_is_rejected_for_replay_and_means_in_memory_for_live(tmp_path):
    path = write(tmp_path, 'gateway:\n  backend: replay\n  cache_path: ""\n')
    with pytest.raises(ConfigError, match="^gateway.cache_path must name a file for the replay backend$"):
        load_config(path, env={})
    config = load_config(write(tmp_path, 'gateway:\n  backend: live\n  cache_path: ""\n'), env={})
    assert config.gateway.cache_path == ""


def test_an_empty_cache_path_is_rejected_for_recording(tmp_path):
    path = write(tmp_path, 'gateway:\n  backend: live\n  cache_path: ""\n  record: true\n')
    with pytest.raises(ConfigError, match="^gateway.cache_path must name a file to record into$"):
        load_config(path, env={})


@pytest.mark.parametrize(
    "section, key, value",
    [
        pytest.param("gateway", "max_tokens", "many", id="integer-a-string"),
        pytest.param("gateway", "record", '"yes"', id="boolean-a-string"),
        pytest.param("gateway", "concurrency", "true", id="integer-a-boolean"),
        pytest.param("gateway", "temperature", '"hot"', id="number-a-string"),
        pytest.param("gateway", "model", "5", id="string-an-integer"),
    ],
)
def test_type_errors_are_reported(tmp_path, section, key, value):
    path = write(tmp_path, f"{section}:\n  {key}: {value}\n")
    with pytest.raises(ConfigError, match=f"^{section}.{key} "):
        load_config(path, env={})


@pytest.mark.parametrize(
    ("section", "key", "bad", "boundary", "message"),
    [
        ("gateway", "temperature", -0.5, 0, "must be >= 0, got -0.5"),
        ("gateway", "top_p", -0.1, 0, "must be in [0, 1], got -0.1"),
        ("gateway", "top_p", 1.5, 1, "must be in [0, 1], got 1.5"),
        ("gateway", "max_tokens", 0, 1, "must be >= 1, got 0"),
        ("gateway", "concurrency", 0, 1, "must be >= 1, got 0"),
        ("optimize", "n_candidates", 0, 1, "must be >= 1, got 0"),
        ("optimize", "demos_per_stage", 0, 1, "must be >= 1, got 0"),
        ("optimize", "instruction_proposals", 0, 1, "must be >= 1, got 0"),
        ("optimize", "binary_pass_threshold", 1.5, 1, "must be in [0, 1], got 1.5"),
        ("optimize", "binary_pass_threshold", -0.1, 0, "must be in [0, 1], got -0.1"),
        ("optimize", "rouge_pass_threshold", 1.5, 1, "must be in [0, 1], got 1.5"),
        ("optimize", "rouge_pass_threshold", -0.1, 0, "must be in [0, 1], got -0.1"),
        ("pipeline", "gate_threshold", 1.5, 1, "must be in [0, 1], got 1.5"),
        ("pipeline", "gate_threshold", -0.1, 0, "must be in [0, 1], got -0.1"),
    ],
)
def test_range_errors_are_reported(tmp_path, section, key, bad, boundary, message):
    path = write(tmp_path, f"{section}:\n  {key}: {bad}\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(f'{section}.{key} {message}')}$"):
        load_config(path, env={})
    config = load_config(write(tmp_path, f"{section}:\n  {key}: {boundary}\n"), env={})
    assert getattr(getattr(config, section), key) == boundary


def test_a_section_that_is_not_a_mapping_is_rejected(tmp_path):
    with pytest.raises(ConfigError, match="^section 'gateway' must be a mapping$"):
        load_config(write(tmp_path, "gateway: 5\n"), env={})


def test_a_config_file_must_hold_a_mapping_of_sections(tmp_path):
    with pytest.raises(ConfigError, match="^config file must contain a mapping of sections$"):
        load_config(write(tmp_path, "- gateway\n- optimize\n"), env={})


def test_an_integer_where_a_number_belongs_loads_as_a_float(tmp_path):
    temperature = load_config(write(tmp_path, "gateway:\n  temperature: 1\n"), env={}).gateway.temperature
    assert type(temperature) is float and temperature == 1.0


@pytest.mark.parametrize("value", [".nan", ".inf", "-.inf", pytest.param("1" + "0" * 400, id="1e400-an-integer")])
@pytest.mark.parametrize("section, key", [("gateway", "temperature"), ("optimize", "rouge_pass_threshold")])
def test_a_number_that_is_not_finite_is_rejected(tmp_path, section, key, value):
    path = write(tmp_path, f"{section}:\n  {key}: {value}\n")
    with pytest.raises(ConfigError, match=f"^{section}.{key} must be a finite number"):
        load_config(path, env={})


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.yaml", env={})


def test_malformed_yaml_is_config_error(tmp_path):
    path = write(tmp_path, "gateway: [unclosed\n")
    with pytest.raises(ConfigError, match="YAML"):
        load_config(path, env={})


def test_a_merge_key_may_be_overridden(tmp_path):
    path = write(tmp_path, "gateway:\n  <<: {model: a, max_tokens: 7}\n  model: b\n")
    config = load_config(path, env={})
    assert (config.gateway.model, config.gateway.max_tokens) == ("b", 7)


def test_an_unhashable_key_is_a_config_error(tmp_path):
    # the repeated-key check skips a key it cannot hash; the loader rejects it
    path = write(tmp_path, "gateway: {[1]: 2}\n")
    with pytest.raises(ConfigError, match="unhashable key"):
        load_config(path, env={})
