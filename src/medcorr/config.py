"""Engine configuration: one YAML file, strict schema, env overrides.

Unknown and repeated keys are rejected. ``MEDCORR_API_KEY`` and
``MEDCORR_BASE_URL`` override the corresponding file values (environment
wins). Defaults are the library's own generation, optimization and gate
constants.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field, fields as dataclass_fields, replace
from pathlib import Path
from typing import Mapping

import yaml

from .corpus import _typed
from .errors import ConfigError
from .gateway import DEFAULT_MAX_TOKENS, DEFAULT_MODEL, DEFAULT_TEMPERATURE, DEFAULT_TOP_P, LmGateway
from .optimize import (
    BINARY_PASS_THRESHOLD,
    DEFAULT_DEMOS_PER_STAGE,
    DEFAULT_N_CANDIDATES,
    DEFAULT_N_PROPOSALS,
    ROUGE_PASS_THRESHOLD,
)
from .pipelines import DEFAULT_GATE_THRESHOLD

API_KEY_ENV = "MEDCORR_API_KEY"
BASE_URL_ENV = "MEDCORR_BASE_URL"

BACKENDS = ("live", "replay")


@dataclass(frozen=True)
class GatewayConfig:
    backend: str = "replay"
    base_url: str = "https://api.openai.com/v1"
    api_key: str = ""
    model: str = DEFAULT_MODEL
    temperature: float = DEFAULT_TEMPERATURE
    top_p: float = DEFAULT_TOP_P
    max_tokens: int = DEFAULT_MAX_TOKENS
    concurrency: int = LmGateway.concurrency
    cache_path: str = "cache.jsonl"
    record: bool = False


@dataclass(frozen=True)
class PathsConfig:
    records: str = ""
    index: str = ""
    compiled_dir: str = ""


@dataclass(frozen=True)
class OptimizeConfig:
    seed: int = 0
    n_candidates: int = DEFAULT_N_CANDIDATES
    demos_per_stage: int = DEFAULT_DEMOS_PER_STAGE
    instruction_proposals: int = DEFAULT_N_PROPOSALS
    binary_pass_threshold: float = BINARY_PASS_THRESHOLD
    rouge_pass_threshold: float = ROUGE_PASS_THRESHOLD


@dataclass(frozen=True)
class PipelineConfig:
    gate_threshold: float = DEFAULT_GATE_THRESHOLD
    ms_gate_enabled: bool = False
    strict: bool = False


@dataclass(frozen=True)
class EngineConfig:
    gateway: GatewayConfig = field(default_factory=GatewayConfig)
    paths: PathsConfig = field(default_factory=PathsConfig)
    optimize: OptimizeConfig = field(default_factory=OptimizeConfig)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)


_SECTIONS = {f.name: f.default_factory for f in dataclass_fields(EngineConfig)}


class _UniqueKeyLoader(yaml.SafeLoader):
    """``yaml.SafeLoader`` refusing a mapping that repeats a key, as every
    JSON reader does, where the safe loader would keep the last value. A
    merge key (``<<``) is left to the loader, so its entries may be
    overridden."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue
            key = self.construct_object(key_node, deep=deep)
            try:
                if key in seen:
                    raise yaml.YAMLError(f"key {key!r} is repeated on line {key_node.start_mark.line + 1}")
                seen.add(key)
            except TypeError:  # an unhashable key, which the loader rejects itself
                pass
        return super().construct_mapping(node, deep=deep)


# A key's allowed types, by its default's type: no boolean is an integer.
_ALLOWED = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}


def _build_section(name: str, cls: type, raw: object) -> object:
    if raw is None:
        return cls()
    if not isinstance(raw, dict):
        raise ConfigError(f"section {name!r} must be a mapping")
    defaults = vars(cls())
    unknown = set(raw) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown key(s) in section {name!r}: {sorted(unknown, key=repr)}")
    try:
        values = _typed(raw, {key: _ALLOWED[type(defaults[key])] for key in raw})
    except ValueError as exc:
        raise ConfigError(f"{name}.{exc}") from None
    for key, value in values.items():
        if type(defaults[key]) is float:  # the comparison is exact for any int and false for nan
            if not abs(value) <= sys.float_info.max:
                raise ConfigError(f"{name}.{key} must be a finite number, got {value!r}")
            values[key] = float(value)
    return cls(**values)


def _validate(config: EngineConfig) -> None:
    gw = config.gateway
    if gw.backend not in BACKENDS:
        raise ConfigError(f"gateway.backend must be one of {list(BACKENDS)}, got {gw.backend!r}")
    if gw.temperature < 0:
        raise ConfigError(f"gateway.temperature must be >= 0, got {gw.temperature}")
    if not 0.0 <= gw.top_p <= 1.0:
        raise ConfigError(f"gateway.top_p must be in [0, 1], got {gw.top_p}")
    if gw.max_tokens < 1:
        raise ConfigError(f"gateway.max_tokens must be >= 1, got {gw.max_tokens}")
    if gw.concurrency < 1:
        raise ConfigError(f"gateway.concurrency must be >= 1, got {gw.concurrency}")
    opt = config.optimize
    if opt.n_candidates < 1:
        raise ConfigError(f"optimize.n_candidates must be >= 1, got {opt.n_candidates}")
    if opt.demos_per_stage < 1:
        raise ConfigError(f"optimize.demos_per_stage must be >= 1, got {opt.demos_per_stage}")
    if opt.instruction_proposals < 1:
        raise ConfigError(
            f"optimize.instruction_proposals must be >= 1, got {opt.instruction_proposals}"
        )
    for key in ("binary_pass_threshold", "rouge_pass_threshold"):
        value = getattr(opt, key)
        if not 0.0 <= value <= 1.0:
            raise ConfigError(f"optimize.{key} must be in [0, 1], got {value}")
    pipe = config.pipeline
    if not 0.0 <= pipe.gate_threshold <= 1.0:
        raise ConfigError(f"pipeline.gate_threshold must be in [0, 1], got {pipe.gate_threshold}")


def load_config(path: str | Path | None = None, env: Mapping[str, str] | None = None) -> EngineConfig:
    """Load, default, env-override, and validate the engine configuration.

    ``path=None`` yields pure defaults (still env-overridable).
    """
    env = os.environ if env is None else env
    raw: object = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        try:
            raw = yaml.load(text, Loader=_UniqueKeyLoader) or {}
        except RecursionError:
            raise ConfigError(f"config file {path} is nested too deeply") from None
        except yaml.MarkedYAMLError as exc:  # its str spans lines: context, snippet, caret
            mark = exc.problem_mark or exc.context_mark
            where = f" on line {mark.line + 1}, column {mark.column + 1}" if mark else ""
            raise ConfigError(f"config file {path} is not valid YAML: {exc.problem or exc.context}{where}") from exc
        except (yaml.YAMLError, ValueError) as exc:  # ValueError: an over-long integer or an impossible date
            raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must contain a mapping of sections")
    unknown = set(raw) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config section(s): {sorted(unknown, key=repr)}")
    sections = {
        name: _build_section(name, cls, raw.get(name)) for name, cls in _SECTIONS.items()
    }
    overrides = {"api_key": env.get(API_KEY_ENV), "base_url": env.get(BASE_URL_ENV)}
    sections["gateway"] = replace(sections["gateway"], **{k: v for k, v in overrides.items() if v})
    config = EngineConfig(**sections)  # type: ignore[arg-type]
    _validate(config)
    return config
