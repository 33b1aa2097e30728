"""Run configuration: JSON file + ``--set section.key=value`` overrides.

The schema is ``RunConfig`` and its frozen section dataclasses: each key
takes its default and its JSON type from there and its range check from
the section's ``__post_init__``. Unknown keys and values of the wrong type
are rejected, so a typo cannot silently fall back to a default or crash a
run later. The fully resolved config is dumped next to the run outputs, and
a run is reproducible from that dump alone.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from .augment import AugmentConfig
from .cluster import ClusterConfig
from .data import SplitSpec
from .engine import PhaseSchedule
from .errors import ConfigError, InvalidParameterError
from .fixmatch import FixMatchConfig
from .proto import MarginConfig


@dataclass(frozen=True)
class ModelConfig:
    hidden: int = 64
    embed: int = 32
    feature_norm: bool = True

    def __post_init__(self):
        if self.hidden < 1 or self.embed < 1:
            raise InvalidParameterError("layer sizes must be positive")


@dataclass(frozen=True)
class OptimizerConfig:
    base_lr: float = 0.002
    momentum: float = 0.9
    weight_decay: float = 0.0005

    def __post_init__(self):
        if self.base_lr <= 0:
            raise InvalidParameterError("base_lr must be positive")


@dataclass(frozen=True)
class EvalConfig:
    test_fraction: float = 0.2

    def __post_init__(self):
        if not (0.0 <= self.test_fraction < 1.0):
            raise InvalidParameterError("test_fraction must lie in [0, 1)")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    mode: str = "aplt"
    dataset: dict | None = None          # {"csv": path} or {"synthetic": {...}}
    eval: EvalConfig = EvalConfig()
    split: SplitSpec = SplitSpec(labeled_ratio=0.1, seed=0)
    model: ModelConfig = ModelConfig()
    optimizer: OptimizerConfig = OptimizerConfig()
    augment: AugmentConfig = AugmentConfig()
    fixmatch: FixMatchConfig = FixMatchConfig()
    cluster: ClusterConfig = ClusterConfig()
    margin: MarginConfig = MarginConfig()
    schedule: PhaseSchedule = PhaseSchedule()


_SYNTH_KEYS = {"classes", "dim", "per_class", "overlap", "seed"}

# JSON value types a key accepts, by the type of its default
_ACCEPTS = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}


def _defaults() -> dict:
    """RunConfig's defaults as a fresh JSON-shaped dict. The JSON key of
    MarginConfig.lam is "lambda", which is a Python keyword."""
    out = asdict(RunConfig())
    out["margin"]["lambda"] = out["margin"].pop("lam")
    return out


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = dict(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key: {where}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{where} must be an object, got {value!r}")
            out[key] = _merge(base[key], value, where)
        else:
            out[key] = value
    return out


def _check_types(node: dict, default: dict, path: str = "") -> None:
    for key, value in node.items():
        where, want = f"{path}{key}", default[key]
        if isinstance(want, dict):
            _check_types(value, want, where + ".")
        elif want is not None and type(value) not in _ACCEPTS[type(want)]:
            raise ConfigError(f"{where} must be {type(want).__name__}, got {value!r}")


def _parse_override(expr: str):
    if "=" not in expr:
        raise ConfigError(f"override must look like section.key=value: {expr!r}")
    dotted, raw = expr.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw  # bare strings are fine: --set margin.view=weak
    node: dict = {}
    leaf = node
    parts = dotted.split(".")
    for part in parts[:-1]:
        leaf[part] = {}
        leaf = leaf[part]
    leaf[parts[-1]] = value
    return node


def _check_dataset(section) -> dict | None:
    if section is None:
        return None
    if not isinstance(section, dict):
        raise ConfigError("dataset section must be an object")
    keys = set(section)
    if keys == {"csv"}:
        if not isinstance(section["csv"], str):
            raise ConfigError("dataset.csv must be a path string")
        return {"csv": section["csv"]}
    if keys == {"synthetic"}:
        synth = section["synthetic"]
        unknown = set(synth) - _SYNTH_KEYS
        if unknown:
            raise ConfigError(f"unknown dataset.synthetic keys: {sorted(unknown)}")
        missing = _SYNTH_KEYS - set(synth)
        if missing:
            raise ConfigError(f"dataset.synthetic missing keys: {sorted(missing)}")
        return {"synthetic": dict(synth)}
    raise ConfigError("dataset must contain exactly one of: csv, synthetic")


def resolve(file_config: dict | None = None, overrides: list[str] | None = None) -> tuple[RunConfig, dict]:
    """Defaults <- file <- CLI overrides; returns (typed config, resolved dict)."""
    base = _defaults()
    resolved = base
    if file_config is not None:
        if not isinstance(file_config, dict):
            raise ConfigError("config file must hold a JSON object")
        resolved = _merge(resolved, file_config)
    for expr in overrides or []:
        resolved = _merge(resolved, _parse_override(expr))
    _check_types(resolved, base)
    if resolved["mode"] not in ("aplt", "fixmatch"):
        raise ConfigError(f"mode must be aplt or fixmatch, got {resolved['mode']!r}")

    sections = {}
    for name, value in resolved.items():
        if isinstance(base[name], dict):
            payload = {("lam" if k == "lambda" else k): v for k, v in value.items()}
            try:
                sections[name] = type(getattr(RunConfig, name))(**payload)
            except InvalidParameterError as exc:
                raise ConfigError(f"bad {name} section: {exc}") from None
    cfg = RunConfig(seed=resolved["seed"], mode=resolved["mode"],
                    dataset=_check_dataset(resolved["dataset"]), **sections)
    return cfg, resolved


def load_file(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from None
