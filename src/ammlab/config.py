"""Run configuration: JSON schema, validation, hashing, object builders.

One JSON document configures every pipeline stage. Validation happens
before any work, so a typo fails loudly instead of silently falling back
to a default. ``SCHEMA`` is a JSON Schema (draft 2020-12) document, read
by a small interpreter of the keywords it uses rather than by a general
validator. Loading rejects duplicate and unknown keys, NaN, infinities
and number literals that overflow a float, non-UTF-8 files, and
non-integers in integer fields. The sha256 hash of the canonical (sorted,
compact) JSON text is stamped into every output artifact.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator

from . import qvi, regime
from .agent import TrainConfig
from .ammcore import PoolConfig
from .envsim import RewardParams
from .synthpath import OuParams, RegimeSchedule, VolumeModel

_NUM = {"type": "number"}
_POS = {"type": "number", "exclusiveMinimum": 0}
_NONNEG = {"type": "number", "minimum": 0}
_POSINT = {"type": "integer", "exclusiveMinimum": 0}
_PROB = {"type": "number", "minimum": 0, "maximum": 1}
_OPEN_UNIT = {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1}

# The params each strategy accepts; the strategy name enum is its keys.
_STRATEGY_PARAMS = {
    "merlin": {},
    "bedivere": {},
    "lancelot": {},
    "galahad": {"horizon": _POS, "theta_override": _NONNEG},
    "rammstein": {"checkpoint": {"type": "string"}},
}
STRATEGY_NAMES = list(_STRATEGY_PARAMS)
_STRATEGY_SPEC = {
    "type": "object",
    "additionalProperties": False,
    "required": ["name"],
    "properties": {"name": {"enum": STRATEGY_NAMES}, "params": {"type": "object"}},
    "allOf": [
        {
            "if": {"properties": {"name": {"const": name}}},
            "then": {"properties": {"params": {"additionalProperties": False, "properties": params}}},
        }
        for name, params in _STRATEGY_PARAMS.items()
    ],
}

SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "seed": {"type": "integer", "minimum": 0},
        "data": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "trades_csv": {"type": "string"},
                "bars_csv": {"type": "string"},
                "synth": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["initial_price", "segments"],
                    "properties": {
                        "initial_price": _POS,
                        "segments": {
                            "type": "array",
                            "minItems": 1,
                            "items": {
                                "type": "object",
                                "additionalProperties": False,
                                "required": ["duration", "theta", "mu", "sigma"],
                                "properties": {
                                    "duration": _POSINT,
                                    "theta": _NONNEG,
                                    "mu": _POS,
                                    "sigma": _NONNEG,
                                },
                            },
                        },
                        "volume": {
                            "type": "object",
                            "additionalProperties": False,
                            "properties": {
                                "base_notional": _NONNEG,
                                "volatility_coupling": _NUM,
                            },
                        },
                    },
                },
                "splits": {
                    "type": "array",
                    "minItems": 3,
                    "maxItems": 3,
                    "items": _POS,
                },
            },
        },
        "pool": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "fee_tier": _OPEN_UNIT,
                "gas_cost": _NONNEG,
                "pool_tvl": _POS,
                "dex_cex_ratio": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                "width": _OPEN_UNIT,
                "capital": _POS,
            },
        },
        "reward": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"scale": _POS, "active_bonus": _NONNEG},
        },
        "train": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "gamma": _OPEN_UNIT,
                "batch_size": _POSINT,
                "target_sync": _POSINT,
                "episodes": _POSINT,
                "episode_length": _POSINT,
                "learning_rate": _POS,
                "buffer_capacity": _POSINT,
                "epsilon_start": _PROB,
                "epsilon_end": _PROB,
                "epsilon_decay": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                "epsilon_decay_mode": {"enum": ["step", "episode"]},
            },
        },
        "strategy": _STRATEGY_SPEC,
        "backtest": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"segment": {"enum": ["train", "val", "test", "all"]}},
        },
        "sweep": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "strategies": {"type": "array", "minItems": 1, "items": _STRATEGY_SPEC},
                "gas_levels": {"type": "array", "minItems": 2, "uniqueItems": True, "items": _POS},
            },
        },
        "qvi": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "theta": _POS,
                "mu": _POS,
                "sigma": _POS,
                "rho": _POS,
                "ref_volume": _POS,
                "cost": _NONNEG,
                "n_s": {"type": "integer", "minimum": 3},
                "n_c": {"type": "integer", "minimum": 3},
                "span_sigmas": {"type": "number", "minimum": qvi.MIN_SPAN_SIGMAS},
                "tol": _POS,
                "max_iters": _POSINT,
            },
        },
        "heatmap": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "theta_min": _NONNEG,
                "theta_max": _NONNEG,
                "theta_points": {"type": "integer", "minimum": 2},
                "d_edge_points": {"type": "integer", "minimum": 2},
            },
        },
        "estimate": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"window": {"type": "integer", "minimum": 3}},
        },
    },
}


class ConfigError(ValueError):
    pass


HEATMAP_THETA_RANGE = (0.0, 0.1)  # (theta_min, theta_max) when the config omits them


# The keywords SCHEMA may use, each read as in JSON Schema 2020-12, with
# one deliberate difference: "integer" means an integer literal, so 1.0
# fails it. 2020-12 counts 1.0 as an integer, and a count such as
# train.episodes would then reach range() as a float and fail at run time.
# "$schema" is ignored, and "additionalProperties" may only be false.
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
}
# NaN breaks no bound, as in JSON Schema; load never yields one
_BOUNDS = {
    "minimum": (operator.lt, "less than the minimum of"),
    "exclusiveMinimum": (operator.le, "less than or equal to the minimum of"),
    "maximum": (operator.gt, "greater than the maximum of"),
    "exclusiveMaximum": (operator.ge, "greater than or equal to the maximum of"),
}
_KEYWORDS = frozenset(
    {"$schema", "type", "properties", "additionalProperties", "required", "enum", "const"}
    | {"allOf", "if", "then", "items", "minItems", "maxItems", "uniqueItems"}
    | set(_BOUNDS)
)


def _check_keywords(schema: dict, where: str = "SCHEMA") -> None:
    """Raise ValueError if ``schema`` uses a keyword ``_errors`` would not check."""
    unknown = sorted(set(schema) - _KEYWORDS)
    if unknown:
        raise ValueError(f"{where} uses unsupported keywords {unknown}")
    if schema.get("additionalProperties", False) is not False:
        raise ValueError(f"{where}: additionalProperties may only be false")
    if schema.get("type", "object") not in tuple(_TYPES):
        raise ValueError(f"{where}: unsupported type {schema['type']!r}")
    subschemas = [(f"{where}/properties/{k}", v) for k, v in schema.get("properties", {}).items()]
    subschemas += [(f"{where}/allOf/{i}", v) for i, v in enumerate(schema.get("allOf", ()))]
    subschemas += [(f"{where}/{k}", schema[k]) for k in ("items", "if", "then") if k in schema]
    for sub_where, sub in subschemas:
        _check_keywords(sub, sub_where)


_check_keywords(SCHEMA)


def _same(a, b) -> bool:
    """JSON equality of scalars: a boolean equals only a boolean, and 1 equals 1.0."""
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def _errors(schema: dict, value, path: tuple = ()):
    """Yield (message, path) for each way ``value`` breaks ``schema``."""
    kind = schema.get("type")
    if kind is not None and not _TYPES[kind](value):
        yield f"{value!r} is not of type {kind!r}", path
        return
    if "enum" in schema and not any(_same(value, e) for e in schema["enum"]):
        yield f"{value!r} is not one of {schema['enum']!r}", path
    if "const" in schema and not _same(value, schema["const"]):
        yield f"{schema['const']!r} was expected", path
    if _TYPES["number"](value):
        for key, (breaks, text) in _BOUNDS.items():
            if key in schema and breaks(value, schema[key]):
                yield f"{value!r} is {text} {schema[key]!r}", path
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                yield f"{key!r} is a required property", path
        properties = schema.get("properties", {})
        for key, item in value.items():
            if key in properties:
                yield from _errors(properties[key], item, path + (key,))
            elif "additionalProperties" in schema:
                yield f"Additional properties are not allowed ({key!r} was unexpected)", path
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            yield f"{value!r} is too short", path
        if len(value) > schema.get("maxItems", math.inf):
            yield f"{value!r} is too long", path
        if schema.get("uniqueItems") and any(_same(a, b) for i, a in enumerate(value) for b in value[:i]):
            yield f"{value!r} has non-unique elements", path
        if "items" in schema:
            for i, item in enumerate(value):
                yield from _errors(schema["items"], item, path + (i,))
    for sub in schema.get("allOf", ()):
        yield from _errors(sub, value, path)
    if "if" in schema and next(_errors(schema["if"], value, path), None) is None:
        yield from _errors(schema.get("then", {}), value, path)


def validate(doc: dict) -> dict:
    for message, path in _errors(SCHEMA, doc):
        raise ConfigError(f"invalid config: {message} (at {'/'.join(str(p) for p in path)})")
    splits = doc.get("data", {}).get("splits")
    if splits is not None and abs(sum(splits) - 1.0) > 1e-9:
        raise ConfigError("data.splits must sum to 1")
    segment = doc.get("backtest", {}).get("segment")
    if splits is None and segment in ("train", "val", "test"):
        raise ConfigError(f"backtest.segment {segment!r} needs data.splits")
    names = [spec["name"] for spec in doc.get("sweep", {}).get("strategies", [])]
    twice = sorted({name for name in names if names.count(name) > 1})
    if twice:
        raise ConfigError(f"sweep.strategies names {', '.join(twice)} more than once")
    theta_min, theta_max = heatmap_theta_range(doc)
    if theta_min > theta_max:
        raise ConfigError(f"heatmap.theta_min {theta_min} exceeds heatmap.theta_max {theta_max}")
    return doc


# json.load accepts NaN and +-Infinity (NaN breaks no schema bound), reads
# 1e400 as inf and keeps the last of two equal keys; the hooks below make
# each of these a config error
def _reject_constant(token):
    raise ConfigError(f"invalid config: {token} is not a JSON number")


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        shown = text if len(text) <= 24 else f"{text[:16]}... ({len(text)} characters)"
        raise ConfigError(f"invalid config: number {shown} overflows a float")
    return value


def _finite_int(text):
    _finite_float(text)
    return int(text)


def _unique_keys(pairs):
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        twice = next(key for key, _ in pairs if key in seen or seen.add(key))
        raise ConfigError(f"invalid config: key {twice!r} appears more than once in an object")
    return obj


def load(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(
                fh,
                parse_constant=_reject_constant,
                parse_float=_finite_float,
                parse_int=_finite_int,
                object_pairs_hook=_unique_keys,
            )
    except UnicodeDecodeError as exc:
        raise ConfigError(f"invalid config: {path} is not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except RecursionError:
        raise ConfigError(f"invalid config: {path} nests arrays or objects too deeply to parse") from None
    return validate(doc)


def config_hash(doc: dict) -> str:
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


# Each section's schema keys are its dataclass's fields, which hold the defaults.
def pool_config(doc: dict) -> PoolConfig:
    return PoolConfig(**doc.get("pool", {}))


def estimate_window(doc: dict) -> int:
    return doc.get("estimate", {}).get("window", regime.DEFAULT_WINDOW)


def reward_params(doc: dict) -> RewardParams:
    return RewardParams(**doc.get("reward", {}))


def train_config(doc: dict, seed: int) -> TrainConfig:
    return TrainConfig(**doc.get("train", {}), seed=seed)


def heatmap_theta_range(doc: dict) -> tuple[float, float]:
    h = doc.get("heatmap", {})
    return h.get("theta_min", HEATMAP_THETA_RANGE[0]), h.get("theta_max", HEATMAP_THETA_RANGE[1])


PROFILES = {
    "smoke": {"episodes": 20, "episode_length": 3600},
    "full": {"episodes": 300, "episode_length": 36_000},
}


def apply_profile(doc: dict, profile: str | None) -> dict:
    if profile is None:
        return doc
    if profile not in PROFILES:
        raise ConfigError(f"unknown profile {profile!r}")
    doc = dict(doc)
    doc["train"] = {**doc.get("train", {}), **PROFILES[profile]}
    return doc


def schedule(doc: dict) -> RegimeSchedule:
    sy = doc.get("data", {}).get("synth")
    if sy is None:
        raise ConfigError("config has no data.synth section")
    return RegimeSchedule(
        segments=tuple(
            (int(seg["duration"]), OuParams(seg["theta"], seg["mu"], seg["sigma"]))
            for seg in sy["segments"]
        ),
        initial_price=sy["initial_price"],
        volume_model=VolumeModel(**{"base_notional": 15_000.0, **sy.get("volume", {})}),
    )
