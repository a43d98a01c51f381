"""Run configuration: JSON schema, validation, hashing, object builders.

One JSON document configures every pipeline stage. Validation happens
before any work and rejects unknown keys, so a typo fails loudly instead
of silently falling back to a default. The sha256 hash of the canonical
(sorted, compact) JSON text is stamped into every output artifact.
"""

from __future__ import annotations

import hashlib
import json

import jsonschema

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


# Built once: jsonschema.validate re-checks SCHEMA against the metaschema
# on every call, which costs far more than validating a config does. A
# test checks SCHEMA instead.
_VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)


def validate(doc: dict) -> dict:
    exc = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(doc))
    if exc is not None:
        raise ConfigError(f"invalid config: {exc.message} (at {'/'.join(str(p) for p in exc.absolute_path)})")
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


def _reject_constant(token):
    # json accepts NaN and +-Infinity, which compare false against every
    # schema bound and would pass validation
    raise ConfigError(f"invalid config: {token} is not a JSON number")


def load(path) -> dict:
    with open(path) as fh:
        doc = json.load(fh, parse_constant=_reject_constant)
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
    vm = sy.get("volume", {})
    return RegimeSchedule(
        segments=tuple(
            (int(seg["duration"]), OuParams(seg["theta"], seg["mu"], seg["sigma"]))
            for seg in sy["segments"]
        ),
        initial_price=sy["initial_price"],
        volume_model=VolumeModel(
            base_notional=vm.get("base_notional", 15_000.0),
            volatility_coupling=vm.get("volatility_coupling", 1.0),
        ),
    )
