"""Environment configuration: job types and pricing modes, checked when built."""

from __future__ import annotations

from dataclasses import MISSING, dataclass
from enum import Enum
from functools import cached_property
from sys import float_info
from typing import Any


class ConfigError(ValueError):
    """Raised when a configuration violates one of its declared constraints."""


def whole_number(value: Any, name: str) -> int:
    """``value`` as an int; a bool, a non-number or a fraction is a ConfigError."""
    if type(value) is int or type(value) is float and value.is_integer():
        return int(value)
    raise ConfigError(f"{name} must be a whole number, got {value!r}")


def check_int(value: Any, name: str, low: int) -> None:
    """Raise ConfigError unless ``value`` is an int, not a bool, and at least ``low``."""
    if type(value) is not int or value < low:
        raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")


# 20 digits, the most a file name leaves room for (``harness.Scenario``'s name)
MAX_SEED = 2**64 - 1


def check_seed(value: Any, name: str) -> None:
    """Raise ConfigError unless ``value`` is an int, not a bool, in [0, MAX_SEED]."""
    check_int(value, name, 0)
    if value > MAX_SEED:
        raise ConfigError(f"{name} must be at most {MAX_SEED}, got {value!r}")


def finite_number(value: Any, name: str) -> float:
    """``value`` as a float; a bool, a non-number, NaN, infinity or an int
    beyond float range is a ConfigError."""
    if type(value) in (int, float) and abs(value) <= float_info.max:
        return float(value)
    raise ConfigError(f"{name} must be a finite number, got {value!r}")


def check_keys(cls: type, data: Any, where: str) -> None:
    """Raise ConfigError unless ``data`` is a dict whose keys all name fields
    of the dataclass ``cls`` and include every field without a default."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be an object, got {data!r}")
    declared = cls.__dataclass_fields__
    unknown = [key for key in data if key not in declared]
    missing = [name for name, f in declared.items()
               if f.default is MISSING is f.default_factory and name not in data]
    for problem, keys in (("unknown", unknown), ("missing", missing)):
        if keys:
            raise ConfigError(f"{where}: {problem} field {keys[0]!r}")


class PricingMode(str, Enum):
    FIXED = "FIXED"
    FREE_COMMERCIAL = "FREE_COMMERCIAL"
    FREE_NONCOMMERCIAL = "FREE_NONCOMMERCIAL"

    @property
    def is_free(self) -> bool:
        return self is not PricingMode.FIXED


@dataclass(frozen=True)
class JobType:
    """A job class: reward priority, burst length in steps, spawn probability."""

    id: int
    priority: int
    burst: int
    spawn_prob: float

    def __post_init__(self) -> None:
        if type(self.id) is not int:
            raise ConfigError(f"job type id must be an integer, got {self.id!r}")
        check_int(self.priority, "job type priority", 1)
        check_int(self.burst, "job type burst", 1)
        if not 0.0 <= finite_number(self.spawn_prob, "job type spawn_prob") <= 1.0:
            raise ConfigError(
                f"job type {self.id}: spawn_prob must be in [0, 1], got {self.spawn_prob}"
            )


@dataclass(frozen=True)
class EnvConfig:
    """Static parameters of a scheduling market.

    ``num_agents`` agents, each with ``num_slots`` self-refilling job slots,
    compete for ``num_cores`` cores. Leftover spawn probability mass means an
    empty slot stays empty for that step.
    """

    num_agents: int
    num_cores: int
    num_slots: int
    job_types: tuple[JobType, ...]
    pricing_mode: PricingMode = PricingMode.FIXED
    trading_enabled: bool = True
    guard_threshold: int = 1_000_000

    def __post_init__(self) -> None:
        if not isinstance(self.job_types, (tuple, list)):
            raise ConfigError(f"job_types must be a list of job types, got {self.job_types!r}")
        object.__setattr__(self, "job_types", tuple(self.job_types))
        mode = self.pricing_mode
        if not isinstance(mode, str) or mode not in PricingMode.__members__:
            raise ConfigError(f"pricing_mode must be one of "
                              f"{', '.join(PricingMode.__members__)}, got {mode!r}")
        object.__setattr__(self, "pricing_mode", PricingMode(mode))
        for name in ("num_agents", "num_cores", "num_slots", "guard_threshold"):
            check_int(getattr(self, name), name, 1)
        if type(self.trading_enabled) is not bool:
            raise ConfigError(
                f"trading_enabled must be true or false, got {self.trading_enabled!r}")
        if not self.job_types:
            raise ConfigError("at least one job type is required")
        seen: set[int] = set()
        for t in self.job_types:
            if not isinstance(t, JobType):
                raise ConfigError(f"job_types must hold JobType objects, got {t!r}")
            if t.id in seen:
                raise ConfigError(f"duplicate job type id {t.id}")
            seen.add(t.id)
        total = sum(t.spawn_prob for t in self.job_types)
        if total > 1.0 + 1e-9:
            raise ConfigError(f"sum of spawn probabilities must be <= 1, got {total}")

    # Computed once per instance: the fields are frozen, and the cache lives in
    # the instance __dict__, outside equality, hashing, repr and to_dict.
    @cached_property
    def max_prio(self) -> int:
        return max(t.priority for t in self.job_types)

    @cached_property
    def max_burst(self) -> int:
        return max(t.burst for t in self.job_types)

    def to_dict(self) -> dict[str, Any]:
        return {
            "num_agents": self.num_agents,
            "num_cores": self.num_cores,
            "num_slots": self.num_slots,
            "job_types": [dict(vars(t)) for t in self.job_types],
            "pricing_mode": self.pricing_mode.value,
            "trading_enabled": self.trading_enabled,
            "guard_threshold": self.guard_threshold,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "EnvConfig":
        check_keys(cls, data, "env")
        if not isinstance(data["job_types"], list):
            raise ConfigError(f"env.job_types must be a list, got {data['job_types']!r}")
        for i, t in enumerate(data["job_types"]):
            check_keys(JobType, t, f"env.job_types.{i}")
        return cls(
            num_agents=whole_number(data["num_agents"], "num_agents"),
            num_cores=whole_number(data["num_cores"], "num_cores"),
            num_slots=whole_number(data["num_slots"], "num_slots"),
            job_types=tuple(
                JobType(
                    id=whole_number(t["id"], "job type id"),
                    priority=whole_number(t["priority"], "job type priority"),
                    burst=whole_number(t["burst"], "job type burst"),
                    spawn_prob=finite_number(t["spawn_prob"], "job type spawn_prob"),
                )
                for t in data["job_types"]
            ),
            pricing_mode=data.get("pricing_mode", cls.pricing_mode),
            trading_enabled=data.get("trading_enabled", cls.trading_enabled),
            guard_threshold=whole_number(data.get("guard_threshold", cls.guard_threshold),
                                         "guard_threshold"),
        )
