"""Config objects: the cached scenario bounds leave the value semantics alone,
and every field is checked when an object is built."""

import dataclasses
import math
import pickle

import pytest

from marketsched.config import ConfigError, EnvConfig, JobType
from marketsched.harness import builtin_scenarios
from marketsched.neural import PPOHyper

from helpers import make_config


def test_cached_bounds_leave_equality_dicts_and_pickling_unchanged():
    cfg, fresh = make_config(), make_config()
    assert (cfg.max_prio, cfg.max_burst) == (5, 10)
    assert {"max_prio", "max_burst"} <= set(vars(cfg))  # computed once, then cached
    assert cfg == fresh and hash(cfg) == hash(fresh) and repr(cfg) == repr(fresh)
    assert cfg.to_dict() == fresh.to_dict()
    assert "max_prio" not in cfg.to_dict()
    assert EnvConfig.from_dict(cfg.to_dict()) == cfg
    for original in (cfg, fresh):
        clone = pickle.loads(pickle.dumps(original))
        assert clone == cfg and (clone.max_prio, clone.max_burst) == (5, 10)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.num_cores = 3
    other = dataclasses.replace(cfg, job_types=(JobType(0, 9, 3, 0.5),))
    assert (other.max_prio, other.max_burst) == (9, 3)


SCENARIO = builtin_scenarios()["EXP1_TRADING"]
JOB_TYPE = SCENARIO.env.job_types[0]


INT_FIELDS = [
    (JOB_TYPE, ("id", "priority", "burst")),
    (SCENARIO.env, ("num_agents", "num_cores", "num_slots", "guard_threshold")),
    (SCENARIO, ("total_steps", "window", "record_every")),
    (SCENARIO.hyper, PPOHyper.integer_fields),
]
CASES = [(config, name, bad) for config, names in INT_FIELDS for name in names
         for value in [getattr(config, name)] for bad in (value + 0.5, True, str(value))]
FLOAT_FIELDS = [
    (JOB_TYPE, ("spawn_prob",)),
    (SCENARIO.hyper, [name for name in vars(SCENARIO.hyper)
                      if name not in PPOHyper.integer_fields]),
]
CASES += [(config, name, bad) for config, names in FLOAT_FIELDS for name in names
          for bad in (True, str(getattr(config, name)), math.nan, 10**400)]
CASES += [(SCENARIO.env, "trading_enabled", bad) for bad in ("no", 1, None)]
CASES += [(SCENARIO, "seeds", (bad,)) for bad in (1.5, True, "1")]
CASES += [(SCENARIO.env, "job_types", (vars(JOB_TYPE),)),
          (SCENARIO, "env", SCENARIO.env.to_dict()),
          (SCENARIO, "hyper", SCENARIO.hyper.to_dict())]


@pytest.mark.parametrize("config, field, bad", CASES,
                         ids=[f"{type(c).__name__}.{f}={b!r}"[:40] for c, f, b in CASES])
def test_every_int_bool_and_nested_config_field_rejects_another_type(config, field, bad):
    # every config object that exists is valid: replace re-checks its fields
    kept = dataclasses.replace(config, **{field: getattr(config, field)})
    assert kept == config
    with pytest.raises(ValueError, match=field.rstrip("s")):
        dataclasses.replace(config, **{field: bad})


SHAPES = [(SCENARIO.env, "job_types", 5), (SCENARIO, "seeds", 5), (SCENARIO, "arch", 5),
          (SCENARIO, "arch", None)]
SHAPES += [(SCENARIO.env, "pricing_mode", bad) for bad in ("BOGUS", 5, ["FIXED"])]


@pytest.mark.parametrize("config, field, bad", SHAPES,
                         ids=[f"{type(c).__name__}.{f}={b!r}" for c, f, b in SHAPES])
def test_a_field_of_another_shape_is_a_config_error(config, field, bad):
    with pytest.raises(ConfigError, match=field.rstrip("s")):
        dataclasses.replace(config, **{field: bad})
