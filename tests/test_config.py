"""EnvConfig: the cached scenario bounds leave the value semantics alone."""

import dataclasses
import pickle

import pytest

from marketsched.config import EnvConfig, JobType

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
