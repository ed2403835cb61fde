"""Scenario plumbing: metrics windows, aggregation, CSV schema, overrides."""

from dataclasses import replace

import numpy as np
import pytest

from marketsched.agents import ARCH_FULL, InfeasibleArchitectureError
from marketsched.config import ConfigError, EnvConfig, JobType
from marketsched.env import AUCTIONEER, SchedulingEnv
from marketsched.harness import (
    AggregateRecord,
    RunRecord,
    Scenario,
    aggregate,
    apply_overrides,
    builtin_scenarios,
    export_aggregate_csv,
    export_run_csv,
    read_series_csv,
    run_scenario,
    run_sweep,
)
from marketsched.neural import PPOHyper


def tiny_record(values, name="EXP", seed=1):
    return RunRecord(scenario=name, seed=seed, steps=list(range(len(values))),
                     series={"x": list(values)})


class TestAggregate:
    def test_identical_records_have_zero_std(self):
        agg = aggregate([tiny_record([1.0, 2.0]), tiny_record([1.0, 2.0], seed=2)])
        assert agg.mean["x"] == [1.0, 2.0]
        assert agg.std["x"] == [0.0, 0.0]

    def test_mean_and_population_std(self):
        agg = aggregate([tiny_record([1.0]), tiny_record([3.0], seed=2)])
        assert agg.mean["x"] == [2.0]
        assert agg.std["x"] == [1.0]

    def test_absent_points_excluded_pairwise(self):
        records = [tiny_record([1.0]), tiny_record([3.0], seed=2),
                   tiny_record([None], seed=3)]
        agg = aggregate(records)
        assert agg.mean["x"] == [2.0]
        assert agg.count["x"] == [2]

    def test_all_absent_stays_absent(self):
        agg = aggregate([tiny_record([None]), tiny_record([None], seed=2)])
        assert agg.mean["x"] == [None] and agg.count["x"] == [0]

    def test_needs_a_record(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_one_record_is_its_own_aggregate(self):
        agg = aggregate([tiny_record([1 / 3, None, 2.5])])
        assert agg.seed_count == 1
        assert agg.mean["x"] == [1 / 3, None, 2.5]
        assert agg.std["x"] == [0.0, None, 0.0]
        assert agg.count["x"] == [1, 0, 1]

    def test_one_value_matches_numpy_bit_for_bit(self):
        rng = np.random.default_rng(7)
        values = [*rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200),
                  0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0, 3, -7, 2**53 + 1,
                  2**60 + 1, -(2**60 + 1)]
        agg = aggregate([tiny_record(values)])
        expected_mean = [repr(float(np.asarray([v]).mean())) for v in values]
        expected_std = [repr(float(np.asarray([v]).std())) for v in values]
        assert [repr(m) for m in agg.mean["x"]] == expected_mean
        assert [repr(s) for s in agg.std["x"]] == expected_std

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            aggregate([tiny_record([1.0]), tiny_record([1.0, 2.0], seed=2)])

    def test_records_of_different_scenarios_rejected(self):
        with pytest.raises(ValueError, match="mismatching scenarios"):
            aggregate([tiny_record([1.0], name="A"), tiny_record([3.0], name="B", seed=2)])

    def test_a_repeated_seed_is_rejected(self):
        # two records of one seed would count it twice and narrow the std
        with pytest.raises(ValueError, match="seed 2 is in more than one record"):
            aggregate([tiny_record([1.0]), tiny_record([3.0], seed=2),
                       tiny_record([3.0], seed=2)])

    def test_seed_permutation_leaves_aggregate_unchanged(self):
        records = [tiny_record([1.0, 4.0]), tiny_record([2.0, None], seed=2),
                   tiny_record([3.0, 8.0], seed=3)]
        forward_agg = aggregate(records)
        reverse_agg = aggregate(records[::-1])
        assert forward_agg.mean == reverse_agg.mean
        assert forward_agg.std == reverse_agg.std


def captured_steps(monkeypatch):
    """The list every later ``SchedulingEnv.step`` appends its result to."""
    results = []
    step = SchedulingEnv.step

    def recording_step(env, actions):
        result = step(env, actions)
        results.append(result)
        return result

    monkeypatch.setattr(SchedulingEnv, "step", recording_step)
    return results


class TestRunScenario:
    def single_scenario(self, **kwargs):
        base = builtin_scenarios()["BASE_SINGLE"]
        return replace(base, **kwargs)

    def test_window_one_equals_per_step_mean(self, monkeypatch):
        scenario = self.single_scenario(total_steps=300, window=1, record_every=1)
        results = captured_steps(monkeypatch)
        record = run_scenario(scenario, seed=4)
        assert any(r.completions for r in results)
        assert record.steps == list(range(1, 301))
        for point, value in zip(record.steps, record.series["ntat_type_0"]):
            # the window at record point s covers env time s - 1
            done = [c.normalized_turnaround for c in results[point - 1].completions]
            assert results[point - 1].time == point - 1
            if done:
                assert value == pytest.approx(sum(done) / len(done))
            else:
                assert value is None

    def test_empty_window_is_absent_not_zero(self):
        scenario = self.single_scenario(total_steps=3, window=1, record_every=1)
        record = run_scenario(scenario, seed=4)
        assert record.series["ntat_type_0"][0] is None

    def test_no_trading_scenario_never_trades(self):
        scenario = replace(builtin_scenarios()["EXP1_NO_TRADING"],
                           total_steps=400, window=100, record_every=100)
        record = run_scenario(scenario, seed=5)
        assert all(v == 0.0 for v in record.series["trade_count"])

    def test_deterministic_records(self):
        scenario = replace(builtin_scenarios()["EXP1_TRADING"],
                           total_steps=300, window=100, record_every=50)
        a = run_scenario(scenario, seed=6)
        b = run_scenario(scenario, seed=6)
        assert a == b

    def test_series_match_a_naive_recount_of_every_step(self, monkeypatch):
        # free pricing, so grants, self-trades and auctioneer income all occur;
        # 610 is not a multiple of record_every, so the final point is recorded too
        base = builtin_scenarios()["EXP4_PRICING_COMM"]
        scenario = replace(base, total_steps=610, window=120, record_every=50,
                           hyper=replace(base.hyper, rollout_length=64))
        results = captured_steps(monkeypatch)
        record = run_scenario(scenario, seed=3)
        trades = [t for r in results for t in r.trades]
        assert any(t.seller == AUCTIONEER for t in trades)
        assert any(t.seller == t.buyer for t in trades)
        assert any(r.auctioneer_income for r in results)

        type_ids = [t.id for t in scenario.env.job_types]
        names = [f"ntat_type_{tid}" for tid in type_ids]
        names += [f"price_type_{tid}" for tid in type_ids]
        expected = {name: [] for name in names + ["trade_count", "auctioneer_income"]}
        steps = list(range(50, 610, 50)) + [610]
        for point in steps:
            inside = [r for r in results if point - scenario.window <= r.time < point]
            for tid in type_ids:
                ntat = [c.normalized_turnaround for r in inside for c in r.completions
                        if c.type_id == tid]
                price = [t.price for r in inside for t in r.trades if t.job_type_id == tid]
                expected[f"ntat_type_{tid}"].append(float(np.mean(ntat)) if ntat else None)
                expected[f"price_type_{tid}"].append(float(np.mean(price)) if price else None)
            expected["trade_count"].append(float(sum(
                t.seller != AUCTIONEER for r in inside for t in r.trades)))
            expected["auctioneer_income"].append(float(sum(
                r.auctioneer_income for r in inside)))
        assert len(results) == 610
        assert record.steps == steps
        assert list(record.series) == list(expected)
        assert record.series == expected

    def test_sweep_workers_agree_with_serial(self):
        base = builtin_scenarios()["BASE_DUO"]
        scenario = replace(base, total_steps=200, window=100, record_every=50,
                           hyper=replace(base.hyper, rollout_length=64))
        serial = run_sweep(scenario, seeds=[1, 2], workers=1)
        parallel = run_sweep(scenario, seeds=[1, 2], workers=2)
        assert serial == parallel

    def test_learned_sweep_workers_agree_with_serial(self):
        # FULL's 1323-action updates run on two threads, inside each worker,
        # whatever the BLAS's thread count
        base = builtin_scenarios()["EXP1_TRADING"]
        full = builtin_scenarios()["EXP2_ARCH_2X2"]
        for scenario in (replace(base, total_steps=600, window=100,
                                 hyper=replace(base.hyper, rollout_length=64)),
                         replace(full, arch=(ARCH_FULL,) * full.env.num_agents, total_steps=300,
                                 window=100, hyper=replace(full.hyper, rollout_length=64))):
            serial = run_sweep(scenario, seeds=[1, 2], workers=1)
            parallel = run_sweep(scenario, seeds=[1, 2], workers=2)
            assert serial == parallel

    def test_a_worker_hands_back_an_infeasible_architecture(self):
        # each worker's error comes back to the pool pickled
        base = builtin_scenarios()["EXP2_ARCH_4X4"]
        scenario = replace(base, arch=(ARCH_FULL,) * base.env.num_agents)
        with pytest.raises(InfeasibleArchitectureError, match="3570125") as err:
            run_sweep(scenario, seeds=[1, 2], workers=2)
        assert (err.value.arch, err.value.cardinality) == (ARCH_FULL, 3_570_125)


class TestCsv:
    def test_export_import_roundtrip(self, tmp_path):
        record = RunRecord("S", 1, [100, 200],
                           {"a": [1.5, None], "b": [0.25, 0.75]})
        path = tmp_path / "run.csv"
        export_run_csv(record, path)
        table = read_series_csv(path)
        assert table["a"].steps == [100] and table["a"].values == [1.5]
        assert table["b"].values == [0.25, 0.75]

    def test_reexport_is_byte_identical(self, tmp_path):
        record = RunRecord("S", 1, [1], {"a": [1 / 3]})
        export_run_csv(record, tmp_path / "x.csv")
        export_run_csv(record, tmp_path / "y.csv")
        assert (tmp_path / "x.csv").read_bytes() == (tmp_path / "y.csv").read_bytes()

    def test_empty_record_yields_header_only(self, tmp_path):
        export_run_csv(RunRecord("S", 1, [], {}), tmp_path / "empty.csv")
        assert (tmp_path / "empty.csv").read_text() == "step,series,value,seed_count,std\n"

    def test_aggregate_export_skips_empty_points(self, tmp_path):
        agg = AggregateRecord("S", 2, [1, 2], {"a": [2.0, None]},
                              {"a": [1.0, None]}, {"a": [2, 0]})
        path = tmp_path / "agg.csv"
        export_aggregate_csv(agg, path)
        table = read_series_csv(path)
        assert table["a"].steps == [1]
        assert table["a"].stds == [1.0]

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("step,series,value,seed_count,std\n1,a,oops,1,0.0\n")
        with pytest.raises(ValueError, match="line 2"):
            read_series_csv(path)


class TestOverrides:
    def test_nested_override(self):
        data = builtin_scenarios()["EXP1_TRADING"].to_dict()
        apply_overrides(data, ["env.num_cores=4", "hyper.learning_rate=0.001",
                               "env.job_types.0.spawn_prob=0.5"])
        scenario = Scenario.from_dict(data)
        assert scenario.env.num_cores == 4
        assert scenario.hyper.learning_rate == 0.001
        assert scenario.env.job_types[0].spawn_prob == 0.5

    def test_unknown_field_rejected(self):
        data = builtin_scenarios()["EXP1_TRADING"].to_dict()
        with pytest.raises(ConfigError):
            apply_overrides(data, ["env.bogus=1"])
        with pytest.raises(ConfigError):
            apply_overrides(data, ["no_equals_sign"])
        with pytest.raises(ConfigError):
            apply_overrides(data, ["env.job_types.9.burst=2"])

    @pytest.mark.parametrize("override, message", [
        ("env.num_cores.x=1", "override 'env.num_cores.x': 'x' is not addressable"),
        ("env.job_types.x.burst=2", "override 'env.job_types.x.burst': bad list index 'x'"),
        ("seeds.-1=9", "override 'seeds.-1': bad list index '-1'"),
        ("seeds.01=9", "override 'seeds.01': bad list index '01'"),
        pytest.param(f"seeds.{'1' * 5000}=9",
                     f"override 'seeds.{'1' * 5000}': bad list index '{'1' * 5000}'",
                     id="seeds.<5000 digits>=9"),
        ("env.bogus.x=1", "override 'env.bogus.x': unknown field 'bogus'"),
    ])
    def test_rejection_names_the_failing_part(self, override, message):
        data = builtin_scenarios()["EXP1_TRADING"].to_dict()
        before = builtin_scenarios()["EXP1_TRADING"].to_dict()
        with pytest.raises(ConfigError) as err:
            apply_overrides(data, [override])
        assert str(err.value) == message
        assert data == before

    def test_list_element_is_assigned(self):
        data = builtin_scenarios()["EXP1_TRADING"].to_dict()
        apply_overrides(data, ["seeds.0=9", "arch.1=SEMI"])
        assert data["seeds"] == [9, 2, 3, 4, 5]
        assert data["arch"] == ["DIST_PS", "SEMI"]
        assert Scenario.from_dict(data).seeds == (9, 2, 3, 4, 5)


class TestBuiltinScenarios:
    def test_exp3_single_type(self):
        for name in ("EXP3_SCARCITY_2C_COMM", "EXP3_SCARCITY_4C_NONCOMM"):
            scenario = builtin_scenarios()[name]
            (jt,) = scenario.env.job_types
            assert jt.priority == 5 and jt.burst == 5

    def test_exp4_priorities_and_equal_spawn(self):
        scenario = builtin_scenarios()["EXP4_PRICING_COMM"]
        types = scenario.env.job_types
        assert sorted(t.priority for t in types) == [2, 4, 8]
        assert len({t.spawn_prob for t in types}) == 1

    def test_exp1_job_mix(self):
        scenario = builtin_scenarios()["EXP1_TRADING"]
        low, high = scenario.env.job_types
        assert low.priority < high.priority
        assert low.burst > high.burst
        assert low.spawn_prob > high.spawn_prob

    def test_every_scenario_validates(self):
        for scenario in builtin_scenarios().values():
            roundtrip = Scenario.from_dict(scenario.to_dict())
            assert roundtrip == scenario

    def test_omitted_fields_take_the_dataclass_defaults(self):
        job = {"id": 0, "priority": 1, "burst": 2, "spawn_prob": 0.5}
        data = {"name": "X", "arch": "DIST",
                "env": {"num_agents": 1, "num_cores": 1, "num_slots": 1, "job_types": [job]}}
        built = Scenario("X", EnvConfig(1, 1, 1, (JobType(0, 1, 2, 0.5),)), "DIST",
                         PPOHyper())
        assert Scenario.from_dict(data) == built
        assert PPOHyper.from_dict({}) == PPOHyper()

    def test_scenario_consistency_checks(self):
        scenario = builtin_scenarios()["EXP1_TRADING"]
        with pytest.raises(ConfigError):
            replace(scenario, total_steps=10, window=100)
        with pytest.raises(ConfigError):
            replace(scenario, arch=("DIST",))
        # a name is at most 200 UTF-8 bytes, and encodes: no lone surrogate
        for name in ("../x", "a\\b", "a\0b", "..", "", 7, "\ud800x", "\udc80x", "é" * 101,
                     "a" * 201):
            with pytest.raises(ConfigError, match="name"):
                replace(scenario, name=name)
        for name in ("é" * 100, "a" * 200):
            assert replace(scenario, name=name).name == name
        # a seed has at most 20 digits, as the name's bound assumes
        with pytest.raises(ConfigError, match="at most 18446744073709551615"):
            replace(scenario, seeds=(2**64,))
        assert replace(scenario, seeds=(2**64 - 1,)).seeds == (2**64 - 1,)
