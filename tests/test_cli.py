"""Command-line behavior: artifacts, exit codes, reproducibility."""

import contextlib
import itertools
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marketsched import cli
from marketsched.agents import ARCH_DIST, ARCH_FULL, ARCH_SEMI, unit_layout
from marketsched.cli import (
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    CliError,
    main,
)
from marketsched.config import ConfigError, EnvConfig, JobType
from marketsched.harness import Scenario, apply_overrides, builtin_scenarios

FAST = ["--set", "total_steps=300", "--set", "window=100",
        "--set", "record_every=100", "--set", "hyper.rollout_length=64"]


def run_cli(*argv):
    return main(list(argv))


def assert_override_is_a_usage_error(override, tmp_path, capsys):
    """``run --set override`` exits 2 with one ``error:`` line naming the
    field, and writes nothing, inside ``--out`` or beside it."""
    out = tmp_path / "o"
    argv = ["run", "--scenario", "BASE_DUO", *FAST, "--set", override]
    assert run_cli(*argv, "--out", str(out)) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and not any(tmp_path.iterdir())
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert override.split("=")[0].split(".")[-1] in captured.err


class TestSweep:
    def test_artifact_count(self, tmp_path):
        out = tmp_path / "o"
        code = run_cli("sweep", "--scenario", "EXP1_TRADING", "--seeds", "2",
                       "--out", str(out), *FAST)
        assert code == EXIT_OK
        csvs = sorted(p.name for p in out.glob("*.csv"))
        assert csvs == ["EXP1_TRADING_aggregate.csv", "EXP1_TRADING_seed1.csv",
                        "EXP1_TRADING_seed2.csv"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seeds"] == [1, 2]
        assert manifest["scenario"]["total_steps"] == 300

    def test_repeat_is_byte_identical(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert run_cli("sweep", "--scenario", "EXP1_TRADING", "--seeds", "2",
                           "--out", str(out), *FAST) == EXIT_OK
            outs.append(out)
        for name in ("EXP1_TRADING_seed1.csv", "EXP1_TRADING_aggregate.csv",
                     "manifest.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_workers_come_from_the_flag_only(self, tmp_path, monkeypatch):
        # --workers is the only worker-count setting
        monkeypatch.setenv("MARKETSCHED_WORKERS", "abc")
        out = tmp_path / "o"
        assert run_cli("sweep", "--scenario", "BASE_DUO", "--seeds", "2",
                       "--out", str(out), *FAST) == EXIT_OK
        assert len(list(out.glob("BASE_DUO_seed*.csv"))) == 2


class TestRun:
    def test_writes_csv_and_manifest(self, tmp_path):
        out = tmp_path / "r"
        code = run_cli("run", "--scenario", "BASE_SINGLE", "--seed", "3",
                       "--out", str(out), "--set", "total_steps=250")
        assert code == EXIT_OK
        assert (out / "BASE_SINGLE_seed3.csv").exists()
        assert (out / "manifest.json").exists()

    def test_infeasible_architecture_names_cardinality(self, tmp_path, capsys):
        code = run_cli("run", "--scenario", "EXP2_ARCH_4X4", "--arch", "FULL",
                       "--out", str(tmp_path), *FAST)
        assert code == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert "3570125" in err.replace(",", "").replace(" ", "")

    def test_infeasible_architecture_too_large_to_print_names_its_bound(self, tmp_path,
                                                                        capsys):
        # FULL's action space on 10000 slots is a number of over 4300 digits
        code = run_cli("run", "--scenario", "EXP2_ARCH_2X2", "--arch", "FULL",
                       "--set", "env.num_slots=10000", "--out", str(tmp_path), *FAST)
        assert code == EXIT_INFEASIBLE
        assert capsys.readouterr().err == ("infeasible: FULL needs an action space of > 2^63, "
                                           "above the guard threshold 1000000\n")

    def test_unknown_scenario_is_usage_error(self, tmp_path, capsys):
        code = run_cli("run", "--scenario", "NO_SUCH", "--out", str(tmp_path))
        assert code == EXIT_USAGE
        assert "unknown scenario" in capsys.readouterr().err

    def test_invalid_override_is_usage_error(self, tmp_path, capsys):
        code = run_cli("run", "--scenario", "BASE_SINGLE", "--out", str(tmp_path),
                       "--set", "bogus.path=1")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("override, field, value", [
        ("hyper.learning_rate=0.001", ("hyper", "learning_rate"), 0.001),
        ("env.trading_enabled=false", ("env", "trading_enabled"), False),
        ("seeds.0=7", ("seeds", 0), 7),
    ])
    def test_an_override_reaches_a_field_the_file_leaves_out(self, override, field, value,
                                                             tmp_path):
        full = builtin_scenarios()["BASE_SINGLE"].to_dict()
        data = {"name": "SPARSE", "arch": full["arch"], "total_steps": 200, "window": 100,
                "env": {key: full["env"][key]
                        for key in ("num_agents", "num_cores", "num_slots", "job_types")}}
        path = tmp_path / "sparse.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "o"
        assert run_cli("run", "--scenario", str(path), "--set", override,
                       "--out", str(out)) == EXIT_OK
        node = json.loads((out / "manifest.json").read_text())["scenario"]
        for part in field:
            node = node[part]
        assert node == value

    def test_an_override_reaches_an_architecture_the_file_names_once(self, tmp_path):
        data = builtin_scenarios()["BASE_DUO"].to_dict()
        data["arch"] = "DIST"
        path = tmp_path / "duo.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "o"
        assert run_cli("run", "--scenario", str(path), *FAST, "--set", "total_steps=100",
                       "--set", "arch.0=FULL", "--out", str(out)) == EXIT_OK
        assert json.loads((out / "manifest.json").read_text())["scenario"]["arch"] == [
            "FULL", "DIST"]

    def test_a_file_is_checked_before_its_overrides(self, tmp_path, capsys):
        # FAST would repair the file's horizon, but the file is checked as written
        data = builtin_scenarios()["BASE_DUO"].to_dict()
        data["total_steps"] = 50
        path = tmp_path / "short.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "o"
        assert run_cli("run", "--scenario", str(path), *FAST, "--out", str(out)) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "total_steps" in captured.err

    def test_scenario_file_roundtrip(self, tmp_path):
        data = builtin_scenarios()["BASE_SINGLE"].to_dict()
        data["total_steps"] = 200
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(data))
        code = run_cli("run", "--scenario", str(path), "--out", str(tmp_path / "o"))
        assert code == EXIT_OK
        assert (tmp_path / "o" / "BASE_SINGLE_seed1.csv").exists()


class TestCardinality:
    def test_two_by_two_table(self, capsys):
        assert run_cli("cardinality", "--cores", "2", "--agents", "2",
                       "--slots", "3") == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        table = {line.split()[0]: line.split()[1] for line in lines[1:]}
        assert table["DIST_OFFER"] == "3"
        assert table["DIST_ACCEPT"] == "7"
        assert table["SEMI_ACCEPT"] == "49"
        assert table["SEMI_OFFER"] == "27"
        assert table["FULL"] == "1323"

    def test_four_by_four_table(self, capsys):
        run_cli("cardinality", "--cores", "4", "--agents", "4", "--slots", "3")
        out = capsys.readouterr().out
        for value in ("5", "13", "125", "28561", "3570125"):
            assert value in out

    def test_minimal_case(self, capsys):
        run_cli("cardinality", "--cores", "1", "--agents", "1", "--slots", "1")
        lines = capsys.readouterr().out.splitlines()
        values = [line.split()[1] for line in lines[1:]]
        assert values == ["2", "2", "2", "2", "4"]

    def test_counts_below_one_are_a_usage_error(self, capsys):
        assert run_cli("cardinality", "--cores", "0", "--agents", "1",
                       "--slots", "1") == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "num_cores" in captured.err

    def test_table_equals_one_read_unit_by_unit(self, capsys):
        rows = (("DIST_OFFER", ARCH_DIST, ("offer", 0)), ("DIST_ACCEPT", ARCH_DIST, ("accept", 0)),
                ("SEMI_OFFER", ARCH_SEMI, ("offer", 0)), ("SEMI_ACCEPT", ARCH_SEMI, ("accept", 0)),
                ("FULL", ARCH_FULL, ("full", 0)))
        for cores, agents, slots in itertools.product((1, 2, 3), repeat=3):
            config = EnvConfig(num_agents=agents, num_cores=cores, num_slots=slots,
                               job_types=(JobType(0, 1, 1, 1.0),))
            want = [f"action-space cardinalities for cores={cores} agents={agents} slots={slots}"]
            for label, arch, key in rows:
                (spec,) = [s for s in unit_layout(arch, config) if s.key == key]
                want.append(f"  {label:<11}  {spec.action_count}")
            assert run_cli("cardinality", "--cores", str(cores), "--agents", str(agents),
                           "--slots", str(slots)) == EXIT_OK
            assert capsys.readouterr().out.splitlines() == want

    def test_only_the_aggregated_architectures_are_laid_out(self, monkeypatch, capsys):
        laid_out = []

        def counted(arch, config):
            laid_out.append(arch)
            return unit_layout(arch, config)

        monkeypatch.setattr(cli, "unit_layout", counted)
        assert run_cli("cardinality", "--cores", "2", "--agents", "2",
                       "--slots", "3") == EXIT_OK
        assert sorted(laid_out) == [ARCH_FULL, ARCH_SEMI]
        assert capsys.readouterr().out.split()[-1] == "1323"

    def test_overflow_reported_as_infeasible(self, capsys):
        run_cli("cardinality", "--cores", "99", "--agents", "99", "--slots", "99")
        out = capsys.readouterr().out
        assert "infeasible (> 2^63)" in out


class TestPlot:
    def write_csv(self, path, rows):
        path.write_text("step,series,value,seed_count,std\n"
                        + "".join(f"{r}\n" for r in rows))

    def test_constant_series_draws_flat_polyline(self, tmp_path):
        csv = tmp_path / "one.csv"
        self.write_csv(csv, ["100,ntat_type_0,1.0,1,0.0", "200,ntat_type_0,1.0,1,0.0"])
        out = tmp_path / "c.svg"
        assert run_cli("plot", str(csv), "--out", str(out)) == EXIT_OK
        svg = out.read_text()
        polylines = [l for l in svg.splitlines() if "<polyline" in l]
        assert len(polylines) == 1
        pts = polylines[0].split('points="')[1].split('"')[0].split()
        ys = {p.split(",")[1] for p in pts}
        assert len(ys) == 1  # horizontal line

    def test_two_csvs_give_two_legend_entries(self, tmp_path):
        for name in ("a", "b"):
            self.write_csv(tmp_path / f"{name}.csv", [f"1,ntat_type_0,{1.0},1,0.0"])
        out = tmp_path / "two.svg"
        assert run_cli("plot", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"),
                       "--out", str(out)) == EXIT_OK
        svg = out.read_text()
        assert "a:ntat_type_0" in svg and "b:ntat_type_0" in svg

    def test_same_input_same_bytes(self, tmp_path):
        csv = tmp_path / "one.csv"
        self.write_csv(csv, ["100,price_type_0,2.5,3,0.5", "200,price_type_0,3.0,3,0.4"])
        outs = []
        for name in ("x.svg", "y.svg"):
            out = tmp_path / name
            assert run_cli("plot", str(csv), "--out", str(out)) == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("row", [f"1,x,{bad},1,0.0" for bad in ("nan", "inf", "-inf")]
                             + [f"1,x,1.0,1,{bad}" for bad in ("nan", "inf", "-inf")])
    def test_non_finite_value_is_rejected(self, row, tmp_path, capsys):
        csv = tmp_path / "bad.csv"
        self.write_csv(csv, ["0,x,1.0,1,0.0", row])
        out = tmp_path / "o.svg"
        assert run_cli("plot", str(csv), "--out", str(out)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {csv}: line 3: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("seed_count", ["0", "-3", "1.5", "x"])
    def test_seed_count_below_one_or_fractional_is_rejected(self, seed_count, tmp_path,
                                                            capsys):
        csv = tmp_path / "bad.csv"
        self.write_csv(csv, ["1,x,1.0,2,0.5", f"2,x,2.0,{seed_count},0.5"])
        out = tmp_path / "o.svg"
        assert run_cli("plot", str(csv), "--out", str(out)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {csv}: line 3: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("std", ["-1.5", "-0.001"])
    def test_negative_std_is_rejected(self, std, tmp_path, capsys):
        csv = tmp_path / "bad.csv"
        self.write_csv(csv, ["1,x,1.0,2,0.5", f"2,x,2.0,2,{std}"])
        out = tmp_path / "o.svg"
        assert run_cli("plot", str(csv), "--out", str(out)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {csv}: line 3: std must be >= 0")
        assert not out.exists()

    def test_malformed_csv_reports_line(self, tmp_path, capsys):
        csv = tmp_path / "bad.csv"
        csv.write_text("step,series,value,seed_count,std\n5,x,nope,1,0\n")
        assert run_cli("plot", str(csv), "--out", str(tmp_path / "o.svg")) == EXIT_USAGE
        assert "line 2" in capsys.readouterr().err


class TestBaselineCommand:
    def test_match_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "b"
        code = run_cli("baseline", "--scenario", "BASE_TRIO", "--seed", "2",
                       "--steps", "400", "--out", str(out))
        assert code == EXIT_OK
        assert "match" in capsys.readouterr().out
        assert (out / "BASE_TRIO_seed2_env.csv").exists()
        assert (out / "BASE_TRIO_seed2_fcfs.csv").exists()

    def test_requires_no_trading(self, tmp_path):
        code = run_cli("baseline", "--scenario", "EXP1_TRADING",
                       "--out", str(tmp_path))
        assert code == EXIT_USAGE


class TestUsage:
    def test_help_lists_subcommands(self, capsys):
        assert run_cli("--help") == EXIT_OK
        out = capsys.readouterr().out
        for sub in ("run", "sweep", "cardinality", "plot", "baseline"):
            assert sub in out

    def test_unknown_flag_is_an_error(self, capsys):
        assert run_cli("cardinality", "--cores", "1", "--agents", "1",
                       "--slots", "1", "--frobnicate") == EXIT_USAGE

    def test_missing_subcommand_is_an_error(self):
        assert run_cli() == EXIT_USAGE

    @pytest.mark.parametrize("form", ["override", "file"])
    def test_unknown_architecture_is_a_usage_error(self, form, tmp_path, capsys):
        if form == "override":
            argv = ["--scenario", "BASE_DUO", "--set", "arch=BOGUS"]
        else:
            data = builtin_scenarios()["BASE_DUO"].to_dict()
            data["arch"] = ["DIST", "NOPE"]
            path = tmp_path / "scenario.json"
            path.write_text(json.dumps(data))
            argv = ["--scenario", str(path)]
        out = tmp_path / "o"
        assert run_cli("run", *argv, "--out", str(out)) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert ("'BOGUS'" if form == "override" else "'NOPE'") in captured.err

    @pytest.mark.parametrize("override", [
        "env.trading_enabled=False", 'env.trading_enabled="false"', "env.trading_enabled=1",
        "env.num_slots=2.5", "env.job_types.0.burst=1.5", "env.guard_threshold=true",
        "total_steps=300.5", "env.job_types.0.spawn_prob=false",
        'env.job_types.0.spawn_prob="0.5"', "seeds=[3,3]", "seeds=[]", "seeds=[-1]",
        "seeds=5", "env.job_types=3", "name=../o5x", "name=[1]", 'name=""',
        'name="\\ud800x"', pytest.param("name=" + "a" * 300, id="name=a*300"),
        "env.pricing_mode=BOGUS", "env.pricing_mode=5", 'env.pricing_mode=["FIXED"]',
        pytest.param(f"env.job_types.0.spawn_prob={10**400}",
                     id="env.job_types.0.spawn_prob=10**400"),
        pytest.param("total_steps=" + "[" * 100_000, id="total_steps=[ nested 100000 deep"),
    ])
    def test_env_values_are_type_checked(self, override, tmp_path, capsys):
        assert_override_is_a_usage_error(override, tmp_path, capsys)

    @pytest.mark.parametrize("content", [
        b"{", b"\xff\xfe{}", pytest.param(b'{"name": ' + b"1" * 5000 + b"}", id="5000 digits"),
        pytest.param(b"[" * 100_000, id="nested 100000 deep"),
    ])
    def test_an_unreadable_scenario_file_is_a_usage_error(self, content, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_bytes(content)
        out = tmp_path / "o"
        assert run_cli("run", "--scenario", str(path), "--out", str(out)) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith(f"error: cannot read scenario file {path}: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("where, key", [
        ((), "env_x"), (("env",), "trading_enable"),
        (("env", "job_types", 0), "spawn_probability"), (("hyper",), "learning_rat"),
        (("env", "job_types", 0), "burst"),
    ])
    def test_scenario_file_fields_are_checked(self, where, key, tmp_path, capsys):
        # a key naming no field is rejected, and so is a missing one: the
        # job type's burst is deleted rather than added
        data = builtin_scenarios()["BASE_DUO"].to_dict()
        node = data
        for part in where:
            node = node[part]
        problem = "missing" if key in node else "unknown"
        if problem == "missing":
            del node[key]
        else:
            node[key] = 1
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "o"
        assert run_cli("run", "--scenario", str(path), *FAST, "--out", str(out)) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert f"{problem} field {key!r}" in captured.err

    @pytest.mark.parametrize("override", [
        "hyper.learning_rate=abc", "hyper.epochs=1.5", "hyper.entropy_coef=null",
        "hyper.learning_rate=-1", "hyper.value_coef=-0.5",
        *(pytest.param(f"hyper.{name}={10**400}", id=f"hyper.{name}=10**400")
          for name in ("learning_rate", "discount")),
    ])
    def test_hyper_values_are_type_checked(self, override, tmp_path, capsys):
        assert_override_is_a_usage_error(override, tmp_path, capsys)

    @pytest.mark.parametrize("argv", [
        ["run", "--scenario", "BASE_SINGLE", "--seed", "-1"],
        ["baseline", "--scenario", "BASE_DUO", "--seed", "-1"],
        ["sweep", "--scenario", "BASE_DUO", "--seeds", "-3"],
        ["baseline", "--scenario", "BASE_DUO", "--steps", "-5"],
        ["sweep", "--scenario", "BASE_DUO", "--workers", "-4"],
        ["sweep", "--scenario", "BASE_DUO", "--workers", "0"],
    ])
    def test_negative_counts_are_a_usage_error(self, argv, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_cli(*argv, "--out", str(out)) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert argv[-2] in captured.err


# what a one-field mutation sets a field to, besides deleting it
BAD_VALUES = (None, True, "x", [], {}, 2.5, -1, 10**400, math.inf, math.nan)
DELETE = object()


def one_field_mutations(node, path=()):
    """(path, value) of each one-field mutation of a scenario dictionary:
    every key or element, at any depth, deleted or set to each BAD_VALUES."""
    for key, child in node.items() if isinstance(node, dict) else enumerate(node):
        for value in (DELETE, *BAD_VALUES):
            yield path + (key,), value
        if isinstance(child, (dict, list)):
            yield from one_field_mutations(child, path + (key,))


BUILTIN_KEYS = sorted({".".join(map(str, path)) for scenario in builtin_scenarios().values()
                       for path, _ in one_field_mutations(scenario.to_dict())})


class TestBadScenarios:
    """A bad scenario, builtin or file, raises ConfigError and nothing else,
    so the CLI reports each one as a usage error."""

    def test_a_mutated_builtin_builds_or_is_a_config_error(self):
        for scenario in builtin_scenarios().values():
            for path, value in one_field_mutations(scenario.to_dict()):
                data = node = scenario.to_dict()
                for key in path[:-1]:
                    node = node[key]
                if value is DELETE:
                    del node[path[-1]]
                else:
                    node[path[-1]] = value
                with contextlib.suppress(ConfigError):
                    Scenario.from_dict(data)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(name=st.sampled_from(sorted(builtin_scenarios())),
           keys=st.lists(st.one_of(st.sampled_from(BUILTIN_KEYS), st.text()), max_size=3),
           values=st.lists(st.one_of(st.sampled_from([json.dumps(v) for v in BAD_VALUES]),
                                     st.text()), min_size=3, max_size=3),
           arch=st.one_of(st.none(), st.text()))
    def test_a_bad_override_is_a_config_error(self, name, keys, values, arch):
        overrides = [f"{key}={value}" for key, value in zip(keys, values)]
        with contextlib.suppress(ConfigError):
            Scenario.from_dict(apply_overrides(builtin_scenarios()[name].to_dict(), overrides))
        with contextlib.suppress(CliError):
            cli._load_scenario(name, overrides, arch)
