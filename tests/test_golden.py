"""Golden digests: byte-exact artifacts of fixed runs.

Each case runs a CLI command and compares the sha256 of every artifact with a
pinned value. A change that moves one of these digests changes what a run
does; it must re-pin the digest on purpose and say why.
"""

import hashlib

import pytest

from marketsched.cli import EXIT_OK, main

GOLDEN = {
    "exp1_trading": (
        ["run", "--scenario", "EXP1_TRADING", "--seed", "1", "--trace",
         "--set", "total_steps=2000"],
        {
            "EXP1_TRADING_seed1_trace.jsonl":
                "378ba684e3fcabfca08197a5596ff9c471ab665b7ab0cca9078d4db08bd6f2d6",
            "EXP1_TRADING_seed1.csv":
                "590ac7ddd892fc5f2c24a80151b979288723875a5752e7fdbfe49d2611862fce",
            "manifest.json":
                "237281851692cd63c6f34400780e546a5121cdcb4e5d09b464414ddb2cfa6009",
        },
    ),
    "exp3_scarcity_2c_comm": (
        ["run", "--scenario", "EXP3_SCARCITY_2C_COMM", "--seed", "1", "--trace",
         "--set", "total_steps=2000"],
        {
            "EXP3_SCARCITY_2C_COMM_seed1_trace.jsonl":
                "6ed805ff306ca1db9115f1e1d8b95e42b198f53a5aae426a7291b7ea3ae271f3",
            "EXP3_SCARCITY_2C_COMM_seed1.csv":
                "fe96f9ad660d9d02d55d2d65555aef0980975f85ba80e4f2465145a5bb56c6ea",
            "manifest.json":
                "a70564ed1948ea2a56a3e961d7b1775fa892464cfaaf0e9b5c40a27f7a59c1c9",
        },
    ),
    "exp2_arch_2x2_semi": (
        ["run", "--scenario", "EXP2_ARCH_2X2", "--arch", "SEMI", "--seed", "1",
         "--trace", "--set", "total_steps=2000"],
        {
            "EXP2_ARCH_2X2_seed1_trace.jsonl":
                "4c42d47cdc5e316a2842f7d1281a3d27fea01575171b291ee5e962ed631651d4",
            "EXP2_ARCH_2X2_seed1.csv":
                "6446e7297a5f736ccb66d06d67bd73517bf8e0b5c4334eca2d4e47d07d30f3af",
        },
    ),
    # FULL with trading disabled: every accept digit is dropped
    "exp1_no_trading_full": (
        ["run", "--scenario", "EXP1_NO_TRADING", "--arch", "FULL", "--seed", "1",
         "--trace", "--set", "total_steps=2000"],
        {
            "EXP1_NO_TRADING_seed1_trace.jsonl":
                "91576472e1596e87cb2bce3d9e3e44b6c111593b23a3632685b099ac08d1f0a3",
            "EXP1_NO_TRADING_seed1.csv":
                "71c7c9b7ad32ef2cfb23e75806c74e1dcbf10df01b0ea819e902d98a43f31d27",
        },
    ),
    "base_duo_baseline": (
        ["baseline", "--scenario", "BASE_DUO", "--seed", "1"],
        {
            "BASE_DUO_seed1_env.csv":
                "c976057502ac43a3fa870342b830dd53606df00ec02f09c1a6d256aef6564f40",
            "BASE_DUO_seed1_fcfs.csv":
                "c976057502ac43a3fa870342b830dd53606df00ec02f09c1a6d256aef6564f40",
        },
    ),
    "base_duo_sweep": (
        ["sweep", "--scenario", "BASE_DUO", "--seeds", "2",
         "--set", "total_steps=600", "--set", "window=200"],
        {
            "BASE_DUO_seed1.csv":
                "591ccf8250fc8b963e923139f2a68255735475b5e086c0bc3cfe81fb37db2a06",
            "BASE_DUO_seed2.csv":
                "87fec2ccfd289af9ff7f1672333a7b801e7f8acc96120b086dd4c20f417463ef",
            "BASE_DUO_aggregate.csv":
                "ad490e34f91093023675a624c59ca9aaef2b746a5c318898a2d732ebdd57fb79",
            "manifest.json":
                "791262cd51f0a445ccd6b3f1883193e7712656c90dc05efbe43372ca3a1ccfb5",
        },
    ),
}

# charts of the base_duo_sweep case's CSVs: (CSVs, further plot arguments, SVG digest)
CHARTS = {
    "aggregate": (
        ["BASE_DUO_aggregate.csv"], [],
        "e97872194e00fe6a7ea258e3e5bc237fc0dad7b6f5ffac6ba0e77c03971e3929",
    ),
    # two CSVs: each line is labelled <file stem>:<series>
    "two_seeds_one_series": (
        ["BASE_DUO_seed1.csv", "BASE_DUO_seed2.csv"], ["--series", "ntat_type_1"],
        "26424eede0c2739e880f6b8fb90210cd7b44f87cd680ef156dc73d11fa1db280",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_artifact_digests_are_pinned(case, tmp_path):
    argv, pinned = GOLDEN[case]
    assert main(argv + ["--out", str(tmp_path)]) == EXIT_OK
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in pinned}
    assert digests == pinned


@pytest.mark.parametrize("case", sorted(CHARTS))
def test_chart_digests_are_pinned(case, tmp_path):
    argv, _ = GOLDEN["base_duo_sweep"]
    assert main(argv + ["--out", str(tmp_path)]) == EXIT_OK
    csvs, more, pinned = CHARTS[case]
    chart = tmp_path / "chart.svg"
    assert main(["plot", *(str(tmp_path / name) for name in csvs), *more,
                 "--out", str(chart)]) == EXIT_OK
    assert hashlib.sha256(chart.read_bytes()).hexdigest() == pinned
