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
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_artifact_digests_are_pinned(case, tmp_path):
    argv, pinned = GOLDEN[case]
    assert main(argv + ["--out", str(tmp_path)]) == EXIT_OK
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in pinned}
    assert digests == pinned
