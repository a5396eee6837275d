"""CLI output pinned byte for byte: ``three-state`` and ``solve`` on the canonical market.

``data/cli_golden.json`` holds the exit code, stdout and stderr of each case,
recorded while the 3-state closed forms still lived in ``efficiency.py``.
The triples cover delta1 > 0, delta1 = 0 and delta1 < 0 with delta2 of
each sign (delta1 = 2x - 3y + z, delta2 = x - 3y + 2z), exact and decimal
input, JSON, ``--decimal`` and CSV output, and two invalid targets.
"""
import json
from pathlib import Path

import pytest

from effico.cli import main

GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text("utf-8"))


def _case_id(case):
    return " ".join([case["command"], ",".join(case["triple"]), *case["flags"]])


@pytest.mark.parametrize("case", GOLDEN, ids=_case_id)
def test_cli_output_matches_golden(case, tmp_path, capsys):
    if case["command"] == "three-state":
        argv = ["three-state", *(f"--{k}={v}" for k, v in zip("xyz", case["triple"]))]
    else:
        market, dist = tmp_path / "market.json", tmp_path / "dist.json"
        market.write_text(json.dumps({"n": 3, "s0": ["2"], "sT": [["4", "2", "1"]]}))
        dist.write_text(json.dumps({"values": case["triple"]}))
        argv = ["solve", "--market", str(market), "--dist", str(dist)]
    code = main([*argv, *case["flags"]])
    out, err = capsys.readouterr()
    assert (code, out, err) == (case["code"], case["stdout"], case["stderr"])
