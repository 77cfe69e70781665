"""Command-line surface: outputs, formats, exit codes, determinism."""

import json
import os
import subprocess
import sys

import pytest

import antipower
from antipower import SearchParams
from antipower.cli import _build_parser, main
from antipower.witness import DEFAULT_BUDGET


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_generate_text(capsys):
    code, out, _ = run(capsys, "generate", "thue-morse", "16")
    assert code == 0 and out == "0110100110010110\n"
    code, out, _ = run(capsys, "generate", "periodic:01", "5")
    assert code == 0 and out == "01010\n"
    code, out, _ = run(capsys, "generate", "recurrent-avoider", "5")
    assert code == 0 and out == "01110\n"


def test_generate_json_envelope(capsys):
    code, out, _ = run(capsys, "generate", "fibonacci", "7", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"command", "params", "result"}
    assert data["command"] == "generate"
    assert data["result"] == {"generator": "fibonacci", "length": 7, "word": "0100101"}


def test_generate_exit_codes(capsys):
    code, _, err = run(capsys, "generate", "bogus", "5")
    assert code == 2 and "unknown generator" in err
    code, _, err = run(capsys, "generate", "thue-morse", "100", "--cap", "50")
    assert code == 3 and "cap" in err


def test_ap_table_csv(capsys):
    code, out, _ = run(capsys, "ap-table", "thue-morse", "3-6")
    assert code == 0
    assert out == "k,m,length\n3,5,15\n4,5,20\n5,5,25\n6,5,30\n"


def test_ap_table_large_order(capsys):
    code, out, _ = run(capsys, "ap-table", "thue-morse", "30")
    assert code == 0
    assert out.splitlines()[1] == "30,29,870"


def test_ap_table_not_found_renders_empty_cell(capsys):
    code, out, _ = run(capsys, "ap-table", "periodic:01", "3", "--limit", "50")
    assert code == 0
    assert out == "k,m,length\n3,,\n"


def test_ap_table_rejects_order_one(capsys):
    code, _, err = run(capsys, "ap-table", "thue-morse", "1-3")
    assert code == 2


def test_ap_table_cap_exceeded(capsys):
    # the order-3 scan needs 3*m symbols; a 50-symbol cap dies before m=50
    code, _, err = run(capsys, "ap-table", "periodic:01", "3", "--limit", "50", "--cap", "50")
    assert code == 3 and "cap" in err


def test_check_modes(capsys):
    assert run(capsys, "check", "literal:aabaaabbbaba", "--k", "4", "--mode", "anti-power")[0] == 0
    assert run(capsys, "check", "literal:010101", "--k", "3", "--mode", "anti-power")[0] == 1
    assert run(capsys, "check", "literal:001001001", "--k", "3", "--mode", "power")[0] == 0
    code, out, _ = run(capsys, "check", "thue-morse", "--k", "2", "--mode", "anti-power", "--length", "2")
    assert code == 0 and out == "holds\n"
    code, _, _ = run(capsys, "check", "thue-morse", "--k", "2", "--mode", "anti-power")
    assert code == 2  # generator target needs --length


def test_ap_table_json(capsys):
    code, out, _ = run(capsys, "ap-table", "thue-morse", "3,7", "--format", "json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["rows"] == [
        {"k": 3, "m": 5, "length": 15},
        {"k": 7, "m": 11, "length": 77},
    ]


def test_check_json(capsys):
    code, out, _ = run(capsys, "check", "literal:aabaaabbbaba", "--k", "4", "--mode", "anti-power", "--format", "json")
    assert code == 0
    assert json.loads(out)["result"] == {"verdict": "holds"}
    code, out, _ = run(capsys, "check", "thue-morse", "--k", "2", "--mode", "scan", "--limit", "10", "--format", "json")
    assert code == 0
    assert json.loads(out)["result"] == {"verdict": "found", "position": 1, "block_length": 1}


def test_density_json(capsys):
    code, out, _ = run(capsys, "density", "periodic:01", "--k", "2", "--kind", "p", "--horizon", "4", "--format", "json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["ratios"] == [[1, 0, 1], [2, 1, 2], [3, 1, 3], [4, 1, 2]]
    assert result["min_tail"] == [1, 3]
    assert "not the liminf" in result["note"]


def test_check_scan(capsys):
    code, out, _ = run(capsys, "check", "thue-morse", "--k", "2", "--mode", "scan", "--limit", "10")
    assert code == 0 and out == "found position=1 block_length=1\n"
    code, out, _ = run(capsys, "check", "recurrent-avoider", "--k", "6", "--mode", "scan", "--limit", "3125")
    assert code == 1 and out == "not-found\n"
    code, out, _ = run(capsys, "check", "literal:000110", "--k", "3", "--mode", "scan")
    assert code == 0 and "position=1" in out


def test_search_n(capsys):
    code, out, _ = run(capsys, "search-n", "3", "3")
    assert code == 0
    assert json.loads(out)["result"]["N_or_bound"] == 9
    code, out, _ = run(capsys, "search-n", "2", "3")
    assert code == 0
    assert json.loads(out)["result"]["N_or_bound"] == 4
    code, out, _ = run(capsys, "search-n", "3", "4", "--cap", "17")
    assert code == 1
    result = json.loads(out)["result"]
    assert result["status"] == "lower-bound" and result["N_or_bound"] == 17
    # a cap deeper than Python's recursion limit still ends in an envelope
    code, out, _ = run(capsys, "search-n", "2", "40", "--alphabet", "3", "--cap", "1100")
    assert code == 1
    result = json.loads(out)["result"]
    assert result["status"] == "lower-bound" and result["N_or_bound"] == 1100


def test_search_n_rejects_workers_below_one(capsys):
    code, out, err = run(capsys, "search-n", "3", "3", "--workers", "0")
    assert code == 2 and out == "" and "workers" in err
    with pytest.raises(SystemExit) as exc:  # the fan-out has no switch of its own
        main(["search-n", "3", "3", "--parallel"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [("3", "3"), ("3", "4", "--cap", "17"), ("3", "5", "--cap", "30")])
def test_search_n_workers_do_not_change_the_result(capsys, argv):
    code, out, _ = run(capsys, "search-n", *argv, "--workers", "1")
    again, out2, _ = run(capsys, "search-n", *argv, "--workers", "2")
    assert again == code and out2 == out


def test_n_table(capsys):
    code, out, _ = run(capsys, "n-table", "--l-range", "2-3", "--k-range", "2-3")
    assert code == 0
    assert out == "l,k,N\n2,2,2\n2,3,4\n3,2,3\n3,3,9\n"


@pytest.mark.parametrize("argv", [("--l-range", "1-3", "--k-range", "2"), ("--l-range", "2", "--k-range", "2", "--alphabet", "300")])
def test_n_table_usage_errors_print_no_rows(capsys, argv):
    code, out, err = run(capsys, "n-table", *argv)
    assert code == 2 and out == "" and err.startswith("error:")


def test_params_name_the_parsed_generator(capsys):
    # params.generator is the canonical name, the one result.generator reports
    code, out, _ = run(capsys, "density", "periodic:ab", "--k", "2", "--kind", "p", "--horizon", "4", "--format", "json")
    data = json.loads(out)
    assert code == 0 and data["params"]["generator"] == data["result"]["generator"] == "periodic:01"
    code, out, _ = run(capsys, "generate", "literal:0:ab", "5", "--format", "json")
    data = json.loads(out)
    assert code == 0 and data["params"] == {"generator": "literal:0:01", "length": 5}
    assert data["result"] == {"generator": "literal:0:01", "length": 5, "word": "00101"}


def test_witness_branches_and_budget(capsys):
    code, out, _ = run(capsys, "witness", "periodic:01", "3", "5")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["branch"] == "power-witness" and result["M"] == 6
    code, out, _ = run(capsys, "witness", "thue-morse", "3", "3", "--budget", "300")
    assert code == 0
    assert json.loads(out)["result"]["branch"] == "anti-power-report"
    code, _, err = run(capsys, "witness", "periodic:01", "3", "5", "--budget", "10")
    assert code == 4 and "budget" in err


def test_density_csv(capsys):
    code, out, _ = run(capsys, "density", "thue-morse", "--k", "1", "--kind", "ap", "--horizon", "10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# finite lower-density estimate (not the liminf)"
    assert lines[2] == "n,numerator,denominator"
    assert lines[3] == "1,1,1" and lines[12] == "10,1,1"
    assert lines[-1] == "# min_tail over n in [5..10]: 1/1"


def test_density_of_ultimately_periodic_word_is_zero(capsys):
    code, out, _ = run(capsys, "density", "literal:0:1", "--k", "3", "--kind", "ap", "--horizon", "50")
    assert code == 0
    rows = [line for line in out.splitlines() if line and not line.startswith(("#", "n,"))]
    assert all(row.split(",")[1] == "0" for row in rows)


def test_density_power_kind(capsys):
    code, out, _ = run(capsys, "density", "periodic:01", "--k", "2", "--kind", "p", "--horizon", "100")
    assert code == 0
    assert "100,1,2" in out.splitlines()


def test_json_output_is_deterministic(capsys):
    # the whole envelope is a function of the arguments: raw stdout repeats byte for byte
    for argv in [
        ("search-n", "3", "3"),
        ("witness", "periodic:011", "3", "4"),
        ("witness", "thue-morse", "3", "50", "--budget", "20000"),
    ]:
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first[0] == 0 and second == first


def test_usage_error_from_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["check", "literal:01", "--mode", "anti-power"])  # --k is required
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("generate", "thue-morse", "1000000"),
        ("density", "thue-morse", "--k", "3", "--kind", "ap", "--horizon", "100000"),
    ],
)
def test_closed_stdout_pipe_exits_141_without_a_traceback(argv):
    # as `antipower ... | head -c 10`: the reader leaves after a few bytes
    src = os.path.dirname(os.path.dirname(antipower.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "antipower.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    code = proc.wait(timeout=60)  # a traceback is far smaller than the stderr pipe
    assert (code, proc.stderr.read()) == (141, b"")


def test_parser_defaults_come_from_the_library():
    parser = _build_parser()
    search = parser.parse_args(["search-n", "2", "2"])
    assert (search.alphabet, search.cap, search.workers) == (
        SearchParams.alphabet_size,
        SearchParams.length_cap,
        SearchParams.workers,
    )
    table = parser.parse_args(["n-table", "--l-range", "2", "--k-range", "2"])
    assert (table.alphabet, table.cap) == (SearchParams.alphabet_size, SearchParams.length_cap)
    assert parser.parse_args(["witness", "thue-morse", "3", "3"]).budget == DEFAULT_BUDGET
