import argparse
import gc
import itertools
import json

import pytest

from wittcap import cap, cli, cosets, golay


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_build_cap_prints_12_points(capsys):
    code, out = run(capsys, "build-cap")
    lines = out.strip().splitlines()
    assert code == 0
    assert len(lines) == 12
    assert lines[0] == "1:0:0:0:0:1"
    assert lines[1] == "1:0:0:1:0:0"
    assert all(len(l.split(":")) == 6 for l in lines)


def test_build_cap_other_preimage(capsys):
    code, out = run(capsys, "build-cap", "--preimage", "0,1,0")
    assert code == 0
    assert len(out.strip().splitlines()) == 12


def test_verify_design_passes(capsys):
    code, out = run(capsys, "verify-design")
    assert code == 0
    assert "blocks=132" in out
    assert "empty_primes=12" in out
    assert "aut=95040" in out
    assert out.strip().endswith("result=PASS")


def test_todd_prints_12_primes(capsys):
    code, out = run(capsys, "todd")
    lines = out.strip().splitlines()
    assert code == 0
    assert len(lines) == 12
    assert "0:0:0:1:0:1" in lines
    assert "0:0:0:1:1:2" in lines
    assert "0:0:0:1:2:2" in lines


def test_aut_order_prints_the_integer(capsys):
    code, out = run(capsys, "aut-order")
    assert code == 0
    assert out.strip() == "95040"


def test_golay_emit_matrix(capsys):
    code, out = run(capsys, "golay", "--emit-matrix")
    lines = out.strip().splitlines()
    assert code == 0
    assert len(lines) == 6
    for line in lines:
        tokens = line.split(" ")
        assert len(tokens) == 12
        assert all(t in "012" for t in tokens)


def test_golay_verify(capsys):
    code, out = run(capsys, "golay", "--verify")
    assert code == 0
    assert "n=12 k=6 d=6 self_dual=true" in out
    assert "weight 6: 264" in out
    assert "weight 9: 440" in out
    assert "weight 12: 24" in out


def _repeat_a_word(words):
    """Put a second copy of one weight-6 word in place of another one, so the
    weight counts stay right and only the count of distinct words is off."""
    six = [i for i, w in enumerate(words) if w.count(0) == 6]
    out = list(words)
    out[six[1]] = words[six[0]]
    return tuple(out)


def _swap_in_a_weight_9_word(words):
    """Replace a weight-6 word by a weight-9 vector outside the code: all 729
    words stay distinct and only the weight counts are off."""
    code_words = set(words)
    outside = next(
        v for v in itertools.product((0, 1, 2), repeat=12)
        if v.count(0) == 3 and v not in code_words
    )
    out = list(words)
    out[next(i for i, w in enumerate(words) if w.count(0) == 6)] = outside
    return tuple(out)


@pytest.mark.parametrize("fault", [_repeat_a_word, _swap_in_a_weight_9_word])
def test_golay_verify_fails_on_a_faulty_enumeration(capsys, monkeypatch, fault):
    real = golay.enumerate_codewords
    monkeypatch.setattr(golay, "enumerate_codewords", lambda code: fault(real(code)))
    code = cli.main(["golay", "--verify", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert (report["k"], report["d"], report["self_dual"]) == (6, 6, True)
    assert code == 1
    assert report["result"] == "FAIL"


def test_golay_verify_text_fails_on_a_faulty_enumeration(capsys, monkeypatch):
    real = golay.enumerate_codewords
    monkeypatch.setattr(golay, "enumerate_codewords", lambda code: _repeat_a_word(real(code)))
    code, out = run(capsys, "golay", "--verify")
    assert code == 1
    assert out.splitlines()[-1] == "result=FAIL"


def test_verify_design_fails_on_a_wrong_order(capsys, monkeypatch):
    monkeypatch.setattr(cap, "automorphism_order", lambda design: 95039)
    claim = "the point permutation group has order 95040"
    code, out = run(capsys, "verify-design")
    lines = out.splitlines()
    assert code == 1
    assert "aut=95039" in lines
    assert f"check=FAIL {claim}" in lines
    assert lines[-1] == "result=FAIL"
    code, out = run(capsys, "verify-design", "--format", "json")
    report = json.loads(out)
    assert code == 1
    assert report["result"] == "FAIL"
    assert {c["claim"]: c["pass"] for c in report["checks"]}[claim] is False


def test_value_error_becomes_a_failure_record(capsys, monkeypatch):
    def broken(*args):
        raise ValueError("no class for 2,0,0,0")

    monkeypatch.setattr(cosets, "classify", broken)
    code, out = run(capsys, "classify", "--quadruple", "2,0,0,0")
    assert code == 1
    assert out == "result=FAIL error=no class for 2,0,0,0\n"
    code, out = run(capsys, "classify", "--quadruple", "2,0,0,0", "--format", "json")
    assert code == 1
    assert json.loads(out) == {"result": "FAIL", "error": "no class for 2,0,0,0"}


def test_witt_batteries_leave_no_garbage_cycles():
    # the verify-design and golay --verify batteries free all they build
    # without the cyclic collector; the argument parser is built outside
    parser = cli.build_parser()
    runs = [parser.parse_args(argv) for argv in (["verify-design", "--preimage", "0,1,2"],
                                                 ["golay", "--verify"])]
    model = cli.build_model()
    for args in runs:
        args.handler(model, args)  # warm the process-wide caches
    gc.collect()
    gc.disable()
    try:
        codes = [args.handler(model, args)[0] for args in runs]
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert codes == [0, 0]


def test_classify_exotic(capsys):
    code, out = run(capsys, "classify", "--quadruple", "2,0,0,0")
    assert code == 0
    assert "class=exotic" in out
    assert "profile[6]=42" in out


def test_scan_cosets_has_81_rows(capsys):
    code, out = run(capsys, "scan-cosets")
    lines = out.strip().splitlines()
    assert code == 0
    assert len(lines) == 82  # header + 81 rows
    body = lines[1:]
    assert all(l.endswith("chordal=yes") for l in body)
    assert sum(1 for l in body if " cap " in l) == 27
    assert sum(1 for l in body if " surface " in l) == 27
    assert sum(1 for l in body if " exotic " in l) == 27


def test_analyze_r_output(capsys):
    code, out = run(capsys, "analyze-r", "--quadruple", "2,0,0,0")
    assert code == 0
    assert "six_point_primes=42" in out
    assert "common_point=1:0:0:0:0:0" in out
    assert "transversal=" in out
    assert sum(1 for l in out.splitlines() if l.startswith("prime=")) == 42


def test_analyze_r_rejects_wrong_class():
    with pytest.raises(SystemExit) as err:
        cli.main(["analyze-r", "--quadruple", "1,0,0,0"])
    assert err.value.code == 2


def test_analyze_r_bad_target_is_usage_error():
    # a projection target through the base point is bad input, not a failed check
    with pytest.raises(SystemExit) as err:
        cli.main(["analyze-r", "--quadruple", "2,0,0,0", "--target", "0:0:0:0:0:1"])
    assert err.value.code == 2


def test_dump_veronese(capsys):
    code, out = run(capsys, "dump-veronese")
    lines = out.strip().splitlines()
    assert code == 0
    assert len(lines) == 13
    for line in lines:
        assert line.startswith("line=")
        assert "points=" in line and "prime=" in line
        points = line.split("points=")[1].split(" ")[0].split(",")
        assert len(points) == 4


def test_usage_errors_exit_2(capsys):
    for argv in (
        [],
        ["classify"],                      # missing --quadruple
        ["classify", "--quadruple", "9,0,0,0"],
        ["classify", "--quadruple", "+2,0,0,00"],   # entries are the digits 0/1/2
        ["classify", "--quadruple", " 2,0,0,0"],
        ["classify", "--quadruple", "a,0,0,0"],
        ["build-cap", "--preimage", "0,0,0"],
        ["build-cap", "--preimage", "1,0"],
        ["build-cap", "--preimage", "1,0,0,0"],
        ["analyze-r", "--quadruple", "2,0,0,0", "--target", "1:0:0"],
        ["build-cap", "--preimage", "4,0,0"],      # digits must be 0/1/2
        ["build-cap", "--preimage", "0,3,1"],
        ["analyze-r", "--quadruple", "2,0,0,0", "--target=0:0:0:0:0:3"],
        ["golay"],                         # needs exactly one mode flag
        ["no-such-command"],
    ):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        if "a,0,0,0" in argv:
            assert "four entries" in stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["build-cap"],
        ["verify-design"],
        ["todd"],
        ["aut-order"],
        ["golay", "--emit-matrix"],
        ["golay", "--verify"],
        ["classify", "--quadruple", "2,0,0,0"],
        ["scan-cosets"],
        ["analyze-r", "--quadruple", "2,0,0,0"],
        ["dump-veronese"],
    ],
)
def test_json_round_trips(capsys, argv):
    code = cli.main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert json.loads(json.dumps(report)) == report
    assert report["command"] == argv[0]


def test_output_is_deterministic(capsys):
    outputs = []
    for _ in range(2):
        cli.main(["scan-cosets"])
        outputs.append(capsys.readouterr().out)
        cli.main(["verify-design", "--format", "json"])
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[2]
    assert outputs[1] == outputs[3]


USAGE = {
    None: "usage: wittcap [-h]\n"
    "               {build-cap,verify-design,todd,aut-order,golay,classify,"
    "scan-cosets,analyze-r,dump-veronese}\n"
    "               ...\n",
    "build-cap": "usage: wittcap build-cap [-h] [--format {text,json}] "
    "[--preimage PREIMAGE]\n",
    "verify-design": "usage: wittcap verify-design [-h] [--format {text,json}] "
    "[--preimage PREIMAGE]\n",
    "todd": "usage: wittcap todd [-h] [--format {text,json}] [--preimage PREIMAGE]\n",
    "aut-order": "usage: wittcap aut-order [-h] [--format {text,json}] "
    "[--preimage PREIMAGE]\n",
    "golay": "usage: wittcap golay [-h] [--format {text,json}] (--emit-matrix | --verify)\n",
    "classify": "usage: wittcap classify [-h] [--format {text,json}] [--preimage PREIMAGE]\n"
    "                        --quadruple QUADRUPLE\n",
    "scan-cosets": "usage: wittcap scan-cosets [-h] [--format {text,json}] "
    "[--preimage PREIMAGE]\n",
    "analyze-r": "usage: wittcap analyze-r [-h] [--format {text,json}] "
    "[--preimage PREIMAGE]\n"
    "                         --quadruple QUADRUPLE [--target TARGET]\n",
    "dump-veronese": "usage: wittcap dump-veronese [-h] [--format {text,json}]\n",
}


def test_usage_lines_are_pinned(monkeypatch):
    # the surface of the command: subcommands, their options and metavars
    monkeypatch.setenv("COLUMNS", "80")
    parser = cli.build_parser()
    (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    parsers = {None: parser, **action.choices}
    assert sorted(parsers, key=str) == sorted(USAGE, key=str)
    for name, p in parsers.items():
        assert p.format_usage() == USAGE[name], name
