import argparse
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import abellab.center as center
import abellab.cli as cli
from abellab import verify
from abellab.center import DELTA_ON_P, EPS_ON_Q, FORWARD, infinitesimal_order, parametric_table
from abellab.cli import SUITE_NAMES, build_parser, main
from abellab.moments import moment
from abellab.poly import Interval
from abellab.serialize import poly_from_json, scalar_to_text


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


PAIR_CC = {
    "P": {"coeffs": ["1", "-2", "1"]},  # (x-1)^2 composed with x^2 below
    "Q": {"coeffs": ["0", "0", "-1", "0", "1"]},
    "interval": {"a": "-1", "b": "1"},
}
PAIR_CC["P"] = {"coeffs": ["1", "0", "-2", "0", "1"]}  # (x^2-1)^2


def test_cc_witness(tmp_path, capsys):
    path = write(tmp_path, "pair.json", PAIR_CC)
    assert main(["cc", "--input", path, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["witness"]["W"] == {"coeffs": ["0", "0", "1"]}
    assert out["witness"]["P_reduced"] == {"coeffs": ["1", "-2", "1"]}
    assert out["witness"]["Q_reduced"] == {"coeffs": ["0", "-1", "1"]}


def test_center_table_entry(tmp_path, capsys):
    obj = {
        "P": {"coeffs": ["-1", "0", "1"]},
        "Q": {"coeffs": ["0", "-1", "0", "1"]},
        "interval": {"a": "-1", "b": "1"},
    }
    path = write(tmp_path, "pair.json", obj)
    assert main(["center-table", "--input", path, "--kmax", "8", "--param", "eps", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["entries"]["4,1"] == "-8/15"
    assert out["infinitesimal_order"] == 1


def test_melnikov_output(tmp_path, capsys):
    obj = {
        "P": {"coeffs": ["0", "-1", "1"]},
        "Q": {"coeffs": ["0", "2", "-3", "1"]},
        "interval": {"a": "0", "b": "1"},
    }
    path = write(tmp_path, "pair.json", obj)
    assert main(["melnikov", "--input", path, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["D6"] == "-1/280"


def test_factors_chebyshev(tmp_path, capsys):
    obj = {
        "D": 3,
        "P": {"coeffs": ["0", "0", "18", "0", "-48", "0", "32"]},
        "interval": {"a": "-1/2*r3", "b": "1/2*r3"},
    }
    path = write(tmp_path, "p.json", obj)
    assert main(["factors", "--input", path, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["s"] == 2
    assert out["factor_degrees"] == [2, 3]
    assert out["tag"] == "chebyshev-like"
    assert out["definite"] is False


def test_definite(tmp_path, capsys):
    obj = {"P": {"coeffs": ["-1", "0", "1"]}, "interval": {"a": "-1", "b": "1"}}
    path = write(tmp_path, "p.json", obj)
    assert main(["definite", "--input", path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["definite"] is True


def test_zspace_dimension(tmp_path, capsys):
    obj = {"P": {"coeffs": ["-1", "0", "1"]}, "interval": {"a": "-1", "b": "1"}}
    path = write(tmp_path, "p.json", obj)
    assert main(["zspace", "--input", path, "--degree", "4", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["dimension"] == 2


def test_zspace_not_stabilized_is_exit_1(tmp_path, capsys):
    obj = {"P": {"coeffs": ["-1", "0", "1"]}, "interval": {"a": "-1", "b": "1"}}
    path = write(tmp_path, "p.json", obj)
    code = main(["zspace", "--input", path, "--degree", "4", "--imax", "0"])
    assert code == 1
    assert capsys.readouterr().err == (
        "computation failed: kernel not stabilized: dimension 3 at moments i <= 0 "
        "vs 2 for the composition span; increase the moment count\n"
    )


def test_zspace_of_the_zero_polynomial_is_the_whole_space(tmp_path, capsys):
    obj = {"P": {"coeffs": ["0"]}, "interval": {"a": "-1", "b": "1"}}
    path = write(tmp_path, "p.json", obj)
    assert main(["zspace", "--input", path, "--degree", "4", "--imax", "3"]) == 0
    assert capsys.readouterr().out == (
        "zero space at degree 4: dimension 3\n"
        "  1 + (-1)*x^4\n  (1)*x + (-1)*x^3\n  (1)*x^2 + (-1)*x^4\n"
    )


def test_zspace_negative_imax_is_an_input_error(tmp_path, capsys):
    obj = {"P": {"coeffs": ["-1", "0", "1"]}, "interval": {"a": "-1", "b": "1"}}
    path = write(tmp_path, "p.json", obj)
    code = main(["zspace", "--input", path, "--degree", "4", "--imax", "-1"])
    assert code == 2
    assert capsys.readouterr().err.startswith("input error:")


def test_moments_negative_nmax_is_an_input_error(tmp_path, capsys):
    obj = {
        "P": {"coeffs": ["-1", "0", "1"]},
        "Q": {"coeffs": ["0", "-1", "0", "1"]},
        "interval": {"a": "-1", "b": "1"},
    }
    path = write(tmp_path, "pair.json", obj)
    code = main(["moments", "--input", path, "--nmax", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("input error:")
    assert captured.out == ""


def test_moments_roundtrip(tmp_path, capsys):
    obj = {
        "P": {"coeffs": ["-1", "0", "1"]},
        "Q": {"coeffs": ["0", "-1", "0", "1"]},
        "interval": {"a": "-1", "b": "1"},
    }
    path = write(tmp_path, "pair.json", obj)
    assert main(["moments", "--input", path, "--nmax", "3", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["m_PQ"]["1"] == "8/15"
    assert out["m_PQ"]["0"] == "0"


def test_iterated(tmp_path, capsys):
    obj = {
        "alpha": [1, 2],
        "h1": {"coeffs": ["1"]},
        "h2": {"coeffs": ["0", "2"]},
        "interval": {"a": "0", "b": "1"},
    }
    path = write(tmp_path, "it.json", obj)
    assert main(["iterated", "--input", path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == "1/3"


def test_trig_moment(tmp_path, capsys):
    obj = {
        "P": {"a0": "0", "cos": {"3": "1"}, "sin": {}},
        "Q": {"a0": "0", "cos": {}, "sin": {"2": "1"}},
        "i": 3,
        "j": 2,
    }
    path = write(tmp_path, "tm.json", obj)
    assert main(["trig-moment", "--input", path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["moment"] == "3/4*pi"


def test_trig_family(tmp_path, capsys):
    obj = {
        "d1": 3,
        "d2": 2,
        "p": {"1": ["1", "0"]},
        "q": {"1": ["0", "1"]},
    }
    path = write(tmp_path, "fam.json", obj)
    assert main(["trig-family", "--input", path, "--imax", "6", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["first_moments_vanish"] is True
    assert out["certificate"] == {"i": 3, "j": 2, "value": "3/4*pi"}


def test_report(tmp_path, capsys):
    obj = {
        "P": {"coeffs": ["-1", "0", "1"]},
        "Q": {"coeffs": ["0", "-1", "0", "1"]},
        "interval": {"a": "-1", "b": "1"},
    }
    path = write(tmp_path, "pair.json", obj)
    assert main(["report", "--input", path, "--kmax", "6", "--nmax", "6", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["cc"] is None
    assert out["truncated_parametric_center"] is False
    assert out["consistent"] is True


def test_malformed_input_exit_2(tmp_path, capsys):
    path = write(tmp_path, "bad.json", {"P": {"coeffs": ["1.5"]}, "interval": {"a": "0", "b": "1"}})
    assert main(["definite", "--input", path]) == 2
    err = capsys.readouterr().err
    assert "input error" in err
    path2 = write(tmp_path, "bad2.json", {"interval": {"a": "0", "b": "1"}})
    assert main(["definite", "--input", path2]) == 2
    assert "P" in capsys.readouterr().err
    # a falsy value counts as missing
    path3 = write(tmp_path, "bad3.json", {"P": {}, "interval": {"a": "0", "b": "1"}})
    assert main(["definite", "--input", path3]) == 2
    assert capsys.readouterr().err == "input error: missing field 'P'\n"


def test_trig_family_rejection_names_index(tmp_path, capsys):
    obj = {
        "d1": 3,
        "d2": 2,
        "p": {"1": ["1", "0"]},
        "q": {"1": ["0", "1"], "3": ["1", "0"]},
    }
    path = write(tmp_path, "fam.json", obj)
    assert main(["trig-family", "--input", path]) == 2
    assert "index 3" in capsys.readouterr().err


def test_determinism(tmp_path, capsys):
    obj = {
        "P": {"coeffs": ["-1", "0", "1"]},
        "Q": {"coeffs": ["0", "-1", "0", "1"]},
        "interval": {"a": "-1", "b": "1"},
    }
    path = write(tmp_path, "pair.json", obj)
    assert main(["center-table", "--input", path, "--kmax", "6", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["center-table", "--input", path, "--kmax", "6", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_verify_suite_trig(capsys):
    assert main(["verify", "--suite", "trig", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "A8" in out and "A9" in out and "PASS" in out


def test_verify_json_mode(capsys):
    assert main(["verify", "--suite", "series", "--seed", "7", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["criteria"][0]["id"] == "A3"
    assert out["criteria"][0]["passed"] is True


def test_text_mode_output(tmp_path, capsys):
    obj = {
        "P": {"coeffs": ["-1", "0", "1"]},
        "Q": {"coeffs": ["0", "-1", "0", "1"]},
        "interval": {"a": "-1", "b": "1"},
    }
    path = write(tmp_path, "pair.json", obj)
    assert main(["center-table", "--input", path, "--kmax", "6"]) == 0
    out = capsys.readouterr().out
    assert "v[4,1] = -8/15" in out
    assert main(["cc", "--input", path]) == 0
    assert "no common composition factor" in capsys.readouterr().out


def test_missing_input_file(capsys):
    assert main(["factors", "--input", "/nonexistent/x.json"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_boolean_D_is_rejected(tmp_path, capsys):
    for flag in (True, False):
        obj = {"D": flag, "P": {"coeffs": ["-1", "0", "1"]}, "interval": {"a": "-1", "b": "1"}}
        path = write(tmp_path, "p.json", obj)
        assert main(["definite", "--input", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "'D'" in err


def test_D_must_be_a_squarefree_integer_above_one(tmp_path, capsys):
    for D in (-3, 0, 1, 4, 12, 18):
        obj = {"D": D, "P": {"coeffs": ["-1", "0", "1"]}, "interval": {"a": "-1", "b": "1"}}
        path = write(tmp_path, "p.json", obj)
        assert main(["definite", "--input", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "squarefree" in err
    obj = {"D": 3, "P": {"coeffs": ["-3/4", "0", "1"]}, "interval": {"a": "-1/2*r3", "b": "1/2*r3"}}
    assert main(["definite", "--input", write(tmp_path, "p.json", obj)]) == 0


def test_moments_match_one_moment_at_a_time(tmp_path, capsys):
    obj = {
        "P": {"coeffs": ["0", "-1", "1/2", "1"]},
        "Q": {"coeffs": ["-2/3", "1/3", "0", "0", "1"]},
        "interval": {"a": "-1", "b": "1"},
    }
    path = write(tmp_path, "pair.json", obj)
    assert main(["moments", "--input", path, "--nmax", "6", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    P, Q = poly_from_json(obj["P"]), poly_from_json(obj["Q"])
    iv = Interval(-1, 1)
    assert out["m_PQ"] == {str(i): scalar_to_text(moment(P, Q, iv, i)) for i in range(7)}
    assert out["m_QP"] == {str(i): scalar_to_text(moment(Q, P, iv, i)) for i in range(7)}


def test_each_subcommand_accepts_only_the_flags_it_reads(tmp_path):
    ap = build_parser()
    own = {
        "center-table": ["--kmax", "3", "--param", "delta", "--direction", "backward"],
        "moments": ["--nmax", "3"],
        "zspace": ["--degree", "4", "--imax", "5"],
        "report": ["--kmax", "3", "--nmax", "4"],
        "trig-family": ["--imax", "6"],
    }
    plain = ["iterated", "melnikov", "factors", "cc", "definite", "trig-moment"]
    for name in plain + sorted(own):
        args = ap.parse_args([name, "--input", "x.json", "--json"] + own.get(name, []))
        assert args.json and args.input == "x.json"
    args = ap.parse_args(["verify", "--suite", "trig", "--seed", "3", "--json"])
    assert (args.suite, args.seed, args.json) == ("trig", 3, True)
    assert ap.parse_args(["verify"]).seed == 7


@pytest.mark.parametrize(
    "argv",
    [
        ["factors", "--input", "x.json", "--kmax", "3"],
        ["cc", "--input", "x.json", "--seed", "1"],
        ["moments", "--input", "x.json", "--degree", "3"],
        ["trig-family", "--input", "x.json", "--nmax", "3"],
        ["verify", "--input", "x.json"],
    ],
)
def test_stray_flag_is_an_argparse_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err
    # main builds only the named subparser, but the usage line printed
    # with the error is the full parser's
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)
    assert capsys.readouterr().err == err


def test_verify_suite_names_match_the_suites(capsys):
    assert sorted(SUITE_NAMES) == sorted(verify.SUITES)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'bogus'" in err and "Traceback" not in err


def test_importing_the_cli_does_not_import_the_suites():
    code = "import sys, abellab.cli; print('abellab.verify' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def subcommands(ap):
    (action,) = [a for a in ap._actions if isinstance(a, argparse._SubParsersAction)]
    return sorted(action.choices)


ALL_COMMANDS = sorted(name for name, _, _ in cli._COMMANDS)


def test_parser_holds_only_the_named_subcommand():
    assert len(ALL_COMMANDS) == 12
    assert subcommands(build_parser(["zspace"])) == ["zspace"]
    assert subcommands(build_parser(["zspace", "--input", "x.json"])) == ["zspace"]
    assert subcommands(build_parser(["bogus"])) == ALL_COMMANDS
    assert subcommands(build_parser(["--help"])) == ALL_COMMANDS
    assert subcommands(build_parser([])) == ALL_COMMANDS
    assert subcommands(build_parser()) == ALL_COMMANDS


def test_main_builds_one_subparser_for_a_known_command(tmp_path, monkeypatch, capsys):
    built = []

    def recording(argv=()):
        built.append(build_parser(argv))
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", recording)
    path = write(tmp_path, "p.json", {"P": {"coeffs": ["-1", "0", "1"]}, "interval": {"a": "-1", "b": "1"}})
    assert main(["definite", "--input", path]) == 0
    assert capsys.readouterr().out == "definite: True\n"
    assert [subcommands(ap) for ap in built] == [["definite"]]


def test_unknown_command_lists_every_choice(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'bogus'" in err
    assert "{%s}" % ",".join(name for name, _, _ in cli._COMMANDS) in err
    for name in ALL_COMMANDS:
        assert "'%s'" % name in err


def test_commands_return_their_output_and_print_nothing(tmp_path, capsys):
    path = write(tmp_path, "p.json", {"P": {"coeffs": ["-1", "0", "1"]}, "interval": {"a": "-1", "b": "1"}})
    args = build_parser().parse_args(["definite", "--input", path])
    assert cli.cmd_definite(args, cli._load(path)) == (0, {"definite": True}, ["definite: True"])
    args = build_parser().parse_args(["verify", "--suite", "series"])
    code, payload, lines = cli.cmd_verify(args, None)
    assert capsys.readouterr().out == ""
    assert code == 0 and payload["criteria"][0]["id"] == "A3" and lines[0].startswith("A3 ")


def test_verify_exits_1_when_a_criterion_fails(monkeypatch, capsys):
    results = [
        verify.CriterionResult("A1", "first", True),
        verify.CriterionResult("A2", "second", False, findings=["off by one"]),
    ]
    monkeypatch.setattr(verify, "run_suite", lambda name, seed: results)
    assert main(["verify", "--suite", "stratify"]) == 1
    assert capsys.readouterr().out == "A1 first: PASS\nA2 second: FAIL\n    finding: off by one\n"
    assert main(["verify", "--suite", "stratify", "--json"]) == 1
    assert [c["passed"] for c in json.loads(capsys.readouterr().out)["criteria"]] == [True, False]


# One fixture per subcommand; its expected stdout, text and --json, is
# checked in as cli_golden.json and changes only with a deliberate change
# of the output.
GOLDEN_INPUTS = {
    "pair": {
        "P": {"coeffs": ["-1", "0", "1"]},
        "Q": {"coeffs": ["0", "-1", "0", "1"]},
        "interval": {"a": "-1", "b": "1"},
    },
    "melnikov": {
        "P": {"coeffs": ["0", "-1", "1"]},
        "Q": {"coeffs": ["0", "2", "-3", "1"]},
        "interval": {"a": "0", "b": "1"},
    },
    "cc": PAIR_CC,
    "single": {"P": {"coeffs": ["-1", "0", "1"]}, "interval": {"a": "-1", "b": "1"}},
    "chebyshev": {
        "D": 3,
        "P": {"coeffs": ["0", "0", "18", "0", "-48", "0", "32"]},
        "interval": {"a": "-1/2*r3", "b": "1/2*r3"},
    },
    "iterated": {
        "alpha": [1, 2, 1],
        "h1": {"coeffs": ["1", "-1/2"]},
        "h2": {"coeffs": ["0", "2"]},
        "interval": {"a": "0", "b": "1"},
    },
    "trig": {
        "P": {"a0": "0", "cos": {"3": "1"}, "sin": {}},
        "Q": {"a0": "0", "cos": {"6": "1/2"}, "sin": {"2": "1"}},
        "i": 3,
        "j": 2,
    },
    "family": {
        "d1": 3,
        "d2": 2,
        "p": {"1": ["1", "0"]},
        "q": {"1": ["0", "1"], "2": ["1/2", None]},
        "R": {"coeffs": ["0", "-3", "0", "4"]},
    },
}

GOLDEN_CALLS = {
    "center-table": ("pair", ["--kmax", "7", "--param", "eps", "--direction", "backward"]),
    "iterated": ("iterated", []),
    "melnikov": ("melnikov", []),
    "moments": ("pair", ["--nmax", "3"]),
    "zspace": ("single", ["--degree", "4"]),
    "factors": ("chebyshev", []),
    "cc": ("cc", []),
    "definite": ("single", []),
    "report": ("pair", ["--kmax", "6", "--nmax", "6"]),
    "trig-moment": ("trig", []),
    "trig-family": ("family", ["--imax", "6"]),
    "verify": (None, ["--suite", "series", "--seed", "7"]),
}


def golden_argv(tmp_path, command):
    fixture, flags = GOLDEN_CALLS[command]
    if fixture is None:
        return [command] + flags
    return [command, "--input", write(tmp_path, fixture + ".json", GOLDEN_INPUTS[fixture])] + flags


@pytest.mark.parametrize("command", sorted(GOLDEN_CALLS))
def test_stdout_matches_the_checked_in_expectation(command, tmp_path, capsys):
    assert sorted(GOLDEN_CALLS) == ALL_COMMANDS
    want = json.loads(Path(__file__).with_name("cli_golden.json").read_text())[command]
    argv = golden_argv(tmp_path, command)
    for mode, extra in (("text", []), ("json", ["--json"])):
        assert main(argv + extra) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (want[mode], "")


def assert_input_error(capsys, argv, fragment):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:") and fragment in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "command, obj",
    [
        ("definite", {"P": {"coeffs": ["-1", "0", "1/0"]}, "interval": {"a": "-1", "b": "1"}}),
        ("definite", {"P": {"coeffs": ["-1", "0", "1"]}, "interval": {"a": "-1", "b": "2/0"}}),
        ("definite", {"D": 3, "P": {"coeffs": ["-3/4", "0", "1"]}, "interval": {"a": "-1/2*r3", "b": "1/0*r3"}}),
        ("cc", {"D": 3, "P": {"coeffs": ["0", "1-1/0*r3"]}, "Q": {"coeffs": ["1"]}, "interval": {"a": "0", "b": "1"}}),
        ("trig-moment", {"P": {"cos": {"3": "1/0"}}, "Q": {"sin": {"2": "1"}}, "i": 1, "j": 1}),
        ("trig-family", {"d1": 3, "d2": 2, "p": {"1": ["1", "0"]}, "q": {"1": ["0/0", "1"]}}),
    ],
)
def test_zero_denominator_is_an_input_error(command, obj, tmp_path, capsys):
    assert_input_error(capsys, [command, "--input", write(tmp_path, "z.json", obj)], "zero denominator")


def test_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"P": ' + "[" * 200000 + "]" * 200000 + "}")
    assert_input_error(capsys, ["definite", "--input", str(path)], "nested too deeply")


@pytest.mark.parametrize("alpha", [[True, 2], [1, False], [True]])
def test_boolean_alpha_is_rejected(alpha, tmp_path, capsys):
    obj = {"alpha": alpha, "h1": {"coeffs": ["1"]}, "h2": {"coeffs": ["0", "2"]}, "interval": {"a": "0", "b": "1"}}
    assert_input_error(capsys, ["iterated", "--input", write(tmp_path, "it.json", obj)], "'alpha'")


@pytest.mark.parametrize(
    "command, fields",
    [
        ("trig-moment", {"i": True, "j": 2}),
        ("trig-moment", {"i": 3, "j": False}),
        ("trig-family", {"d1": True, "d2": 2}),
    ],
)
def test_boolean_indices_are_rejected(command, fields, tmp_path, capsys):
    obj = {"P": {"cos": {"3": "1"}}, "Q": {"sin": {"2": "1"}}, "p": {"1": ["1", "0"]}, "d1": 3, "d2": 2}
    obj.update(fields)
    assert_input_error(capsys, [command, "--input", write(tmp_path, "b.json", obj)], "must be integers")


@pytest.mark.parametrize("index", ["-1", "0", "-2"])
def test_non_positive_family_index_is_an_input_error(index, tmp_path, capsys):
    obj = {"d1": 3, "d2": 2, "p": {index: ["1", "0"]}, "q": {"1": ["0", "1"]}}
    path = write(tmp_path, "fam.json", obj)
    assert_input_error(capsys, ["trig-family", "--input", path], "P index %s must be positive" % index)


@pytest.mark.parametrize(
    "command, obj, fields",
    [
        ("factors", {"P": {"coeffs": ["1*r3", "1*r5", "1"]}, "interval": {"a": "-1", "b": "1"}}, "sqrt(3) vs sqrt(5)"),
        (
            "center-table",
            {"P": {"coeffs": ["0", "-1*r3", "1"]}, "Q": {"coeffs": ["0", "1"]}, "interval": {"a": "0", "b": "1*r5"}},
            "sqrt(3) vs sqrt(5)",
        ),
        # in the cases below no arithmetic of the command combines the two fields
        (
            "cc",
            {"P": {"coeffs": ["0", "0", "1*r3"]}, "Q": {"coeffs": ["0", "0", "1*r2"]}, "interval": {"a": "-1", "b": "1"}},
            "sqrt(3) vs sqrt(2)",
        ),
        ("trig-moment", {"P": {"cos": {"1": "1*r3"}}, "Q": {"cos": {"1": "1*r2"}}, "i": 1, "j": 1}, "sqrt(3) vs sqrt(2)"),
        ("trig-family", {"d1": 3, "d2": 2, "p": {"1": ["1*r3", "0"]}, "q": {"1": ["1*r2", "0"]}}, "sqrt(3) vs sqrt(2)"),
        ("trig-family", {"d1": 3, "d2": 2, "p": {"1": ["0", "1*r3"]}, "R": {"coeffs": ["0", "1*r2"]}}, "sqrt(3) vs sqrt(2)"),
        (
            "moments --nmax 0",
            {
                "P": {"coeffs": ["-1*r3", "0", "1*r3"]},
                "Q": {"coeffs": ["-1*r2", "0", "1*r2"]},
                "interval": {"a": "-1", "b": "1"},
            },
            "sqrt(3) vs sqrt(2)",
        ),
        (
            "iterated",
            {"alpha": [1], "h1": {"coeffs": ["1*r3"]}, "h2": {"coeffs": ["1*r2"]}, "interval": {"a": "0", "b": "1"}},
            "sqrt(3) vs sqrt(2)",
        ),
    ],
    ids=["factors-obj0", "center-table-obj1", "cc", "trig-moment", "trig-family", "trig-family-R", "moments", "iterated"],
)
def test_mixed_radicands_are_an_input_error(command, obj, fields, tmp_path, capsys):
    path = write(tmp_path, "mix.json", obj)
    assert_input_error(capsys, command.split() + ["--input", path], "field mismatch: " + fields)


NOT_CLOSED = {"P": {"coeffs": ["0", "1"]}, "Q": {"coeffs": ["0", "0", "1"]}, "interval": {"a": "0", "b": "1"}}


@pytest.mark.parametrize(
    "command, err",
    [
        ("factors", "input error: not an [a,b]-closed polynomial\n"),
        ("cc", "input error: not an [a,b]-closed polynomial (P)\n"),
    ],
    ids=["factors", "cc"],
)
def test_non_closed_input_is_an_input_error(command, err, tmp_path, capsys):
    assert main([command, "--input", write(tmp_path, "nc.json", NOT_CLOSED)]) == 2
    assert capsys.readouterr() == ("", err)


# (10^12 + 39)(10^12 + 61): trial division up to its cube root is 5 * 10^7 steps
HUGE_D = 1000000000100000000002379


@pytest.mark.parametrize(
    "obj, err",
    [
        (
            {"D": HUGE_D, "P": {"coeffs": ["-1", "0", "1"]}, "interval": {"a": "-1", "b": "1"}},
            "input error: field 'D': D must be below 10^18, got %d\n" % HUGE_D,
        ),
        (
            {"D": 10**18, "P": {"coeffs": ["-1", "0", "1"]}, "interval": {"a": "-1", "b": "1"}},
            "input error: field 'D': D must be below 10^18, got %d\n" % 10**18,
        ),
        (
            {"P": {"coeffs": ["-1", "0", "1*r%d" % HUGE_D]}, "interval": {"a": "-1", "b": "1"}},
            "input error: D must be below 10^18, got %d\n" % HUGE_D,
        ),
    ],
    ids=["D-field", "D-field-at-bound", "literal"],
)
def test_radicand_at_or_above_the_bound_is_an_input_error(obj, err, tmp_path, capsys):
    assert main(["definite", "--input", write(tmp_path, "d.json", obj)]) == 2
    assert capsys.readouterr() == ("", err)


# Primitive pairs, a pair with Q(a) != Q(b) (order 0 with the parameter on
# p), and two pairs whose tables vanish: a composition pair and Q = 0.
ORDER_PAIRS = [
    GOLDEN_INPUTS["pair"],
    GOLDEN_INPUTS["melnikov"],
    {"P": {"coeffs": ["0", "-2", "1"]}, "Q": {"coeffs": ["0", "1", "1"]}, "interval": {"a": "0", "b": "2"}},
    {
        "D": 3,
        "P": {"coeffs": ["-3/4", "0", "1"]},
        "Q": {"coeffs": ["0", "-3/4", "1/2*r3", "1"]},
        "interval": {"a": "-1/2*r3", "b": "1/2*r3"},
    },
    {"P": {"coeffs": ["1", "0", "-2", "0", "1"]}, "Q": {"coeffs": ["0", "0", "-1", "0", "1"]}, "interval": {"a": "-1", "b": "1"}},
    {"P": {"coeffs": ["-1", "0", "1"]}, "Q": {"coeffs": ["0"]}, "interval": {"a": "-1", "b": "1"}},
]


@pytest.mark.parametrize("obj", ORDER_PAIRS)
def test_center_table_order_is_the_library_order(obj, tmp_path, capsys):
    P, Q, iv = cli._fields(obj, "P", "Q", "interval")
    path = write(tmp_path, "pair.json", obj)
    for flag, param in (("eps", EPS_ON_Q), ("delta", DELTA_ON_P)):
        want = infinitesimal_order(P.derivative(), Q.derivative(), iv, 7, param).order
        want = "all-zero" if want is None else want
        for direction in ("forward", "backward"):
            argv = ["center-table", "--input", path, "--kmax", "7", "--param", flag, "--direction", direction]
            assert main(argv + ["--json"]) == 0
            assert json.loads(capsys.readouterr().out)["infinitesimal_order"] == want


def test_center_table_order_cases_cover_zero_and_all_zero():
    orders = set()
    for obj in ORDER_PAIRS:
        P, Q, iv = cli._fields(obj, "P", "Q", "interval")
        for param in (EPS_ON_Q, DELTA_ON_P):
            orders.add(infinitesimal_order(P.derivative(), Q.derivative(), iv, 7, param).order)
    assert {None, 0, 1} <= orders


def test_center_table_builds_one_table(monkeypatch, tmp_path, capsys):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return parametric_table(*args, **kwargs)

    monkeypatch.setattr(cli, "parametric_table", counted)
    monkeypatch.setattr(center, "parametric_table", counted)
    path = write(tmp_path, "pair.json", GOLDEN_INPUTS["pair"])
    for direction in ("forward", "backward"):
        calls.clear()
        assert main(["center-table", "--input", path, "--kmax", "6", "--direction", direction]) == 0
        assert len(calls) == 1
    capsys.readouterr()


# -- numbers past Python's int/str digit limit (4,300 digits since 3.10.7) ------

needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="this Python has no int/str digit limit"
)

# P = c (1 - x^2): its fifth power, and the degree-9 table entries, have more
# than 4,300 digits
BIG_C = "7" + "3" * 1500


def scaled_pair(c):
    return {
        "P": {"coeffs": [c, "0", "-" + c]},
        "Q": {"coeffs": ["0", "-1", "0", "1"]},
        "interval": {"a": "-1", "b": "1"},
    }


@pytest.fixture
def digit_limit():
    """Python's int/str digit limit, put back after the test."""
    limit = sys.get_int_max_str_digits()
    yield limit
    sys.set_int_max_str_digits(limit)


@needs_digit_limit
def test_long_moments_are_printed_exactly(tmp_path, capsys, digit_limit):
    outs = []
    for c in (BIG_C, "1"):
        path = write(tmp_path, "pair.json", scaled_pair(c))
        assert main(["moments", "--input", path, "--nmax", "5", "--json"]) == 0
        outs.append(json.loads(capsys.readouterr().out))
        assert sys.get_int_max_str_digits() == digit_limit
    big, one = outs
    assert max(len(v) for v in big["m_PQ"].values()) > 4300
    sys.set_int_max_str_digits(0)
    c = int(BIG_C)
    for i in map(str, range(6)):
        assert Fraction(big["m_PQ"][i]) == c ** int(i) * Fraction(one["m_PQ"][i])
        assert Fraction(big["m_QP"][i]) == c * Fraction(one["m_QP"][i])


@needs_digit_limit
def test_long_table_entries_are_printed_exactly(tmp_path, capsys, digit_limit):
    obj = scaled_pair(BIG_C)
    path = write(tmp_path, "pair.json", obj)
    argv = ["center-table", "--input", path, "--kmax", "9", "--param", "delta", "--json"]
    assert main(argv) == 0
    entries = json.loads(capsys.readouterr().out)["entries"]
    assert sys.get_int_max_str_digits() == digit_limit
    assert max(len(v) for v in entries.values()) > 4300
    sys.set_int_max_str_digits(0)
    P, Q = poly_from_json(obj["P"]), poly_from_json(obj["Q"])
    table = parametric_table(P.derivative(), Q.derivative(), Interval(-1, 1), 9, DELTA_ON_P, FORWARD)
    assert entries == {"%d,%d" % kj: scalar_to_text(v) for kj, v in table.entries.items()}


@needs_digit_limit
def test_long_literals_are_read(tmp_path, capsys, digit_limit):
    big = "1" + "0" * 4400
    huge_d = '{"D": %s, "P": {"coeffs": ["-1", "0", "1"]}, "interval": {"a": "-1", "b": "1"}}' % big
    path = tmp_path / "d.json"
    path.write_text(huge_d)
    assert main(["definite", "--input", str(path)]) == 2
    assert capsys.readouterr() == ("", "input error: field 'D': D must be below 10^18, got %s\n" % big)
    path = write(tmp_path, "p.json", {"P": {"coeffs": ["-" + big, "0", big]}, "interval": {"a": "-1", "b": "1"}})
    assert main(["zspace", "--input", path, "--degree", "4", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["dimension"] == 2
    assert sys.get_int_max_str_digits() == digit_limit


@needs_digit_limit
def test_the_callers_digit_limit_is_restored(tmp_path, capsys, digit_limit):
    sys.set_int_max_str_digits(5000)
    assert main(["zspace", "--input", write(tmp_path, "p.json", scaled_pair("1")), "--degree", "4"]) == 0
    assert main(["zspace", "--input", str(tmp_path / "missing.json"), "--degree", "4"]) == 2
    with pytest.raises(SystemExit):
        main(["zspace", "--bogus"])
    capsys.readouterr()
    assert sys.get_int_max_str_digits() == 5000
