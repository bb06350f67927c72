import json
import subprocess
import sys

import pytest

from abellab import verify
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
    assert "kernel not stabilized" in capsys.readouterr().err


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
    assert "unrecognized arguments" in capsys.readouterr().err


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
