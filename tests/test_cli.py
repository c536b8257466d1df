"""End-to-end command line runs: schemas, exit codes, determinism."""

import argparse
import json
import math
from fractions import Fraction

import pytest

from dilations import builders, cli, schaffer
from dilations.builders import ConvexCombination
from dilations.cli import run
from dilations.linalg import OperatorMatrix, PNorm


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _mat(data):
    return {"rows": len(data), "cols": len(data[0]), "data": data}


def _combo_payload(p="3"):
    return {
        "p": p,
        "isometries": [_mat([[1, 0], [0, 1]]), _mat([[0, 1], [1, 0]])],
        "weights": ["1/3", "2/3"],
    }


def _run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_build_report_schema(tmp_path, capsys):
    combo = _write(tmp_path, "combo.json", _combo_payload())
    code, doc = _run_json(capsys, ["build", "--combo", combo, "--N", "2"])
    assert code == 0
    assert doc["command"] == "build"
    assert doc["inputs"]["hash"].startswith("sha256:")
    assert doc["inputs"]["mode"] == "exact"
    assert doc["summary"]["pass"] is True
    assert doc["summary"]["max_residual"] == 0.0
    assert all(r["pass"] for r in doc["results"])
    assert doc["provenance"]["space_dim"] == 16
    assert doc["provenance"]["n_guarantee"] == 2


def test_verify_all_words_deterministic(tmp_path, capsys):
    combo = _write(tmp_path, "combo.json", _combo_payload())
    argv = ["verify", "--combo", combo, "--N", "2", "--all-up-to", "2"]
    code1 = run(argv)
    out1 = capsys.readouterr().out
    code2 = run(argv)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2            # byte identical, same seed
    doc = json.loads(out1)
    words = [r["word"] for r in doc["results"] if "word" in r]
    assert ["T"] in words and ["T", "T"] in words
    assert all(r["residual"] == 0.0 for r in doc["results"])


def test_verify_explicit_word(tmp_path, capsys):
    combo = _write(tmp_path, "combo.json", _combo_payload())
    code, doc = _run_json(capsys, ["verify", "--combo", combo, "--N", "1",
                                   "--word", "T"])
    assert code == 0
    assert any(r.get("word") == ["T"] for r in doc["results"])


def test_verify_needs_word_selection(tmp_path, capsys):
    combo = _write(tmp_path, "combo.json", _combo_payload())
    code = run(["verify", "--combo", combo, "--N", "1"])
    capsys.readouterr()
    assert code == 2


def _family_payload():
    return {"p": "3", "members": {
        "A": {"isometries": [_mat([[1, 0], [0, 1]]), _mat([[0, 1], [1, 0]])],
              "weights": ["1/2", "1/2"]}}}


def _augment_payload():
    return {"p": "3", "members": {"A": _mat([[0, 1], [1, 0]])}}


@pytest.mark.parametrize("cap", ["0", "-4"])
@pytest.mark.parametrize("command", ["verify", "simultaneous", "zero-augment", "shift"])
def test_word_cap_below_one_is_input_error(command, cap, tmp_path, capsys):
    # a cap below 1 checks no word at all; it must not read as a pass
    argv = {
        "verify": ["verify", "--combo", _write(tmp_path, "c.json", _combo_payload()),
                   "--N", "2", "--all-up-to", "3"],
        "simultaneous": ["simultaneous", "--family",
                         _write(tmp_path, "f.json", _family_payload()), "--N", "2"],
        "zero-augment": ["zero-augment", "--family",
                         _write(tmp_path, "a.json", _augment_payload()), "--N", "2"],
        "shift": ["shift", "--matrix", _write(tmp_path, "m.json", _mat([["1/2"]])),
                  "--window", "2"],
    }[command]
    code = run(argv + ["--word-cap", cap])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "word_cap must be at least 1" in captured.err


def test_negative_word_length_is_input_error(tmp_path, capsys):
    combo = _write(tmp_path, "combo.json", _combo_payload())
    code = run(["verify", "--combo", combo, "--N", "2", "--all-up-to", "-1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "nonnegative" in captured.err


def test_verify_rejects_both_word_selections(tmp_path, capsys):
    combo = _write(tmp_path, "combo.json", _combo_payload())
    code = run(["verify", "--combo", combo, "--N", "2", "--all-up-to", "2",
                "--word", "T,T"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "exactly one of --all-up-to" in captured.err


def test_unknown_label_is_input_error(tmp_path, capsys):
    combo = _write(tmp_path, "combo.json", _combo_payload())
    code = run(["verify", "--combo", combo, "--N", "1", "--word", "X"])
    err = capsys.readouterr().err
    assert code == 2
    assert "X" in err


def test_malformed_json_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = run(["build", "--combo", str(bad), "--N", "1"])
    capsys.readouterr()
    assert code == 2


def test_missing_keys_is_input_error(tmp_path, capsys):
    combo = _write(tmp_path, "combo.json", {"weights": ["1"]})
    code = run(["build", "--combo", combo, "--N", "1"])
    capsys.readouterr()
    assert code == 2


def test_conflicting_p_is_input_error(tmp_path, capsys):
    combo = _write(tmp_path, "combo.json", _combo_payload(p="3"))
    code = run(["build", "--combo", combo, "--N", "1", "--p", "2"])
    capsys.readouterr()
    assert code == 2


def test_mixed_payload_forces_float_with_warning(tmp_path, capsys):
    payload = _combo_payload()
    payload["isometries"][1]["data"] = [[0, 1.0], [1, 0]]
    combo = _write(tmp_path, "combo.json", payload)
    code, doc = _run_json(capsys, ["build", "--combo", combo, "--N", "1"])
    assert code == 0
    assert doc["inputs"]["mode"] == "float64"
    assert any("float" in w for w in doc["warnings"])


def test_out_file_instead_of_stdout(tmp_path, capsys):
    combo = _write(tmp_path, "combo.json", _combo_payload())
    dest = tmp_path / "report.json"
    code = run(["build", "--combo", combo, "--N", "1", "--out", str(dest)])
    assert code == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(dest.read_text())
    assert doc["summary"]["pass"] is True


def test_simultaneous_command(tmp_path, capsys):
    family = _write(tmp_path, "family.json", {
        "p": "3",
        "members": {
            "A": {"isometries": [_mat([[1, 0], [0, 1]]), _mat([[0, 1], [1, 0]])],
                  "weights": ["1/2", "1/2"]},
            "B": {"isometries": [_mat([[-1, 0], [0, 1]]), _mat([[0, 1], [1, 0]])],
                  "weights": ["1/3", "2/3"]},
        },
    })
    code, doc = _run_json(capsys, ["simultaneous", "--family", family, "--N", "2"])
    assert code == 0
    assert doc["summary"]["pass"] is True
    assert doc["summary"]["max_residual"] == 0.0
    assert doc["provenance"]["common_m"] == 6


def test_zero_augment_command(tmp_path, capsys):
    family = _write(tmp_path, "family.json", {
        "p": "3",
        "members": {"A": _mat([[0, 1], [1, 0]]),
                    "B": _mat([[-1, 0], [0, 1]])},
    })
    code, doc = _run_json(capsys, ["zero-augment", "--family", family, "--N", "2"])
    assert code == 0
    assert doc["summary"]["pass"] is True
    words = [tuple(r["word"]) for r in doc["results"] if "word" in r]
    assert any("0" in w for w in words)


def test_shift_command(tmp_path, capsys):
    matrix = _write(tmp_path, "matrix.json",
                    _mat([["1/2", "1/4"], ["1/4", "1/2"]]))
    code, doc = _run_json(capsys, ["shift", "--matrix", matrix, "--window", "4"])
    assert code == 0
    assert doc["summary"]["pass"] is True
    assert doc["summary"]["max_residual"] == 0.0
    assert doc["provenance"]["n_guarantee"] == 4


def test_shift_rejects_expanding_matrix(tmp_path, capsys):
    matrix = _write(tmp_path, "matrix.json", _mat([["3/2"]]))
    code = run(["shift", "--matrix", matrix, "--window", "2"])
    capsys.readouterr()
    assert code == 2


def test_decompose_command(tmp_path, capsys):
    matrix = _write(tmp_path, "matrix.json", _mat([[0.5, 0.0], [0.0, 0.25]]))
    code, doc = _run_json(capsys, ["decompose", "--matrix", matrix])
    assert code == 0
    assert doc["summary"]["pass"] is True
    checks = {r["check"] for r in doc["results"]}
    assert "reconstruction" in checks
    assert "weight-sum" in checks


def test_hull_check_member(tmp_path, capsys):
    matrix = _write(tmp_path, "matrix.json",
                    _mat([["1/2", "1/2"], ["1/2", "1/2"]]))
    code, doc = _run_json(capsys, ["hull-check", "--matrix", matrix,
                                   "--generators", "perms"])
    assert code == 0
    membership = doc["provenance"]["membership"]
    assert membership["status"] == "member"
    assert membership["coefficients"] == {"id": "1/2", "swap": "1/2"}


def test_hull_check_non_member_certificate(tmp_path, capsys):
    s = 2.0 ** (-2.0 / 3.0)
    matrix = _write(tmp_path, "matrix.json", _mat([[s, s], [0.0, 0.0]]))
    code, doc = _run_json(capsys, ["hull-check", "--matrix", matrix,
                                   "--generators", "sperms",
                                   "--mode", "subconvex"])
    assert code == 0                     # a verified non-member is a success
    membership = doc["provenance"]["membership"]
    assert membership["status"] == "non-member"
    cert = membership["certificate"]
    assert {"functional", "functional_bound", "violation"} <= set(cert)
    assert "u" in cert and "v" in cert   # rank-one evaluation pair found
    assert any(r["check"] == "separation-certificate" and r["pass"]
               for r in doc["results"])
    assert any("snap" in w for w in doc["warnings"])


def test_hull_check_custom_generators(tmp_path, capsys):
    gens = _write(tmp_path, "gens.json", {
        "generators": [_mat([[1, 0], [0, 1]]), _mat([[0, 1], [1, 0]])],
        "names": ["e", "s"],
    })
    matrix = _write(tmp_path, "matrix.json",
                    _mat([["1/2", "1/2"], ["1/2", "1/2"]]))
    code, doc = _run_json(capsys, ["hull-check", "--matrix", matrix,
                                   "--generators", gens])
    assert code == 0
    assert doc["provenance"]["membership"]["coefficients"] == {
        "e": "1/2", "s": "1/2"}


def test_hull_check_hashes_the_generator_file_not_its_path(tmp_path, capsys):
    matrix = _write(tmp_path, "matrix.json", _mat([["1/2", "1/2"], ["1/2", "1/2"]]))
    swap = {"generators": [_mat([[1, 0], [0, 1]]), _mat([[0, 1], [1, 0]])]}
    named = {**swap, "names": ["e", "s"]}

    def input_hash(gens):
        code, doc = _run_json(capsys, ["hull-check", "--matrix", matrix, "--generators", gens])
        assert code == 0
        return doc["inputs"]["hash"]

    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    one_file_two_paths = {input_hash(_write(tmp_path / d, "gens.json", swap)) for d in "ab"}
    two_files_one_path = {input_hash(_write(tmp_path, "gens.json", g)) for g in (swap, named)}
    assert len(one_file_two_paths) == 1
    assert len(two_files_one_path) == 2


def test_hull_check_refuses_repeated_generator_names(tmp_path, capsys):
    # with one name twice, the report would keep only the last weight
    gens = _write(tmp_path, "gens.json", {
        "generators": [_mat([[1, 0], [0, 1]]), _mat([[0, 1], [1, 0]])],
        "names": ["a", "a"],
    })
    matrix = _write(tmp_path, "matrix.json",
                    _mat([["3/4", "1/4"], ["1/4", "3/4"]]))
    code = run(["hull-check", "--matrix", matrix, "--generators", gens])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "generator names must be distinct" in captured.err


@pytest.mark.parametrize("preset", ["perms", "sperms"])
def test_hull_check_preset_over_the_enumeration_cap(preset, tmp_path, capsys):
    matrix = _write(tmp_path, "matrix.json",
                    _mat([[1 if i == j else 0 for j in range(6)] for i in range(6)]))
    code = run(["hull-check", "--matrix", matrix, "--generators", preset])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "dimension 6 above enumeration cap 5" in captured.err


def test_hull_check_refuses_generator_file_over_the_cap(tmp_path, capsys):
    # placeholders are not matrices: parsing any of them first would fail
    # with another message, so the count is checked before any entry
    gens = _write(tmp_path, "gens.json", [None] * (cli.GENERATOR_CAP + 1))
    matrix = _write(tmp_path, "matrix.json", _mat([[1, 0], [0, 1]]))
    code = run(["hull-check", "--matrix", matrix, "--generators", gens])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"generator count {cli.GENERATOR_CAP + 1} exceeds cap" in captured.err


def test_identity_check_command(capsys):
    code, doc = _run_json(capsys, ["identity-check", "--m", "2", "--N", "4"])
    assert code == 0
    assert doc["summary"]["pass"] is True
    checks = {r["check"] for r in doc["results"]}
    assert any(c.startswith("word-sum") for c in checks)
    assert any("orbit" in c for c in checks)


def test_oracle_command(tmp_path, capsys):
    matrix = _write(tmp_path, "matrix.json", _mat([[0.5, 0.1], [0.0, 0.6]]))
    code, doc = _run_json(capsys, ["oracle", "--matrix", matrix, "--N", "3"])
    assert code == 0
    assert doc["summary"]["pass"] is True
    checks = {r["check"] for r in doc["results"]}
    assert "orthogonality" in checks


def test_oracle_cross_command(tmp_path, capsys):
    matrix = _write(tmp_path, "matrix.json", _mat([[0.5, 0.1], [0.0, 0.6]]))
    code, doc = _run_json(capsys, ["oracle", "--matrix", matrix, "--N", "2",
                                   "--cross"])
    assert code == 0
    assert doc["summary"]["pass"] is True
    assert "cross" in doc["provenance"]


def test_orbit_command(capsys):
    code, doc = _run_json(capsys, ["orbit", "--m", "2", "--N", "3"])
    assert code == 0
    assert doc["summary"]["pass"] is True
    assert doc["provenance"]["orbit_count"] == 4


def test_verification_failure_exits_one(tmp_path, capsys):
    # a combination of non-commuting rotations in float mode cannot meet an
    # impossibly small tolerance at every word, so the verdict fails
    payload = {
        "p": "2",
        "isometries": [
            _mat([[0.6, -0.8], [0.8, 0.6]]),
            _mat([[0.0, 1.0], [-1.0, 0.0]]),
        ],
        "weights": ["1/2", "1/2"],
    }
    combo = _write(tmp_path, "combo.json", payload)
    code = run(["verify", "--combo", combo, "--N", "2", "--all-up-to", "2",
                "--tolerance", "1e-30"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert code == 1
    assert doc["summary"]["pass"] is False


def test_reports_are_sorted_and_indented(tmp_path, capsys):
    combo = _write(tmp_path, "combo.json", _combo_payload())
    run(["build", "--combo", combo, "--N", "1"])
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("route", ["verify_dilation", "verify-word", "build"])
def test_exact_verdict_needs_equality(route, tmp_path, capsys, monkeypatch):
    # Q U_w J off by 10^-400 from the true product: the float residual
    # underflows to 0.0, but the matrices differ, so the word must fail
    tiny = OperatorMatrix([[Fraction(1, 10 ** 400), 0], [0, 0]])
    compress = builders._compress
    monkeypatch.setattr(builders, "_compress",
                        lambda triple, middle: compress(triple, middle) + tiny)
    if route == "verify_dilation":
        combo = ConvexCombination(
            (OperatorMatrix.identity(2), OperatorMatrix([[0, 1], [1, 0]])),
            (Fraction(1, 3), Fraction(2, 3)))
        triple = builders.build_n_dilation(combo, 1, PNorm(3))
        report = builders.verify_dilation(triple, {"T": combo.operator()}, 1)
        assert (report.passed, report.max_residual) == (False, 0.0)
    else:
        combo = _write(tmp_path, "combo.json", _combo_payload())
        argv = {"build": ["build", "--combo", combo, "--N", "1"],
                "verify-word": ["verify", "--combo", combo, "--N", "1", "--word", "T"]}
        code, doc = _run_json(capsys, argv[route])
        assert code == 1
        assert doc["summary"] == {"max_residual": 0.0, "pass": False}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("argv", [
    ["decompose"],
    ["oracle", "--N", "2"],
    ["shift", "--window", "2"],
    ["hull-check", "--generators", "sperms"],
], ids=lambda argv: argv[0])
def test_non_finite_entries_are_input_errors(argv, value, tmp_path, capsys):
    matrix = _write(tmp_path, "matrix.json", _mat([[value, 0.0], [0.0, 0.5]]))
    code = run(argv[:1] + ["--matrix", matrix] + argv[1:])
    assert code == 2
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("command, payload", [
    ("build", {**_combo_payload(), "isometries": 5}),
    ("verify", {**_combo_payload(), "weights": 1}),
    ("build", {**_combo_payload(), "labels": 5}),
    ("simultaneous", {"p": "3", "members": {"A": 5}}),
    ("simultaneous", {"p": "3", "members": {"A": [1, 2]}}),
    ("hull-check", {"generators": [_mat([[1, 0], [0, 1]])], "names": 5}),
    ("shift", {"rows": True, "cols": 1, "data": [["1/2"]]}),
    ("zero-augment", {"p": "3", "members": {"A": {"rows": 1, "cols": True, "data": [[1]]}}}),
], ids=["isometries", "weights", "labels", "member-number", "member-list", "names",
        "rows-bool", "cols-bool"])
def test_malformed_payload_shapes_are_input_errors(command, payload, tmp_path, capsys):
    path = _write(tmp_path, "payload.json", payload)
    argv = {
        "build": ["build", "--combo", path, "--N", "2"],
        "verify": ["verify", "--combo", path, "--N", "2", "--all-up-to", "2"],
        "simultaneous": ["simultaneous", "--family", path, "--N", "2"],
        "zero-augment": ["zero-augment", "--family", path, "--N", "2"],
        "hull-check": ["hull-check", "--generators", path, "--matrix",
                       _write(tmp_path, "matrix.json", _mat([[1, 0], [0, 1]]))],
        "shift": ["shift", "--matrix", path, "--window", "2"],
    }[command]
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["verify", "--combo", "{combo}", "--N", "2", "--all-up-to", "1000000000"],
    ["verify", "--combo", "{combo}", "--N", "2", "--all-up-to", "100000"],
    ["zero-augment", "--family", "{augment}", "--N", "100000"],
    ["simultaneous", "--family", "{family}", "--N", "100000"],
    ["shift", "--matrix", "{matrix}", "--window", "100000"],
], ids=lambda argv: f"{argv[0]}-{argv[-1]}")
def test_oversized_word_set_is_refused_before_building(argv, tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("built or enumerated past the word-set cap")

    for name in ("build_n_dilation", "build_simultaneous_n_dilation", "zero_augment",
                 "shift_dilation"):
        monkeypatch.setattr(cli, name, never)
    monkeypatch.setattr(builders, "_word_set", never)
    files = {"combo": _write(tmp_path, "c.json", _combo_payload()),
             "augment": _write(tmp_path, "a.json", _augment_payload()),
             "family": _write(tmp_path, "f.json", _family_payload()),
             "matrix": _write(tmp_path, "m.json", _mat([["1/2"]]))}
    code = run([arg.format(**files) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: word set too large")


@pytest.mark.parametrize("max_denominator", ["0", "-3"])
@pytest.mark.parametrize("argv", [
    ["hull-check", "--generators", "perms"],
    ["decompose"],
], ids=lambda argv: argv[0])
def test_max_denominator_below_one_is_input_error(argv, max_denominator, tmp_path, capsys):
    matrix = _write(tmp_path, "matrix.json", _mat([[0.5, 0.25], [0.25, 0.5]]))
    code = run(argv[:1] + ["--matrix", matrix, "--max-denominator", max_denominator]
               + argv[1:])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and "denominator" in captured.err


def test_oversized_dilation_is_input_error(tmp_path, capsys):
    # m = 4, N = 14: 4^14 blocks would need terabytes; refused before any allocation
    payload = {"p": "3", "isometries": [_mat([[1, 0], [0, 1]]), _mat([[0, 1], [1, 0]]),
                                        _mat([[-1, 0], [0, 1]]), _mat([[0, -1], [1, 0]])],
               "weights": ["1/4"] * 4}
    combo = _write(tmp_path, "combo.json", payload)
    code = run(["verify", "--combo", combo, "--N", "14", "--all-up-to", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "dilation too large" in err and "over the cap" in err


@pytest.mark.parametrize("tolerance", ["nan", "-1", "inf"])
@pytest.mark.parametrize("command", ["verify", "oracle", "decompose"])
def test_bad_tolerance_is_input_error(command, tolerance, tmp_path, capsys):
    # a NaN or negative tolerance fails every float check of a correct input;
    # it must be refused as input, not reported as a verification failure
    float_combo = {"p": "3", "isometries": [_mat([[1.0, 0.0], [0.0, 1.0]]),
                                            _mat([[0.0, 1.0], [1.0, 0.0]])],
                   "weights": ["1/3", "2/3"]}
    matrix = _write(tmp_path, "m.json", _mat([[0.5, 0.1], [0.0, 0.6]]))
    argv = {
        "verify": ["verify", "--combo", _write(tmp_path, "c.json", float_combo),
                   "--N", "2", "--all-up-to", "2"],
        "oracle": ["oracle", "--matrix", matrix, "--N", "2"],
        "decompose": ["decompose", "--matrix", matrix],
    }[command]
    assert run(argv) == 0
    capsys.readouterr()
    code = run(argv + ["--tolerance", tolerance])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "--tolerance must be finite and nonnegative" in captured.err


@pytest.mark.parametrize("argv", [
    ["orbit", "--m", "10", "--N", "12"],
    ["orbit", "--m", "2", "--N", "16"],
    ["orbit", "--m", "2", "--N", "1000000000000"],
    ["identity-check", "--m", "10", "--N", "12"],
    ["identity-check", "--m", "1", "--N", "1000"],
    ["identity-check", "--m", "2", "--N", "3", "--trials", "-1"],
])
def test_enumeration_over_the_cap_is_input_error(argv, capsys, monkeypatch):
    def never(*args):
        raise AssertionError("multi-indices enumerated past the cap")

    for name in ("orbit_partition", "lhs_word_sum", "rhs_word_sum"):
        monkeypatch.setattr(cli, name, never)
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "words to enumerate" in captured.err or "--trials" in captured.err


_MIXED = "payload mixes exact and float entries; forcing float mode"
_MATRIX_MIXED = "matrix mixes exact and float entries; forcing float mode"
_SNAPPED = "float matrix snapped to the rational grid"
_FLOAT_SWAP = _mat([[0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize("argv, payload, mode, warnings", [
    (["build", "--N", "2"],
     {"p": "3", "isometries": [_mat([[1, 0], [0, 1]]), _mat([[0, 1.0], [1, 0]])],
      "weights": ["1/3", "2/3"]}, "float64", [_MIXED]),
    (["verify", "--N", "2", "--all-up-to", "2"],
     {"p": "3", "isometries": [_mat([[1, 0], [0, 1]]), _mat([[0, 1.0], [1, 0]])],
      "weights": ["1/3", "2/3"]}, "float64", [_MIXED]),
    (["build", "--N", "2"],
     {"p": "3", "isometries": [_mat([[1.0, 0.0], [0.0, 1.0]]), _mat([[0, 1], [1, 0]])],
      "weights": ["1/3", "2/3"]}, "float64", [_MIXED]),
    (["verify", "--N", "2", "--word", "T,T"],
     {"p": "3", "isometries": [_mat([[1.0, 0.0], [0.0, 1.0]]), _FLOAT_SWAP],
      "weights": ["1/3", "2/3"]}, "float64", None),
    (["simultaneous", "--N", "2"],
     {"p": "3", "members": {
         "A": {"isometries": [_mat([[1, 0], [0, 1]]), _mat([[0, 1], [1, 0.0]])],
               "weights": ["1/2", "1/2"]},
         "B": {"isometries": [_mat([[-1.0, 0], [0, 1]]), _FLOAT_SWAP],
               "weights": ["1/3", "2/3"]}}}, "float64", [_MIXED]),
    (["simultaneous", "--N", "2"],
     {"p": "3", "members": {
         "A": {"isometries": [_mat([[1, 0], [0, 1]]), _mat([[0, 1], [1, 0]])],
               "weights": ["1/2", "1/2"]},
         "B": {"isometries": [_mat([[-1.0, 0.0], [0.0, 1.0]]), _FLOAT_SWAP],
               "weights": ["1/3", "2/3"]}}}, "float64", [_MIXED]),
    (["zero-augment", "--N", "2"],
     {"p": "3", "members": {"A": _mat([[0, 1.0], [1, 0]]), "B": _mat([[-1, 0], [0, 1]])}},
     "float64", [_MIXED]),
    (["shift", "--window", "3"], _mat([["1/2", 0.25], [0.25, "1/2"]]), "float64",
     [_MATRIX_MIXED]),
    (["decompose"], _mat([["1/2", 0.25], [0.25, "1/2"]]), "float64", [_MATRIX_MIXED]),
    (["hull-check", "--generators", "perms"], _mat([["1/2", 0.5], [0.5, "1/2"]]), "exact",
     [_SNAPPED, _MATRIX_MIXED]),
    (["oracle", "--N", "2"], _mat([["1/2", 0.1], [0, "3/5"]]), "float64",
     [_MATRIX_MIXED]),
], ids=["build-mixed", "verify-mixed", "build-float-and-exact", "verify-all-float",
        "simultaneous-mixed", "simultaneous-exact-and-float", "zero-augment-mixed",
        "shift-mixed", "decompose-mixed", "hull-check-mixed", "oracle-mixed"])
def test_report_mode_and_warnings(argv, payload, mode, warnings, tmp_path, capsys):
    flag = {"build": "--combo", "verify": "--combo", "simultaneous": "--family",
            "zero-augment": "--family"}.get(argv[0], "--matrix")
    path = _write(tmp_path, "payload.json", payload)
    code, doc = _run_json(capsys, argv[:1] + [flag, path] + argv[1:])
    assert code == 0 and doc["summary"]["pass"] is True
    assert doc["inputs"]["mode"] == mode
    assert doc.get("warnings") == warnings


REQUIRED = object()
_COMMON_OPTIONS = {"--out": None, "--tolerance": 1e-9, "--seed": 42}


def test_parser_options_and_defaults():
    parser = cli.build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {}
    for name, sub in subs.choices.items():
        got[name] = {}
        for action in sub._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            flag, = action.option_strings
            assert action.dest == flag[2:].replace("-", "_")
            got[name][flag] = REQUIRED if action.required else action.default
    expected = {
        "build": {"--combo": REQUIRED, "--N": REQUIRED, "--p": None, "--label": "T",
                  **_COMMON_OPTIONS},
        "verify": {"--combo": REQUIRED, "--N": REQUIRED, "--p": None, "--label": "T",
                   "--all-up-to": None, "--word": [], "--word-cap": 10_000,
                   **_COMMON_OPTIONS},
        "simultaneous": {"--family": REQUIRED, "--N": REQUIRED, "--p": None, "--m-cap": 64,
                         "--word-cap": 10_000, **_COMMON_OPTIONS},
        "zero-augment": {"--family": REQUIRED, "--N": REQUIRED, "--p": None,
                         "--word-cap": 10_000, **_COMMON_OPTIONS},
        "shift": {"--matrix": REQUIRED, "--window": REQUIRED, "--word-cap": 10_000,
                  **_COMMON_OPTIONS},
        "decompose": {"--matrix": REQUIRED, "--max-denominator": 10 ** 9,
                      **_COMMON_OPTIONS},
        "hull-check": {"--matrix": REQUIRED, "--generators": REQUIRED, "--mode": "convex",
                       "--max-denominator": 10 ** 6, **_COMMON_OPTIONS},
        "identity-check": {"--m": REQUIRED, "--N": REQUIRED, "--trials": 10,
                           **_COMMON_OPTIONS},
        "oracle": {"--matrix": REQUIRED, "--N": REQUIRED, "--cross": False,
                   **_COMMON_OPTIONS},
        "orbit": {"--m": REQUIRED, "--N": REQUIRED, **_COMMON_OPTIONS},
    }
    assert got == expected
    # the commands and their options in the order that --help lists them
    assert [(name, list(opts)) for name, opts in got.items()] == [
        (name, list(opts)) for name, opts in expected.items()]


def test_oracle_refuses_an_oversized_unitary_before_building(tmp_path, capsys, monkeypatch):
    # d * (N + 1) is bounded before the defect roots or the dense unitary are made
    def never(*args):
        raise AssertionError("defect roots taken past the size cap")

    monkeypatch.setattr(schaffer, "defect_root", never)
    matrix = _write(tmp_path, "m.json", _mat([[0.5, 0.1], [0.0, 0.6]]))
    code = run(["oracle", "--matrix", matrix, "--N", "100000"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: dilation too large")


def test_one_term_build_refuses_huge_n_before_index_arrays(tmp_path, capsys, monkeypatch):
    # with m = 1 there is one alpha row for every N, but the index arrays are N long
    def never(*args):
        raise AssertionError("N-long index arrays made past the slot cap")

    monkeypatch.setattr(builders, "_slot_rows", never)
    monkeypatch.setattr(builders, "_class_keys", never)
    combo = _write(tmp_path, "c.json", {"p": "3", "isometries": [_mat([[0, 1], [1, 0]])],
                                        "weights": ["1"]})
    code = run(["build", "--combo", combo, "--N", "1000000000"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: dilation too large")


def test_simultaneous_refuses_a_large_denominator_before_copying(tmp_path, capsys,
                                                                 monkeypatch):
    # lcd = 10^6 is under --m-cap, but 10^6^2 blocks are over the size cap: refused
    # before a term is copied 10^6 times or a copy is checked for isometry
    def never(*args):
        raise AssertionError("terms copied or checked past the size cap")

    monkeypatch.setattr(builders, "_expand_to_denominator", never)
    monkeypatch.setattr(builders, "is_lp_isometry", never)
    family = _write(tmp_path, "f.json", {"p": "3", "members": {"A": {
        "isometries": [_mat([[1, 0], [0, 1]]), _mat([[0, 1], [1, 0]])],
        "weights": ["1/1000000", "999999/1000000"]}}})
    code = run(["simultaneous", "--family", family, "--N", "2", "--m-cap", "1000000000"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: dilation too large")
