"""Pinned sha256 digests of CLI reports for fixed exact payloads.

A refactor that claims "same behaviour" must leave these reports byte for
byte unchanged; a change that alters a report on purpose updates the digest
and says why.
"""

import hashlib
import json

import pytest

from dilations.cli import run


def _mat(data):
    return {"rows": len(data), "cols": len(data[0]), "data": data}


_COMBO = {
    "p": "3",
    "isometries": [_mat([[1, 0], [0, 1]]), _mat([[0, 1], [1, 0]])],
    "weights": ["1/3", "2/3"],
}
_COMBO3 = {
    "p": "4",
    "isometries": [_mat([[1, 0, 0], [0, -1, 0], [0, 0, 1]]),
                      _mat([[0, 1, 0], [0, 0, 1], [1, 0, 0]]),
                      _mat([[0, 0, -1], [0, 1, 0], [1, 0, 0]])],
    "weights": ["1/6", "1/3", "1/2"],
}
_FAMILY = {
    "p": "3",
    "members": {
           "A": {"isometries": [_mat([[1, 0], [0, 1]]), _mat([[0, 1], [1, 0]])],
                 "weights": ["1/2", "1/2"]},
           "B": {"isometries": [_mat([[-1, 0], [0, 1]]), _mat([[0, 1], [1, 0]])],
                 "weights": ["1/3", "2/3"]},
    },
}
_ZERO_FAMILY = {"p": "3", "members": {"A": _mat([[0, 1], [1, 0]]),
                                         "B": _mat([[-1, 0], [0, 1]])}}
_SHIFT = _mat([["1/3", 0, "1/5"], ["1/3", "1/2", 0], [0, "1/4", "-1/2"]])
_HULL_PERMS = _mat([["1/2", "1/4", "1/4"], ["1/4", "1/2", "1/4"],
                       ["1/4", "1/4", "1/2"]])
_HULL_SPERMS = _mat([["1/2", "-1/3"], ["1/4", "1/2"]])
_HULL_SPERMS_OUT = _mat([["3/4", "1/2"], [0, "1/4"]])

# (argv with {file} standing for the payload path, payload, sha256 of the report)
CASES = {
    "build": (
        ["build", "--combo", "{file}", "--N", "3"],
        _COMBO3,
        "2ad860e53263bd937abf1e4b31bb6e2316d5120cbd85e5937dfeec4205aa5cf8"),
    "verify-all-up-to": (
        ["verify", "--combo", "{file}", "--N", "2", "--all-up-to", "3"],
        _COMBO,
        "93ea247d49dfbb762835b185980baa431f938f8d38843a9c87e9f209ab72a641"),
    "verify-sampled": (
        ["verify", "--combo", "{file}", "--N", "2", "--all-up-to", "4",
         "--word-cap", "7"],
        _COMBO3,
        "ea8ee7bf6fb4f305cf191afeb2f18c271651b6c63e2b44af7f542bc22009fbfd"),
    "verify-word": (
        ["verify", "--combo", "{file}", "--N", "1", "--word", "T",
         "--word", "T,T", "--word", ""],
        _COMBO,
        "8e0ba24080d5a2186e49b94fd11b553a204bc20eafef305249f17e0ae25141c3"),
    "simultaneous": (
        ["simultaneous", "--family", "{file}", "--N", "2"],
        _FAMILY,
        "a42935ffac858cadaaf6a30d9a003ba0a383c6f9a36dc4f0a18785096aca96e2"),
    "zero-augment": (
        ["zero-augment", "--family", "{file}", "--N", "2"],
        _ZERO_FAMILY,
        "a6a2a50e281211bee95d8de69aff45595e4cd344cf2b7f175585a33acdeb4fe3"),
    "shift": (
        ["shift", "--matrix", "{file}", "--window", "3"],
        _SHIFT,
        "d68387eb83e91f12a996b7f010351df415cdf659212e721988857dd51cf85d3a"),
    "hull-check-perms": (
        ["hull-check", "--matrix", "{file}", "--generators", "perms"],
        _HULL_PERMS,
        "4907d7a9341fdff17c537dae1f4b7de870f4d7779ac714695e1fa36c11682752"),
    "hull-check-sperms": (
        ["hull-check", "--matrix", "{file}", "--generators", "sperms"],
        _HULL_SPERMS,
        "4bdf46f6f09e27396e242dcb7824a45690622ae3fc4032f8e650dabfddac781d"),
    "hull-check-sperms-out": (
        ["hull-check", "--matrix", "{file}", "--generators", "sperms"],
        _HULL_SPERMS_OUT,
        "315fb96d1ecc6b2fa94eb66eb829cdf88abb6fb687f7d73406eedce16a8c6005"),
    "identity-check": (
        ["identity-check", "--m", "2", "--N", "4", "--trials", "3"],
        None,
        "030547c4c2d2641af7269cb31b64d891f82f55ce466bbc4e4fb39bb196ca1c8d"),
    "orbit": (
        ["orbit", "--m", "3", "--N", "4"],
        None,
        "7a0a8a26f87f0c498bfdc45d7adb3240a48d1fc205b0d0a52c221049c7a7ffb1"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_digest(name, tmp_path, capsys):
    argv, payload, digest = CASES[name]
    path = tmp_path / "payload.json"
    if payload is not None:
        path.write_text(json.dumps(payload))
    code = run([str(path) if a == "{file}" else a for a in argv])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
