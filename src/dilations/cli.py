"""Command line front end: JSON payloads in, deterministic JSON reports out.

Matrices arrive as {"rows": r, "cols": c, "data": [[...]]} with entries that
are ints, "num/den" strings (exact) or decimal literals (float); a payload
mixing the two is forced into float mode with a warning.  Reports carry the
command, an input hash, one entry per executed check and a summary; byte
identical inputs (seed included) produce byte identical reports.  Exit code
0 means every check passed, 1 a verification failure, 2 a malformed payload
or contract violation.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import random
import sys
from collections import Counter
from fractions import Fraction

from .builders import (WORD_CAP, ConvexCombination, build_n_dilation,
                       build_simultaneous_n_dilation, check_word, check_word_set,
                       rationalize_family, shift_dilation, verify_dilation,
                       zero_augment, zero_augment_targets)
from .cyclic import (check_orbit_identity, double_coset_count, lhs_word_sum,
                     orbit_partition, rhs_word_sum)
from .hull import (CONVEX, GENERATOR_CAP, SNAP_DENOMINATOR, SUBCONVEX,
                   hull_membership, permutation_generators,
                   signed_permutation_generators, snap_matrix)
from .isometries import decompose_contraction, rationalize_decomposition
from .linalg import EXACT, FLOAT64, OperatorMatrix, PNorm, operator_residual
from .schaffer import cross_validate, schaffer_dilation

DEFAULT_TOLERANCE = 1e-9
DEFAULT_SEED = 42
ENUMERATION_CAP = 10 ** 6     # words that orbit and identity-check may enumerate
_ORTHOGONALITY_TOL = 1e-10
_CROSS_TOL = 1e-6


class PayloadError(Exception):
    """Malformed input payload or a violated contract precondition."""


# ---------------------------------------------------------------------------
# payload parsing


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise PayloadError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise PayloadError(f"{path} is not valid JSON: {exc}") from exc


def _parse_scalar(x):
    """Return (kind, value): exact Fraction/int or float."""
    if isinstance(x, bool):
        raise PayloadError("booleans are not matrix entries")
    if isinstance(x, int):
        return EXACT, x
    if isinstance(x, float):
        if not math.isfinite(x):
            raise PayloadError(f"non-finite number {x!r}")
        return FLOAT64, x
    if isinstance(x, str):
        try:
            return EXACT, Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise PayloadError(f"bad rational literal {x!r}") from exc
    raise PayloadError(f"unsupported scalar {x!r}")


def _parse_matrix(obj) -> tuple[OperatorMatrix, bool]:
    """Matrix from the {"rows", "cols", "data"} schema; flags mixed payloads."""
    if not isinstance(obj, dict):
        raise PayloadError("matrix payload must be an object")
    missing = {"rows", "cols", "data"} - set(obj)
    if missing:
        raise PayloadError(f"matrix payload missing {sorted(missing)}")
    rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    if any(not isinstance(n, int) or isinstance(n, bool) for n in (rows, cols)):
        raise PayloadError("rows and cols must be integers")
    if not isinstance(data, list) or len(data) != rows:
        raise PayloadError("data must hold exactly `rows` rows")
    parsed, kinds = [], set()
    for row in data:
        if not isinstance(row, list) or len(row) != cols:
            raise PayloadError("every data row must hold exactly `cols` entries")
        entries = [_parse_scalar(x) for x in row]
        kinds.update(kind for kind, _ in entries)
        parsed.append([val for _, val in entries])
    if FLOAT64 in kinds:
        return OperatorMatrix([[float(x) for x in r] for r in parsed]), EXACT in kinds
    return OperatorMatrix(parsed), False


def _parse_matrices(entries) -> tuple[list[OperatorMatrix], list[str]]:
    """Matrices of one mode: a float entry anywhere forces them all to float."""
    parsed = [_parse_matrix(entry) for entry in entries]
    mats = [mat for mat, _ in parsed]
    if all(mat.mode == EXACT for mat in mats):
        return mats, []
    warnings = []
    if any(mixed for _, mixed in parsed) or any(mat.mode == EXACT for mat in mats):
        warnings.append("payload mixes exact and float entries; forcing float mode")
    return [mat.to_float() for mat in mats], warnings


def _load_matrix(path: str) -> tuple[object, OperatorMatrix, list[str]]:
    """The payload at `path`, its one matrix, and the mixed-entries warning if due."""
    payload = _load_json(path)
    mat, mixed = _parse_matrix(payload)
    return payload, mat, (["matrix mixes exact and float entries; forcing float mode"]
                          if mixed else [])


def _parse_weight(x) -> Fraction:
    kind, val = _parse_scalar(x)
    if kind != EXACT:
        raise PayloadError(f"weights must be exact rationals, got {x!r}")
    return Fraction(val)


def _resolve_p(payload_p, flag_p) -> PNorm:
    if payload_p is not None and flag_p is not None and str(payload_p) != str(flag_p):
        raise PayloadError(f"payload p={payload_p!r} conflicts with --p {flag_p!r}")
    chosen = flag_p if flag_p is not None else payload_p
    if chosen is None:
        chosen = "2"
    try:
        return PNorm.parse(chosen)
    except (ValueError, ZeroDivisionError) as exc:
        raise PayloadError(f"bad p value {chosen!r}: {exc}") from exc


def _combination_fields(obj, flag_p) -> tuple[PNorm, list, list, list | None]:
    """A combination payload's p, and its isometry, weight and label lists, unparsed."""
    if not isinstance(obj, dict):
        raise PayloadError("combination payload must be an object")
    if "isometries" not in obj or "weights" not in obj:
        raise PayloadError("combination payload needs 'isometries' and 'weights'")
    labels = obj.get("labels")
    if (not isinstance(obj["isometries"], list) or not isinstance(obj["weights"], list)
            or not isinstance(labels, (list, type(None)))):
        raise PayloadError("combination payload's 'isometries', 'weights' and 'labels' "
                           "must be lists")
    return _resolve_p(obj.get("p"), flag_p), obj["isometries"], obj["weights"], labels


def _combination(mats, weights, labels) -> ConvexCombination:
    """The combination of parsed matrices with the payload's weights and labels."""
    weights = [_parse_weight(w) for w in weights]
    if labels is not None:
        labels = tuple(str(x) for x in labels)
    try:
        return ConvexCombination(tuple(mats), tuple(weights), labels)
    except ValueError as exc:
        raise PayloadError(f"bad combination: {exc}") from exc


def _parse_combination(obj, flag_p) -> tuple[ConvexCombination, PNorm, list[str]]:
    p, isometries, weights, labels = _combination_fields(obj, flag_p)
    mats, warnings = _parse_matrices(isometries)
    return _combination(mats, weights, labels), p, warnings


def _members(payload, kind: str) -> dict:
    """The 'members' object of a family payload, mapping names to `kind`."""
    if not isinstance(payload, dict) or "members" not in payload:
        raise PayloadError("family payload needs a 'members' object")
    if not isinstance(payload["members"], dict):
        raise PayloadError(f"'members' must map names to {kind}")
    return payload["members"]


# ---------------------------------------------------------------------------
# report plumbing


def _fmt_exact(x) -> str:
    return str(Fraction(x))


def _matrix_doc(mat: OperatorMatrix):
    data = mat.entries()
    if mat.mode == EXACT:
        data = [[_fmt_exact(x) for x in row] for row in data]
    return {"rows": mat.rows, "cols": mat.cols, "data": data}


def _check(name: str, residual: float, passed: bool, word=None, **extra):
    entry = {"check": name, "residual": residual, "pass": bool(passed)}
    if word is not None:
        entry["word"] = list(word)
    entry.update(extra)
    return entry


def _flag(name: str, passed: bool):
    """A yes/no check: residual 0.0 when it holds, 1.0 when it does not."""
    return _check(name, 0.0 if passed else 1.0, passed)


_escape = json.encoder.encode_basestring_ascii     # json's C string escaper


def _float(o: float) -> str:
    if o != o:
        return "NaN"
    if o == math.inf:
        return "Infinity"
    if o == -math.inf:
        return "-Infinity"
    return float.__repr__(o)


def _key(k) -> str:
    """A dict key as json spells it, before escaping."""
    if isinstance(k, str):
        return k
    if k is None or isinstance(k, (int, float)):
        return _dumps(k, "")
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _dumps(o, nl: str) -> str:
    """json.dumps(o, indent=2, sort_keys=True), byte for byte, for `o` at the
    level whose line break and indent is `nl`.  json's indented encoder is
    pure Python; this one joins each container once and escapes strings in C."""
    t = type(o)
    if t is str:
        return _escape(o)
    if t is float:
        return _float(o)
    if t is int:
        return int.__repr__(o)
    if t is bool or o is None:
        return "true" if o is True else "false" if o is False else "null"
    if t is not dict and t is not list and t is not tuple:
        # subclasses, in json's order; anything else json refuses too
        if isinstance(o, str):
            return _escape(o)
        if isinstance(o, int):
            return int.__repr__(o)
        if isinstance(o, float):
            return _float(o)
        if not isinstance(o, (list, tuple, dict)):
            raise TypeError(f"Object of type {t.__name__} is not JSON serializable")
    if not o:
        return "{}" if isinstance(o, dict) else "[]"
    inner = nl + "  "    # members inline the str case: it saves a call per word label
    if isinstance(o, dict):
        return "{" + inner + ("," + inner).join([
            _escape(k if type(k) is str else _key(k)) + ": "
            + (_escape(v) if type(v) is str else _dumps(v, inner))
            for k, v in sorted(o.items())]) + nl + "}"
    return "[" + inner + ("," + inner).join([
        _escape(v) if type(v) is str else _dumps(v, inner) for v in o]) + nl + "]"


def _emit(args, payload, params: dict, mode: str, results: list, provenance: dict,
          warnings) -> int:
    """Hash the inputs, then write the report to --out or stdout; the exit code."""
    canon = json.dumps({"command": args.command, "payload": payload, "params": params},
                       sort_keys=True, separators=(",", ":"))
    in_contract = [r for r in results if r.get("in_contract", True)]
    passed = all(r["pass"] for r in in_contract)
    doc = {
        "command": args.command,
        "inputs": {"hash": "sha256:" + hashlib.sha256(canon.encode("utf-8")).hexdigest(),
                   "mode": mode},
        "results": results,
        "summary": {"max_residual": max((r["residual"] for r in in_contract), default=0.0),
                    "pass": passed},
        "provenance": provenance,
    }
    if warnings:
        doc["warnings"] = sorted(set(warnings))
    text = _dumps(doc, "\n") + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if passed else 1


def _verify_report(args, payload, params: dict, triple, targets, warnings,
                   n_guarantee: int, max_len=None, words=None, **provenance) -> int:
    """Emit one word check per verify_dilation word, under the command's
    tolerance, seed and word cap; `provenance` adds to the shared keys."""
    vr = verify_dilation(triple, targets, max_len, tolerance=args.tolerance,
                         seed=args.seed, word_cap=args.word_cap, words=words)
    results = [_check("word", c.residual, c.passed, word=c.word, in_contract=c.in_contract)
               for c in vr.checks]
    provenance.update(space_dim=triple.space.dim, n_guarantee=n_guarantee)
    provenance.setdefault("caps", {})["word_cap"] = args.word_cap
    return _emit(args, payload, params, triple.mode, results, provenance, warnings)


# ---------------------------------------------------------------------------
# commands


def _cmd_build(args) -> int:
    payload = _load_json(args.combo)
    combo, p, warnings = _parse_combination(payload, args.p)
    params = {"N": args.N, "p": str(p), "label": args.label}
    triple = build_n_dilation(combo, args.N, p, label=args.label)
    composed = check_word(triple, {args.label: combo.operator()}, (), args.tolerance)
    results = [_check("compose-identity", composed.residual, composed.passed, word=[])]
    provenance = {
        "space_dim": triple.space.dim,
        "block_count": combo.m ** args.N,
        "n_guarantee": args.N,
        "caps": {"word_cap": WORD_CAP},
        "structure": triple.space.structure,
    }
    return _emit(args, payload, params, triple.mode, results, provenance, warnings)


def _parse_word(text: str, triple) -> tuple[str, ...]:
    word = tuple(w for w in text.split(",") if w)
    for lbl in word:
        if lbl not in triple.U_family:
            raise PayloadError(f"unknown label {lbl!r} in word {text!r}")
    return word


def _cmd_verify(args) -> int:
    payload = _load_json(args.combo)
    combo, p, warnings = _parse_combination(payload, args.p)
    if (args.all_up_to is None) == (not args.word):
        raise PayloadError("give exactly one of --all-up-to n and --word (repeatable)")
    params = {"N": args.N, "p": str(p), "label": args.label,
              "all_up_to": args.all_up_to, "words": args.word,
              "tolerance": args.tolerance, "seed": args.seed,
              "word_cap": args.word_cap}
    if args.all_up_to is not None:
        check_word_set(1, args.all_up_to, args.word_cap)
    triple = build_n_dilation(combo, args.N, p, label=args.label)
    words = [_parse_word(text, triple) for text in args.word] if args.word else None
    return _verify_report(args, payload, params, triple, {args.label: combo.operator()},
                          warnings, args.N, args.all_up_to, words)


def _cmd_simultaneous(args) -> int:
    payload = _load_json(args.family)
    members = _members(payload, "combinations")
    p = _resolve_p(payload.get("p"), args.p)
    fields = {}
    for name, obj in members.items():
        if not isinstance(obj, dict):
            raise PayloadError(f"member {name!r} must be a combination object")
        fields[name] = _combination_fields(obj, str(p.p))[1:]
    # one parse for the whole family, so a float entry anywhere makes it all float
    mats, warnings = _parse_matrices([m for isos, _, _ in fields.values() for m in isos])
    family, at = {}, 0
    for name, (isos, weights, labels) in fields.items():
        family[name] = _combination(mats[at:at + len(isos)], weights, labels)
        at += len(isos)
    params = {"N": args.N, "p": str(p), "m_cap": args.m_cap,
              "tolerance": args.tolerance, "seed": args.seed}
    check_word_set(len(family), args.N, args.word_cap)
    rationalized = rationalize_family(family, args.N, m_cap=args.m_cap)
    triple = build_simultaneous_n_dilation(rationalized, args.N, p)
    targets = {name: combo.operator() for name, combo in family.items()}
    return _verify_report(args, payload, params, triple, targets, warnings, args.N, args.N,
                          common_m=next(iter(rationalized.values())).m,
                          caps={"m_cap": args.m_cap})


def _cmd_zero_augment(args) -> int:
    payload = _load_json(args.family)
    entries = _members(payload, "matrices")
    mats, warnings = _parse_matrices(entries.values())
    members = dict(zip(entries, mats))
    p = _resolve_p(payload.get("p"), args.p)
    params = {"N": args.N, "p": str(p), "tolerance": args.tolerance,
              "seed": args.seed}
    check_word_set(len(members) + ("0" not in members), args.N, args.word_cap)
    triple = zero_augment(members, args.N, p)
    return _verify_report(args, payload, params, triple, zero_augment_targets(members),
                          warnings, args.N, args.N)


def _cmd_shift(args) -> int:
    payload, mat, warnings = _load_matrix(args.matrix)
    params = {"window": args.window, "tolerance": args.tolerance,
              "seed": args.seed}
    check_word_set(1, args.window, args.word_cap)
    triple = shift_dilation(mat, args.window)
    return _verify_report(args, payload, params, triple, {"T": mat}, warnings,
                          args.window, args.window, one_norm=float(mat.one_norm()))


def _cmd_decompose(args) -> int:
    payload, mat, warnings = _load_matrix(args.matrix)
    params = {"max_denominator": args.max_denominator,
              "tolerance": args.tolerance}
    decomp = decompose_contraction(mat)
    snapped, snap_err = rationalize_decomposition(decomp, args.max_denominator)
    recon_res = operator_residual(decomp.reconstruct(), mat.to_float())
    weight_res = abs(sum(decomp.weights) - 1.0)
    results = [
        _check("reconstruction", float(recon_res), recon_res <= args.tolerance),
        _check("weight-sum", float(weight_res), weight_res <= 1e-12),
        _check("weight-snap", float(snap_err), snap_err <= args.tolerance),
    ]
    provenance = {
        "term_count": len(decomp.terms),
        "weights": [float(w) for w in decomp.weights],
        "snapped_weights": [_fmt_exact(w) for w in snapped],
        "caps": {"max_denominator": args.max_denominator},
    }
    return _emit(args, payload, params, FLOAT64, results, provenance, warnings)


def _load_generators(spec_text: str, d: int):
    """The generators, their names, and what the input hash covers: a preset's
    name, or the loaded document of a generator file (not its path)."""
    if spec_text == "perms":
        return (*permutation_generators(d), spec_text)
    if spec_text == "sperms":
        return (*signed_permutation_generators(d), spec_text)
    payload = _load_json(spec_text)
    if isinstance(payload, dict) and "generators" in payload:
        entries = payload["generators"]
        names = payload.get("names")
    elif isinstance(payload, list):
        entries, names = payload, None
    else:
        raise PayloadError("generator payload must be a list or {'generators': [...]}")
    if not isinstance(entries, list):
        raise PayloadError("'generators' must be a list of matrices")
    if names is not None and not isinstance(names, list):
        raise PayloadError("'names' must be a list of generator names")
    if len(entries) > GENERATOR_CAP:
        raise PayloadError(f"generator count {len(entries)} exceeds cap {GENERATOR_CAP}")
    mats = []
    for entry in entries:
        mat, _ = _parse_matrix(entry)
        if mat.mode != EXACT:
            raise PayloadError("generators must be exact")
        mats.append(mat)
    if names is None:
        names = [f"G{i}" for i in range(len(mats))]
    return mats, [str(n) for n in names], payload


def _certificate_doc(cert):
    doc = {
        "functional": _matrix_doc(cert.functional),
        "functional_bound": _fmt_exact(cert.functional_bound),
        "violation": _fmt_exact(cert.violation),
    }
    if cert.has_pair:
        doc["u"] = [_fmt_exact(x) for x in cert.u]
        doc["v"] = [_fmt_exact(x) for x in cert.v]
        doc["bound"] = _fmt_exact(cert.bound)
        doc["value"] = _fmt_exact(cert.value)
    doc["min_slack"] = _fmt_exact(min(cert.slacks)) if cert.slacks else "0"
    return doc


def _cmd_hull_check(args) -> int:
    payload, mat, warnings = _load_matrix(args.matrix)
    snap_error = 0.0
    if mat.mode == FLOAT64:
        mat, snap_error = snap_matrix(mat, args.max_denominator)
        warnings.append("float matrix snapped to the rational grid")
    gens, names, generators = _load_generators(args.generators, mat.rows)
    params = {"generators": generators, "mode": args.mode,
              "max_denominator": args.max_denominator}
    outcome = hull_membership(mat, gens, mode=args.mode, names=names)
    membership = {"status": outcome.status, "mode": outcome.mode}
    if outcome.member:
        membership["coefficients"] = {
            name: _fmt_exact(w) for name, w in outcome.coefficients.items() if w}
        if outcome.slack is not None:
            membership["slack"] = _fmt_exact(outcome.slack)
        results = [_flag("membership-reconstruction", True)]
    else:
        membership["certificate"] = _certificate_doc(outcome.certificate)
        results = [_flag("separation-certificate", True)]
    provenance = {
        "generator_count": len(gens),
        "snap_error": snap_error,
        "membership": membership,
        "caps": {"generator_cap": GENERATOR_CAP,
                 "max_denominator": args.max_denominator},
    }
    return _emit(args, payload, params, EXACT, results, provenance, warnings)


def _check_enumeration(m: int, N: int, per_index: int):
    """Refuse, before enumerating, per_index * m^N words over ENUMERATION_CAP.

    For m >= 2 the count at least doubles with each slot, so the power is
    taken to at most the cap's bit length and a huge N is refused at once.
    """
    if m < 1 or N < 1:
        raise PayloadError("m and N must be positive")
    if per_index * m ** min(N, ENUMERATION_CAP.bit_length()) > ENUMERATION_CAP:
        raise PayloadError(f"{m}^{N} multi-indices give over {ENUMERATION_CAP} "
                           "words to enumerate")


def _partition_checks(partition, m: int, N: int) -> list[dict]:
    """Orbit-stabilizer product and partition total of the cyclic orbits on m^N indices."""
    return [
        _flag("orbit-stabilizer-product",
              all(o.size * o.stabilizer_size == N for o in partition.orbits)),
        _flag("partition-total", partition.total == m ** N),
    ]


def _cmd_identity_check(args) -> int:
    if args.trials < 0:
        raise PayloadError("--trials must be nonnegative")
    _check_enumeration(args.m, args.N, (args.trials + 1) * (args.N + 1) * args.N)
    params = {"m": args.m, "N": args.N, "trials": args.trials,
              "seed": args.seed}
    rng = random.Random(args.seed)
    trials = [[Fraction(1, args.m)] * args.m]
    for _ in range(args.trials):
        raw = [rng.randint(1, 9) for _ in range(args.m)]
        trials.append([Fraction(a, sum(raw)) for a in raw])
    results = []
    for t, weights in enumerate(trials):
        kind = "uniform" if t == 0 else f"trial-{t}"
        for n in range(args.N + 1):
            diff = lhs_word_sum(args.m, args.N, n, weights) \
                - rhs_word_sum(args.m, args.N, n, weights)
            residual = max((abs(float(c)) for _, c in diff.terms()), default=0.0)
            results.append(_check(f"word-sum {kind} n={n}", residual,
                                  residual == 0.0))
    partition = orbit_partition(args.m, args.N)
    for n in range(args.N + 1):
        results.append(_flag(f"orbit-identity n={n}", all(
            check_orbit_identity(orbit, n) for orbit in partition.orbits)))
    results += _partition_checks(partition, args.m, args.N)
    results.append(_flag("product-fibres-uniform", double_coset_count(args.N).uniform))
    provenance = {
        "orbit_count": len(partition.orbits),
        "caps": {},
        "n_guarantee": args.N,
    }
    return _emit(args, None, params, EXACT, results, provenance, [])


def _cmd_oracle(args) -> int:
    payload, mat, warnings = _load_matrix(args.matrix)
    params = {"N": args.N, "cross": bool(args.cross),
              "tolerance": args.tolerance}
    dil = schaffer_dilation(mat, args.N)
    ortho = dil.orthogonality_defect()
    results = [_check("orthogonality", ortho, ortho <= _ORTHOGONALITY_TOL)]
    base = mat.to_float()
    power = OperatorMatrix.identity(base.rows, FLOAT64)
    for n in range(args.N + 1):
        res = operator_residual(dil.compression(n), power)
        results.append(_check(f"compression n={n}", res, res <= args.tolerance))
        power = power @ base
    provenance = {
        "space_dim": dil.U.rows,
        "n_guarantee": args.N,
        "caps": {},
    }
    if args.cross:
        report = cross_validate(mat, args.N)
        for n, res in enumerate(report.decomposition_residuals):
            results.append(_check(f"cross-decomposition n={n}", res,
                                  res <= _CROSS_TOL))
        provenance["cross"] = {
            "weight_sum": report.weight_sum,
            "reconstruction_error": report.reconstruction_error,
            "rationalization_error": report.rationalization_error,
        }
    return _emit(args, payload, params, FLOAT64, results, provenance, warnings)


def _cmd_orbit(args) -> int:
    _check_enumeration(args.m, args.N, args.N)
    params = {"m": args.m, "N": args.N}
    partition = orbit_partition(args.m, args.N)
    results = [_flag("orbit-sizes-divide",
                     all(args.N % o.size == 0 for o in partition.orbits))]
    results += _partition_checks(partition, args.m, args.N)
    provenance = {
        "orbit_count": len(partition.orbits),
        "size_histogram": dict(Counter(str(o.size) for o in partition.orbits)),
        "caps": {},
    }
    return _emit(args, None, params, EXACT, results, provenance, [])


# ---------------------------------------------------------------------------
# argument wiring

# options that several commands share, as (flag, add_argument keywords)
_N = ("--N", {"type": int, "required": True})
_P = ("--p", {"default": None})
_LABEL = ("--label", {"default": "T"})
_WORD_CAP = ("--word-cap", {"type": int, "default": WORD_CAP})
_MATRIX = ("--matrix", {"required": True})
_FAMILY = ("--family", {"required": True})
_M = ("--m", {"type": int, "required": True})
_COMMON = (
    ("--out", {"default": None, "help": "write the report here instead of stdout"}),
    ("--tolerance", {"type": float, "default": DEFAULT_TOLERANCE}),
    ("--seed", {"type": int, "default": DEFAULT_SEED}),
)

# (name, handler, help, options before the common ones)
_COMMANDS = (
    ("build", _cmd_build, "build a dilation and check Q J = I", (
        ("--combo", {"required": True, "help": "combination payload (JSON)"}),
        _N, _P, _LABEL)),
    ("verify", _cmd_verify, "check compressed words against powers", (
        ("--combo", {"required": True}), _N, _P, _LABEL,
        ("--all-up-to", {"type": int, "default": None}),
        ("--word", {"action": "append", "default": [],
                    "help": "explicit comma-separated label word; repeatable"}),
        _WORD_CAP)),
    ("simultaneous", _cmd_simultaneous, "one dilation for a family of combinations", (
        _FAMILY, _N, _P, ("--m-cap", {"type": int, "default": 64}), _WORD_CAP)),
    ("zero-augment", _cmd_zero_augment, "adjoin the zero operator to an isometry family",
     (_FAMILY, _N, _P, _WORD_CAP)),
    ("shift", _cmd_shift, "cyclic shift dilation of an l^1 contraction", (
        _MATRIX, ("--window", {"type": int, "required": True}), _WORD_CAP)),
    ("decompose", _cmd_decompose, "write a contraction as a combination of orthogonals", (
        _MATRIX, ("--max-denominator", {"type": int, "default": 10 ** 9}))),
    ("hull-check", _cmd_hull_check, "membership in the (sub)convex hull of generators", (
        _MATRIX,
        ("--generators", {"required": True, "help": "'perms', 'sperms', or a JSON file"}),
        ("--mode", {"choices": [CONVEX, SUBCONVEX], "default": CONVEX}),
        ("--max-denominator", {"type": int, "default": SNAP_DENOMINATOR}))),
    ("identity-check", _cmd_identity_check, "cyclic word-sum and orbit identities", (
        _M, _N, ("--trials", {"type": int, "default": 10}))),
    ("oracle", _cmd_oracle, "classical block-unitary dilation checks", (
        _MATRIX, _N,
        ("--cross", {"action": "store_true",
                     "help": "also run the decomposition route and compare"}))),
    ("orbit", _cmd_orbit, "cyclic-shift orbit structure report", (_M, _N)),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dilations",
        description="Exact dilation constructions for combinations of l^p isometries")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, func, text, options in _COMMANDS:
        sub = subs.add_parser(name, help=text)
        for flag, spec in options + _COMMON:
            sub.add_argument(flag, **spec)
        sub.set_defaults(func=func)
    return parser


# one parser per process, built by the first run: parse_args leaves it unchanged
_parser = functools.cache(build_parser)


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
            raise PayloadError(f"--tolerance must be finite and nonnegative, "
                               f"got {args.tolerance!r}")
        return args.func(args)
    except (PayloadError, ValueError) as exc:
        # ValueError covers ModeError: the library's refusals of an input
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


def entrypoint():
    sys.exit(run())


if __name__ == "__main__":
    entrypoint()
