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
import hashlib
import json
import math
import random
import sys
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
    parsed = []
    saw_exact = saw_float = False
    for row in data:
        if not isinstance(row, list) or len(row) != cols:
            raise PayloadError("every data row must hold exactly `cols` entries")
        out = []
        for x in row:
            kind, val = _parse_scalar(x)
            if kind == EXACT:
                saw_exact = True
            else:
                saw_float = True
            out.append(val)
        parsed.append(out)
    mixed = saw_exact and saw_float
    if saw_float:
        return OperatorMatrix([[float(x) for x in r] for r in parsed]), mixed
    return OperatorMatrix(parsed), False


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
    except ValueError as exc:
        raise PayloadError(f"bad p value {chosen!r}: {exc}") from exc


def _parse_combination(obj, flag_p) -> tuple[ConvexCombination, PNorm, list[str]]:
    if not isinstance(obj, dict):
        raise PayloadError("combination payload must be an object")
    if "isometries" not in obj or "weights" not in obj:
        raise PayloadError("combination payload needs 'isometries' and 'weights'")
    labels = obj.get("labels")
    if (not isinstance(obj["isometries"], list) or not isinstance(obj["weights"], list)
            or not isinstance(labels, (list, type(None)))):
        raise PayloadError("combination payload's 'isometries', 'weights' and 'labels' "
                           "must be lists")
    warnings: list[str] = []
    p = _resolve_p(obj.get("p"), flag_p)
    mats, any_float, any_mixed = [], False, False
    for entry in obj["isometries"]:
        mat, mixed = _parse_matrix(entry)
        any_mixed = any_mixed or mixed
        any_float = any_float or mat.mode == FLOAT64
        mats.append(mat)
    if any_float:
        if any_mixed or any(m.mode == EXACT for m in mats):
            warnings.append("payload mixes exact and float entries; forcing float mode")
        mats = [m.to_float() for m in mats]
    weights = [_parse_weight(w) for w in obj["weights"]]
    if labels is not None:
        labels = tuple(str(x) for x in labels)
    try:
        combo = ConvexCombination(tuple(mats), tuple(weights), labels)
    except ValueError as exc:
        raise PayloadError(f"bad combination: {exc}") from exc
    return combo, p, warnings


def _parse_member_matrices(obj) -> tuple[dict[str, OperatorMatrix], PNorm, list[str]]:
    if not isinstance(obj, dict) or "members" not in obj:
        raise PayloadError("family payload needs a 'members' object")
    if not isinstance(obj["members"], dict):
        raise PayloadError("'members' must map names to matrices")
    warnings: list[str] = []
    out: dict[str, OperatorMatrix] = {}
    saw_float = saw_mixed = False
    for name in obj["members"]:
        mat, mixed = _parse_matrix(obj["members"][name])
        saw_mixed = saw_mixed or mixed
        saw_float = saw_float or mat.mode == FLOAT64
        out[name] = mat
    if saw_float:
        if saw_mixed or any(v.mode == EXACT for v in out.values()):
            warnings.append("payload mixes exact and float entries; forcing float mode")
        out = {k: v.to_float() for k, v in out.items()}
    return out, obj, warnings


# ---------------------------------------------------------------------------
# report plumbing


def _hash_inputs(command: str, payload, params: dict) -> str:
    doc = {"command": command, "payload": payload, "params": params}
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _fmt_exact(x) -> str:
    return str(Fraction(x))


def _matrix_doc(mat: OperatorMatrix):
    if mat.mode == EXACT:
        data = [[_fmt_exact(x) for x in row] for row in mat._data]
    else:
        data = [[float(x) for x in mat.row_entries(i)] for i in range(mat.rows)]
    return {"rows": mat.rows, "cols": mat.cols, "data": data}


def _check(name: str, residual: float, passed: bool, word=None, **extra):
    entry = {"check": name, "residual": residual, "pass": bool(passed)}
    if word is not None:
        entry["word"] = list(word)
    entry.update(extra)
    return entry


def _word_results(checks) -> list[dict]:
    return [
        _check("word", c.residual, c.passed, word=c.word, in_contract=c.in_contract)
        for c in checks
    ]


def _assemble(command, input_hash, mode, results, provenance, warnings):
    in_contract = [r for r in results if r.get("in_contract", True)]
    max_residual = max((r["residual"] for r in in_contract), default=0.0)
    passed = all(r["pass"] for r in in_contract)
    doc = {
        "command": command,
        "inputs": {"hash": input_hash, "mode": mode},
        "results": results,
        "summary": {"max_residual": max_residual, "pass": passed},
        "provenance": provenance,
    }
    if warnings:
        doc["warnings"] = sorted(set(warnings))
    return doc


def _emit(doc, out_path) -> int:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if doc["summary"]["pass"] else 1


# ---------------------------------------------------------------------------
# commands


def _cmd_build(args) -> int:
    payload = _load_json(args.combo)
    combo, p, warnings = _parse_combination(payload, args.p)
    params = {"N": args.N, "p": str(p), "label": args.label}
    input_hash = _hash_inputs("build", payload, params)
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
    return _emit(_assemble("build", input_hash, triple.mode, results,
                           provenance, warnings), args.out)


def _parse_word(text: str, triple) -> tuple[str, ...]:
    word = tuple(w for w in text.split(",") if w)
    for lbl in word:
        if lbl not in triple.U_family:
            raise PayloadError(f"unknown label {lbl!r} in word {text!r}")
    return word


def _verify(triple, targets, args, max_len=None, words=None):
    """verify_dilation with the command's tolerance, seed and word cap."""
    return verify_dilation(triple, targets, max_len, tolerance=args.tolerance,
                           seed=args.seed, word_cap=args.word_cap, words=words)


def _cmd_verify(args) -> int:
    payload = _load_json(args.combo)
    combo, p, warnings = _parse_combination(payload, args.p)
    if (args.all_up_to is None) == (not args.word):
        raise PayloadError("give exactly one of --all-up-to n and --word (repeatable)")
    params = {"N": args.N, "p": str(p), "label": args.label,
              "all_up_to": args.all_up_to, "words": args.word,
              "tolerance": args.tolerance, "seed": args.seed,
              "word_cap": args.word_cap}
    input_hash = _hash_inputs("verify", payload, params)
    if args.all_up_to is not None:
        check_word_set(1, args.all_up_to, args.word_cap)
    triple = build_n_dilation(combo, args.N, p, label=args.label)
    targets = {args.label: combo.operator()}
    if args.word:
        vr = _verify(triple, targets, args,
                     words=[_parse_word(text, triple) for text in args.word])
    else:
        vr = _verify(triple, targets, args, args.all_up_to)
    results = _word_results(vr.checks)
    provenance = {
        "space_dim": triple.space.dim,
        "n_guarantee": args.N,
        "caps": {"word_cap": args.word_cap},
    }
    return _emit(_assemble("verify", input_hash, triple.mode, results,
                           provenance, warnings), args.out)


def _cmd_simultaneous(args) -> int:
    payload = _load_json(args.family)
    if not isinstance(payload, dict) or "members" not in payload:
        raise PayloadError("family payload needs a 'members' object")
    if not isinstance(payload["members"], dict):
        raise PayloadError("'members' must map names to combinations")
    p = _resolve_p(payload.get("p"), args.p)
    warnings: list[str] = []
    family = {}
    for name in payload["members"]:
        if not isinstance(payload["members"][name], dict):
            raise PayloadError(f"member {name!r} must be a combination object")
        member = dict(payload["members"][name])
        member.setdefault("p", str(p.p))
        combo, _, w = _parse_combination(member, str(p.p))
        warnings.extend(w)
        family[name] = combo
    params = {"N": args.N, "p": str(p), "m_cap": args.m_cap,
              "tolerance": args.tolerance, "seed": args.seed}
    input_hash = _hash_inputs("simultaneous", payload, params)
    check_word_set(len(family), args.N, args.word_cap)
    rationalized = rationalize_family(family, m_cap=args.m_cap)
    triple = build_simultaneous_n_dilation(rationalized, args.N, p)
    targets = {name: combo.operator() for name, combo in family.items()}
    vr = _verify(triple, targets, args, args.N)
    results = _word_results(vr.checks)
    provenance = {
        "space_dim": triple.space.dim,
        "n_guarantee": args.N,
        "common_m": next(iter(rationalized.values())).m,
        "caps": {"word_cap": args.word_cap, "m_cap": args.m_cap},
    }
    return _emit(_assemble("simultaneous", input_hash, triple.mode, results,
                           provenance, warnings), args.out)


def _cmd_zero_augment(args) -> int:
    payload = _load_json(args.family)
    members, raw, warnings = _parse_member_matrices(payload)
    p = _resolve_p(raw.get("p"), args.p)
    params = {"N": args.N, "p": str(p), "tolerance": args.tolerance,
              "seed": args.seed}
    input_hash = _hash_inputs("zero-augment", payload, params)
    check_word_set(len(members) + ("0" not in members), args.N, args.word_cap)
    triple = zero_augment(members, args.N, p)
    targets = zero_augment_targets(members)
    vr = _verify(triple, targets, args, args.N)
    results = _word_results(vr.checks)
    provenance = {
        "space_dim": triple.space.dim,
        "n_guarantee": args.N,
        "caps": {"word_cap": args.word_cap},
    }
    return _emit(_assemble("zero-augment", input_hash, triple.mode, results,
                           provenance, warnings), args.out)


def _cmd_shift(args) -> int:
    payload = _load_json(args.matrix)
    mat, mixed = _parse_matrix(payload)
    warnings = ["matrix mixes exact and float entries; forcing float mode"] if mixed else []
    params = {"window": args.window, "tolerance": args.tolerance,
              "seed": args.seed}
    input_hash = _hash_inputs("shift", payload, params)
    check_word_set(1, args.window, args.word_cap)
    triple = shift_dilation(mat, args.window)
    vr = _verify(triple, {"T": mat}, args, args.window)
    results = _word_results(vr.checks)
    provenance = {
        "space_dim": triple.space.dim,
        "n_guarantee": args.window,
        "one_norm": float(mat.one_norm()),
        "caps": {"word_cap": args.word_cap},
    }
    return _emit(_assemble("shift", input_hash, triple.mode, results,
                           provenance, warnings), args.out)


def _cmd_decompose(args) -> int:
    payload = _load_json(args.matrix)
    mat, mixed = _parse_matrix(payload)
    warnings = ["matrix mixes exact and float entries; forcing float mode"] if mixed else []
    params = {"max_denominator": args.max_denominator,
              "tolerance": args.tolerance}
    input_hash = _hash_inputs("decompose", payload, params)
    decomp = decompose_contraction(mat)
    snapped, snap_err = rationalize_decomposition(decomp, args.max_denominator)
    recon_res = operator_residual(decomp.reconstruct(),
                                  mat.to_float() if mat.mode == EXACT else mat)
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
    return _emit(_assemble("decompose", input_hash, FLOAT64, results,
                           provenance, warnings), args.out)


def _load_generators(spec_text: str, d: int):
    if spec_text == "perms":
        return permutation_generators(d)
    if spec_text == "sperms":
        return signed_permutation_generators(d)
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
    return mats, [str(n) for n in names]


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
    payload = _load_json(args.matrix)
    mat, mixed = _parse_matrix(payload)
    warnings = ["matrix mixes exact and float entries; forcing float mode"] if mixed else []
    params = {"generators": args.generators, "mode": args.mode,
              "max_denominator": args.max_denominator}
    input_hash = _hash_inputs("hull-check", payload, params)
    snap_error = 0.0
    if mat.mode == FLOAT64:
        mat, snap_error = snap_matrix(mat, args.max_denominator)
        warnings.append("float matrix snapped to the rational grid")
    gens, names = _load_generators(args.generators, mat.rows)
    outcome = hull_membership(mat, gens, mode=args.mode, names=names)
    membership = {"status": outcome.status, "mode": outcome.mode}
    if outcome.member:
        membership["coefficients"] = {
            name: _fmt_exact(w) for name, w in outcome.coefficients.items() if w}
        if outcome.slack is not None:
            membership["slack"] = _fmt_exact(outcome.slack)
        results = [_check("membership-reconstruction", 0.0, True)]
    else:
        membership["certificate"] = _certificate_doc(outcome.certificate)
        results = [_check("separation-certificate", 0.0, True)]
    provenance = {
        "generator_count": len(gens),
        "snap_error": snap_error,
        "membership": membership,
        "caps": {"generator_cap": GENERATOR_CAP,
                 "max_denominator": args.max_denominator},
    }
    return _emit(_assemble("hull-check", input_hash, EXACT, results,
                           provenance, warnings), args.out)


def _random_weights(m: int, rng: random.Random) -> list[Fraction]:
    raw = [rng.randint(1, 9) for _ in range(m)]
    total = sum(raw)
    return [Fraction(a, total) for a in raw]


def _word_sum_residual(diff) -> float:
    if not diff:
        return 0.0
    return max(abs(float(c)) for _, c in diff.terms())


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


def _cmd_identity_check(args) -> int:
    if args.trials < 0:
        raise PayloadError("--trials must be nonnegative")
    _check_enumeration(args.m, args.N, (args.trials + 1) * (args.N + 1) * args.N)
    params = {"m": args.m, "N": args.N, "trials": args.trials,
              "seed": args.seed}
    input_hash = _hash_inputs("identity-check", None, params)
    rng = random.Random(args.seed)
    trials = [[Fraction(1, args.m)] * args.m]
    trials += [_random_weights(args.m, rng) for _ in range(args.trials)]
    results = []
    for t, weights in enumerate(trials):
        kind = "uniform" if t == 0 else f"trial-{t}"
        for n in range(args.N + 1):
            diff = lhs_word_sum(args.m, args.N, n, weights) \
                - rhs_word_sum(args.m, args.N, n, weights)
            residual = _word_sum_residual(diff)
            results.append(_check(f"word-sum {kind} n={n}", residual,
                                  residual == 0.0))
    partition = orbit_partition(args.m, args.N)
    for n in range(args.N + 1):
        ok = all(check_orbit_identity(orbit, n) for orbit in partition.orbits)
        results.append(_check(f"orbit-identity n={n}", 0.0 if ok else 1.0, ok))
    sizes_ok = all(o.size * o.stabilizer_size == args.N for o in partition.orbits)
    results.append(_check("orbit-stabilizer-product",
                          0.0 if sizes_ok else 1.0, sizes_ok))
    total_ok = partition.total == args.m ** args.N
    results.append(_check("partition-total", 0.0 if total_ok else 1.0, total_ok))
    fibres = double_coset_count(args.N)
    results.append(_check("product-fibres-uniform",
                          0.0 if fibres.uniform else 1.0, fibres.uniform))
    provenance = {
        "orbit_count": len(partition.orbits),
        "caps": {},
        "n_guarantee": args.N,
    }
    return _emit(_assemble("identity-check", input_hash, EXACT, results,
                           provenance, []), args.out)


def _cmd_oracle(args) -> int:
    payload = _load_json(args.matrix)
    mat, mixed = _parse_matrix(payload)
    warnings = ["matrix mixes exact and float entries; forcing float mode"] if mixed else []
    params = {"N": args.N, "cross": bool(args.cross),
              "tolerance": args.tolerance}
    input_hash = _hash_inputs("oracle", payload, params)
    dil = schaffer_dilation(mat, args.N)
    ortho = dil.orthogonality_defect()
    results = [_check("orthogonality", ortho, ortho <= _ORTHOGONALITY_TOL)]
    base = mat.to_float() if mat.mode == EXACT else mat
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
    return _emit(_assemble("oracle", input_hash, FLOAT64, results,
                           provenance, warnings), args.out)


def _cmd_orbit(args) -> int:
    _check_enumeration(args.m, args.N, args.N)
    params = {"m": args.m, "N": args.N}
    input_hash = _hash_inputs("orbit", None, params)
    partition = orbit_partition(args.m, args.N)
    divides = all(args.N % o.size == 0 for o in partition.orbits)
    product = all(o.size * o.stabilizer_size == args.N for o in partition.orbits)
    total = partition.total == args.m ** args.N
    results = [
        _check("orbit-sizes-divide", 0.0 if divides else 1.0, divides),
        _check("orbit-stabilizer-product", 0.0 if product else 1.0, product),
        _check("partition-total", 0.0 if total else 1.0, total),
    ]
    histogram: dict[str, int] = {}
    for o in partition.orbits:
        histogram[str(o.size)] = histogram.get(str(o.size), 0) + 1
    provenance = {
        "orbit_count": len(partition.orbits),
        "size_histogram": histogram,
        "caps": {},
    }
    return _emit(_assemble("orbit", input_hash, EXACT, results,
                           provenance, []), args.out)


# ---------------------------------------------------------------------------
# argument wiring


def _add_common(sub):
    sub.add_argument("--out", default=None, help="write the report here instead of stdout")
    sub.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dilations",
        description="Exact dilation constructions for combinations of l^p isometries")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("build", help="build a dilation and check Q J = I")
    sub.add_argument("--combo", required=True, help="combination payload (JSON)")
    sub.add_argument("--N", type=int, required=True)
    sub.add_argument("--p", default=None)
    sub.add_argument("--label", default="T")
    _add_common(sub)
    sub.set_defaults(func=_cmd_build)

    sub = subs.add_parser("verify", help="check compressed words against powers")
    sub.add_argument("--combo", required=True)
    sub.add_argument("--N", type=int, required=True)
    sub.add_argument("--p", default=None)
    sub.add_argument("--label", default="T")
    sub.add_argument("--all-up-to", type=int, default=None, dest="all_up_to")
    sub.add_argument("--word", action="append", default=[],
                     help="explicit comma-separated label word; repeatable")
    sub.add_argument("--word-cap", type=int, default=WORD_CAP, dest="word_cap")
    _add_common(sub)
    sub.set_defaults(func=_cmd_verify)

    sub = subs.add_parser("simultaneous",
                          help="one dilation for a family of combinations")
    sub.add_argument("--family", required=True)
    sub.add_argument("--N", type=int, required=True)
    sub.add_argument("--p", default=None)
    sub.add_argument("--m-cap", type=int, default=64, dest="m_cap")
    sub.add_argument("--word-cap", type=int, default=WORD_CAP, dest="word_cap")
    _add_common(sub)
    sub.set_defaults(func=_cmd_simultaneous)

    sub = subs.add_parser("zero-augment",
                          help="adjoin the zero operator to an isometry family")
    sub.add_argument("--family", required=True)
    sub.add_argument("--N", type=int, required=True)
    sub.add_argument("--p", default=None)
    sub.add_argument("--word-cap", type=int, default=WORD_CAP, dest="word_cap")
    _add_common(sub)
    sub.set_defaults(func=_cmd_zero_augment)

    sub = subs.add_parser("shift", help="cyclic shift dilation of an l^1 contraction")
    sub.add_argument("--matrix", required=True)
    sub.add_argument("--window", type=int, required=True)
    sub.add_argument("--word-cap", type=int, default=WORD_CAP, dest="word_cap")
    _add_common(sub)
    sub.set_defaults(func=_cmd_shift)

    sub = subs.add_parser("decompose",
                          help="write a contraction as a combination of orthogonals")
    sub.add_argument("--matrix", required=True)
    sub.add_argument("--max-denominator", type=int, default=10 ** 9,
                     dest="max_denominator")
    _add_common(sub)
    sub.set_defaults(func=_cmd_decompose)

    sub = subs.add_parser("hull-check",
                          help="membership in the (sub)convex hull of generators")
    sub.add_argument("--matrix", required=True)
    sub.add_argument("--generators", required=True,
                     help="'perms', 'sperms', or a JSON file")
    sub.add_argument("--mode", choices=[CONVEX, SUBCONVEX], default=CONVEX)
    sub.add_argument("--max-denominator", type=int, default=SNAP_DENOMINATOR,
                     dest="max_denominator")
    _add_common(sub)
    sub.set_defaults(func=_cmd_hull_check)

    sub = subs.add_parser("identity-check",
                          help="cyclic word-sum and orbit identities")
    sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--N", type=int, required=True)
    sub.add_argument("--trials", type=int, default=10)
    _add_common(sub)
    sub.set_defaults(func=_cmd_identity_check)

    sub = subs.add_parser("oracle", help="classical block-unitary dilation checks")
    sub.add_argument("--matrix", required=True)
    sub.add_argument("--N", type=int, required=True)
    sub.add_argument("--cross", action="store_true",
                     help="also run the decomposition route and compare")
    _add_common(sub)
    sub.set_defaults(func=_cmd_oracle)

    sub = subs.add_parser("orbit", help="cyclic-shift orbit structure report")
    sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--N", type=int, required=True)
    _add_common(sub)
    sub.set_defaults(func=_cmd_orbit)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
