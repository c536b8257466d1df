"""The four certification workloads: seeded inputs, jobs and output checks.

A job is one certification request as a user would issue it.  Its ``run``
is the only code the closed loop times; its ``check`` re-derives the
answer independently of the package's own verdict, outside the timed
region, and returns whether the output is right plus facts the harness
computed along the way (the largest target denominator, report bytes).

Each workload is a list of blocks.  A block is a fixed mix of job kinds,
and the loop runs whole blocks, so every run sees the same proportions of
cheap and expensive jobs and the median and the tail each fall inside one
kind of job rather than between two.  Blocks differ only in their random
inputs, which are all drawn from the workload seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from dilations import builders, cli, hull, isometries, schaffer
from dilations.linalg import OperatorMatrix, PNorm

HILBERT_TOL = 1e-6          # the shipped cross-validation tolerance
BLOCK_POOL = 6              # distinct input blocks per run, reused cyclically


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple[bool, dict]]


@dataclass
class Workload:
    blocks: list[list[Job]]
    warmup: list[Job]
    digest: Callable[[], str] | None = None   # of every report, when there are reports


def den_bits(mat: OperatorMatrix) -> int:
    """Bit length of the largest denominator among exact entries."""
    return max(Fraction(x).denominator.bit_length()
               for i in range(mat.rows) for x in mat.row_entries(i))


def _random_weights(m: int, rng: random.Random) -> tuple[Fraction, ...]:
    raw = [rng.randint(1, 9) for _ in range(m)]
    return tuple(Fraction(a, sum(raw)) for a in raw)


# ---------------------------------------------------------------------------
# exact-cert: build_n_dilation + verify_dilation on every word up to N

# (m, N, d, p) per job of one block, from 972 to 20,480 dims.  One
# (4, 5, 4) job sets the peak and three (5, 4, 4) jobs form the tier the tail
# reads.  The median falls among seven mid-size cells whose costs are graded
# (about 0.1 to 0.25 s), not one cell repeated, so a host that runs slower
# for part of a run moves the median smoothly instead of flipping it.
EXACT_BLOCK = (
    [(4, 5, 4, "3")]
    + [(5, 4, 4, p) for p in ("3", "3/2", "4")]
    + [(3, 5, 4, "3/2"), (2, 8, 2, "4")]
    + [(2, 7, 3, "3"), (3, 5, 3, "4"), (4, 4, 4, "3/2"), (2, 7, 2, "3"),
       (2, 6, 4, "4"), (3, 5, 2, "3/2"), (4, 4, 3, "3")]
    + [(2, 6, 3, "3/2"), (3, 4, 3, "4"), (3, 4, 4, "3"), (5, 3, 4, "3/2")])
EXACT_TINY = [(2, 2, 2, "3"), (2, 3, 2, "3/2"), (3, 2, 2, "4")]


def _cert_job(m, N, d, p, rng, pools) -> Job:
    isos = tuple(rng.choice(pools[d]).matrix() for _ in range(m))
    combo = builders.ConvexCombination(isos, _random_weights(m, rng))
    norm = PNorm.parse(p)

    def run():
        triple = builders.build_n_dilation(combo, N, norm)
        report = builders.verify_dilation(triple, {"T": combo.operator()}, N)
        return triple, report

    def check(out):
        triple, report = out
        T = combo.operator()
        ok = report.passed and len(report.checks) == N + 1
        bits = 0
        for n in range(N + 1):
            want = T.power(n)
            bits = max(bits, den_bits(want))
            # exact equality; the float residual alone can read 0.0 for
            # matrices that differ
            ok = ok and builders.compressed_power(triple, n) == want
        return ok, {"linalg.max_den_bits": bits}

    return Job(f"cert m={m} N={N} d={d} p={p}", run, check)


def exact_cert(seed: int, tiny: bool, workdir: Path) -> Workload:
    rng = random.Random(f"exact-cert/{seed}")
    pools = {d: isometries.all_signed_permutations(d) for d in (2, 3, 4)}
    cells = EXACT_TINY if tiny else EXACT_BLOCK
    blocks = [[_cert_job(*cell, rng, pools) for cell in cells]
              for _ in range(BLOCK_POOL)]
    warmup = [_cert_job(2, 2, 2, "3", rng, pools)]
    return Workload(blocks, warmup)


# ---------------------------------------------------------------------------
# hilbert-cross: cross_validate on random contractions, float mode

# (d, N) per job.  The four d=4, N=3 jobs make the tail tier and the d=3,
# N=3 jobs hold the median.  d=5, N=3 (about 3 s and a 60 MB stack per job)
# is left out so that one job cannot dominate a run.
HILBERT_BLOCK = [(4, 3)] * 4 + [(5, 2)] * 4 + [(3, 3)] * 4 + [(4, 2)] * 4 + [(3, 2)] * 4
HILBERT_TINY = [(2, 2), (3, 2)]


def _contraction(d: int, rng: np.random.Generator) -> OperatorMatrix:
    a = rng.standard_normal((d, d))
    return OperatorMatrix(0.95 * a / np.linalg.svd(a, compute_uv=False)[0])


def _cross_job(d, N, rng) -> Job:
    T = _contraction(d, rng)

    def run():
        return schaffer.cross_validate(T, N)

    def check(report):
        curves = (report.oracle_residuals, report.decomposition_residuals)
        ok = all(len(c) == N + 1 and all(0.0 <= r <= HILBERT_TOL for r in c)
                 for c in curves)
        return ok, {}

    return Job(f"cross d={d} N={N}", run, check)


def hilbert_cross(seed: int, tiny: bool, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 2])
    cells = HILBERT_TINY if tiny else HILBERT_BLOCK
    blocks = [[_cross_job(d, N, rng) for d, N in cells] for _ in range(BLOCK_POOL)]
    warmup = [_cross_job(2, 2, rng)]
    return Workload(blocks, warmup)


# ---------------------------------------------------------------------------
# hull-d4: generator enumeration + exact LP membership with certificates

HULL_D = 4
# Every run opens with one member and one non-member against all 384 signed
# permutations (convex, about 1-3 s each); seeded jobs against the 24
# permutations (subconvex) fill the rest, in blocks of 24 members (which
# hold the median) and 12 non-members.  The signed pair sits in the first
# block of a 40-block pool, so a run of up to 40 blocks (about 15 at this
# commit) holds exactly two signed jobs: with ten or fewer of them the tail
# stays among the permutation jobs instead of jumping onto the signed ones
# once a faster program fits more blocks into a run.  The phase-1 simplex
# takes 10 to 150 pivots depending on the target, and seeded signed targets
# moved a run by a fifth from seed to seed, so the signed pair is a fixed
# reference draw, the same for every seed; the seed draws the permutation
# targets.
HULL_PERM_MEMBERS = 24
HULL_PERM_NON_MEMBERS = 12
HULL_BLOCK_POOL = 40
HULL_MEMBER_TERMS = 3


def _member(gens, subconvex: bool, rng: random.Random) -> OperatorMatrix:
    idx = rng.sample(range(len(gens)), HULL_MEMBER_TERMS)
    raw = [rng.randint(1, 9) for _ in idx]
    total = sum(raw) + (rng.randint(1, 9) if subconvex else 0)
    acc = OperatorMatrix.zeros(HULL_D, HULL_D)
    for i, a in zip(idx, raw):
        acc = acc + gens[i].scale(Fraction(a, total))
    return acc


def _non_member(rng: random.Random) -> OperatorMatrix:
    """One row's absolute sum is 1 + 1/k, outside both hulls."""
    rows = [[Fraction(rng.randint(-9, 9), 20) for _ in range(HULL_D)]
            for _ in range(HULL_D)]
    i = rng.randrange(HULL_D)
    target = 1 + Fraction(1, rng.randint(5, 30))
    row_sum = sum(abs(x) for x in rows[i])
    if row_sum == 0:
        rows[i][0] = target
    else:
        rows[i] = [x * target / row_sum for x in rows[i]]
    return OperatorMatrix(rows)


def _hull_job(T: OperatorMatrix, signed: bool, expected: str) -> Job:
    mode = hull.CONVEX if signed else hull.SUBCONVEX

    def run():
        if signed:
            gens, names = hull.signed_permutation_generators(HULL_D)
        else:
            gens, names = hull.permutation_generators(HULL_D)
        return hull.hull_membership(T, gens, mode, names), gens

    def check(out):
        res, gens = out
        if res.status != expected:
            return False, {}
        if res.member:
            weights = list(res.coefficients.values())
            total = sum(weights)
            ok = (res.reconstruction == T and all(w >= 0 for w in weights)
                  and (total == 1 if signed else total <= 1))
        else:
            ok = res.certificate.verify(T, gens, mode)
        return ok, {"linalg.max_den_bits": den_bits(T)}

    gen_set = "sperms" if signed else "perms"
    return Job(f"hull {gen_set} {expected}", run, check)


def hull_d4(seed: int, tiny: bool, workdir: Path) -> Workload:
    rng = random.Random(f"hull-d4/{seed}")
    reference = random.Random("hull-d4/signed-reference")
    sperms, _ = hull.signed_permutation_generators(HULL_D)
    perms, _ = hull.permutation_generators(HULL_D)
    signed = [_hull_job(_member(sperms, False, reference), True, "member"),
              _hull_job(_non_member(reference), True, "non-member")]
    n_mem, n_non = (1, 1) if tiny else (HULL_PERM_MEMBERS, HULL_PERM_NON_MEMBERS)
    blocks = []
    for _ in range(BLOCK_POOL if tiny else HULL_BLOCK_POOL):
        blocks.append([_hull_job(_member(perms, True, rng), False, "member")
                       for _ in range(n_mem)]
                      + [_hull_job(_non_member(rng), False, "non-member")
                         for _ in range(n_non)])
    if not tiny:
        blocks[0] = signed + blocks[0]
    warmup = [_hull_job(_member(perms, True, rng), False, "member"),
              _hull_job(_non_member(rng), False, "non-member")]
    return Workload(blocks, warmup)


# ---------------------------------------------------------------------------
# family-cli: in-process cli.run on seeded payload files

def _matrix_doc(mat: OperatorMatrix) -> dict:
    return {"rows": mat.rows, "cols": mat.cols,
            "data": [[str(x) for x in mat.row_entries(i)] for i in range(mat.rows)]}


def _combo_doc(isos, weights) -> dict:
    return {"isometries": [_matrix_doc(t) for t in isos],
            "weights": [str(w) for w in weights]}


def _word_product(targets: dict, word) -> OperatorMatrix:
    acc = OperatorMatrix.identity(next(iter(targets.values())).rows)
    for label in word:
        acc = acc @ targets[label]
    return acc


def _cli_job(argv: list[str], expected_results: int, bits: int,
             digests: dict) -> Job:
    key = " ".join(argv)

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        return code, out.getvalue()

    def check(result):
        code, text = result
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        first = digests.setdefault(key, digest)
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            return False, {}
        ok = (code == 0 and digest == first and doc["summary"]["pass"] is True
              and len(doc["results"]) == expected_results)
        return ok, {"linalg.max_den_bits": bits, "cli.report_bytes": len(text)}

    return Job(f"cli {argv[0]} N={argv[argv.index('--N') + 1]}", run, check)


def family_cli(seed: int, tiny: bool, workdir: Path) -> Workload:
    rng = random.Random(f"family-cli/{seed}")
    pools = {d: isometries.all_signed_permutations(d) for d in (2, 3)}
    digests: dict[str, str] = {}

    def write(name: str, doc) -> str:
        path = workdir / name
        path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
        return str(path)

    def perm(d: int) -> OperatorMatrix:
        return rng.choice(pools[d]).matrix()

    # Every job below repeats with the same payload in every block, so each
    # kind is one tier of near-equal times: the simultaneous job and three
    # zero-augment N=6 jobs make the tail tier, five verify jobs the median.
    jobs = []
    # simultaneous: halves, thirds and sixths rationalize to a common m = 6
    targets, members = {}, {}
    for name, weights in (("A", ("1/2", "1/2")), ("B", ("1/3", "2/3")),
                          ("C", ("1/6", "5/6"))):
        isos = [perm(2) for _ in weights]
        targets[name] = builders.ConvexCombination(
            tuple(isos), tuple(Fraction(w) for w in weights)).operator()
        members[name] = _combo_doc(isos, weights)
    sim_n = 1 if tiny else 3
    fam = write("family.json", {"p": "3", "members": members})
    sim_bits = max(den_bits(_word_product(targets, word))
                   for n in range(sim_n + 1)
                   for word in itertools.product(targets, repeat=n))
    jobs.append(_cli_job(["simultaneous", "--family", fam, "--N", str(sim_n)],
                         sum(3 ** n for n in range(sim_n + 1)), sim_bits, digests))

    # zero-augment: two isometries plus the adjoined zero, dense U path
    for i, N in enumerate((1, 2) if tiny else (4, 5, 6, 6, 6)):
        aug = write(f"augment-{i}.json", {"p": "3", "members": {
            "A": _matrix_doc(perm(3)), "B": _matrix_doc(perm(3))}})
        jobs.append(_cli_job(["zero-augment", "--family", aug, "--N", str(N)],
                             sum(3 ** n for n in range(N + 1)), 1, digests))

    # verify with an explicit word list, one random combination per job
    verify_n = 2 if tiny else 4
    for i in range(1 if tiny else 5):
        isos = [perm(3) for _ in range(3)]
        weights = _random_weights(3, rng)
        T = builders.ConvexCombination(tuple(isos), weights).operator()
        path = write(f"combo-{i}.json", {"p": "3", **_combo_doc(isos, weights)})
        argv = ["verify", "--combo", path, "--N", str(verify_n)]
        for n in range(verify_n + 1):
            argv += ["--word", "T," * n]
        bits = max(den_bits(T.power(n)) for n in range(verify_n + 1))
        jobs.append(_cli_job(argv, verify_n + 1, bits, digests))

    warmup = [_cli_job(["zero-augment", "--family", aug, "--N", "1"], 4, 1, {})]

    def digest() -> str:
        joined = "".join(digests[k] for k in sorted(digests))
        return hashlib.sha256(joined.encode("utf-8")).hexdigest()

    return Workload([jobs], warmup, digest)


WORKLOADS = {
    "exact-cert": exact_cert,
    "hilbert-cross": hilbert_cross,
    "hull-d4": hull_d4,
    "family-cli": family_cli,
}
