"""Spans recorded from outside the package, and the per-layer metrics.

The traced pass installs a wrapper around each public name listed in WRAPS,
in every ``dilations.*`` namespace that holds it (``builders`` imports
``enumerate_indices`` from ``cyclic``, ``cli`` imports the builders, and so
on), and around the listed methods on their classes.  Each wrapped call
records one span: name, start, end, parent span and job id.  Spans stay in
memory until the run ends.  A span's self time is its duration minus the
durations of its direct children; the harness opens one root span per job,
so time spent outside every wrapped call lands on that root.

Nothing in the package is edited: the wrappers are removed again by
:meth:`Recorder.uninstall`.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _space_dim(rec, args, out):
    rec.high("builders.space_dim_max", out.space.dim)


def _block_products(rec, args, out):
    rec.add("builders.block_products", args[0].count)


def _report_words(rec, args, out):
    rec.add("builders.words", len(out.checks))


def _one_word(rec, args, out):
    rec.add("builders.words", 1)


def _terms(rec, args, out):
    rec.add("isometries.terms", len(out.terms))


def _verdict(rec, args, out):
    rec.add("hull.members", int(out.member))
    rec.add("hull.non_members", int(not out.member))
    rec.add("hull.pairs_found", int(not out.member and out.certificate.has_pair))


def _lp_shape(rec, args, out):
    rows = args[0]
    rec.add("simplex.lp_rows", len(rows))
    rec.add("simplex.lp_columns", len(rows[0]))


def _exit_code(rec, args, out):
    rec.add("cli.nonzero_exits", int(out != 0))


# (span name, module, attribute or Class.method, hook called with the result)
WRAPS = (
    ("cyclic.enumerate_indices", "dilations.cyclic", "enumerate_indices", None),
    ("cyclic.weight_of", "dilations.cyclic", "weight_of", None),
    ("builders.build", "dilations.builders", "build_n_dilation", _space_dim),
    ("builders.build", "dilations.builders", "build_simultaneous_n_dilation", _space_dim),
    ("builders.build", "dilations.builders", "zero_augment", _space_dim),
    ("builders.block_matmul", "dilations.builders", "BlockDiagonalOperator.__matmul__",
     _block_products),
    ("builders.scales", "dilations.builders", "ScaledBlockMap.scales", None),
    ("builders.verify", "dilations.builders", "verify_dilation", _report_words),
    ("builders.verify", "dilations.builders", "compress_word", _one_word),
    ("builders.verify", "dilations.builders", "compressed_power", None),
    ("linalg.matmul", "dilations.linalg", "OperatorMatrix.__matmul__", None),
    ("linalg.power", "dilations.linalg", "OperatorMatrix.power", None),
    ("linalg.residual", "dilations.linalg", "operator_residual", None),
    ("isometries.is_lp_isometry", "dilations.isometries", "is_lp_isometry", None),
    ("isometries.decompose", "dilations.isometries", "decompose_contraction", _terms),
    ("isometries.svd", "dilations.isometries", "svd", None),
    ("isometries.rationalize", "dilations.isometries", "rationalize_decomposition", None),
    ("schaffer.dilation", "dilations.schaffer", "schaffer_dilation", None),
    ("schaffer.cross_validate", "dilations.schaffer", "cross_validate", None),
    ("hull.generators", "dilations.hull", "signed_permutation_generators", None),
    ("hull.generators", "dilations.hull", "permutation_generators", None),
    ("hull.membership", "dilations.hull", "hull_membership", _verdict),
    ("hull.certificate_verify", "dilations.hull", "SeparationCertificate.verify", None),
    ("simplex.solve", "dilations.simplex", "solve_equalities", _lp_shape),
    ("cli.run", "dilations.cli", "run", _exit_code),
)

# Per-layer metric -> (unit, source kind, sources).  "self" sums self time
# over span names, "calls" counts spans, "counter" reads a counter that a
# hook or the harness filled in.  A metric whose spans never opened, or
# whose counter was never touched, is "n/a" on that workload.
LAYER_METRICS = {
    "cyclic.enumerate_indices_s": ("s", "self", ("cyclic.enumerate_indices",)),
    "cyclic.weight_of_s": ("s", "self", ("cyclic.weight_of",)),
    "cyclic.weight_of_calls": ("count", "calls", ("cyclic.weight_of",)),
    "builders.build_s": ("s", "self", ("builders.build",)),
    "builders.block_matmul_s": ("s", "self", ("builders.block_matmul",)),
    "builders.block_matmul_calls": ("count", "calls", ("builders.block_matmul",)),
    "builders.block_products": ("count", "counter", ("builders.block_products",)),
    "builders.scales_s": ("s", "self", ("builders.scales",)),
    "builders.verify_self_s": ("s", "self", ("builders.verify",)),
    "builders.words": ("count", "counter", ("builders.words",)),
    "builders.space_dim_max": ("count", "counter", ("builders.space_dim_max",)),
    "linalg.matmul_s": ("s", "self", ("linalg.matmul", "linalg.power")),
    "linalg.matmul_calls": ("count", "calls", ("linalg.matmul",)),
    "linalg.residual_s": ("s", "self", ("linalg.residual",)),
    "linalg.max_den_bits": ("bits", "counter", ("linalg.max_den_bits",)),
    "isometries.is_lp_isometry_s": ("s", "self", ("isometries.is_lp_isometry",)),
    "isometries.decompose_s": ("s", "self", ("isometries.decompose",)),
    "isometries.svd_s": ("s", "self", ("isometries.svd",)),
    "isometries.rationalize_s": ("s", "self", ("isometries.rationalize",)),
    "isometries.terms": ("count", "counter", ("isometries.terms",)),
    "schaffer.dilation_s": ("s", "self", ("schaffer.dilation",)),
    "schaffer.cross_validate_self_s": ("s", "self", ("schaffer.cross_validate",)),
    "hull.generators_s": ("s", "self", ("hull.generators",)),
    "hull.membership_self_s": ("s", "self", ("hull.membership",)),
    "hull.certificate_verify_s": ("s", "self", ("hull.certificate_verify",)),
    "hull.members": ("count", "counter", ("hull.members",)),
    "hull.non_members": ("count", "counter", ("hull.non_members",)),
    "hull.pairs_found": ("count", "counter", ("hull.pairs_found",)),
    "simplex.solve_s": ("s", "self", ("simplex.solve",)),
    "simplex.calls": ("count", "calls", ("simplex.solve",)),
    "simplex.lp_columns": ("count", "counter", ("simplex.lp_columns",)),
    "simplex.lp_rows": ("count", "counter", ("simplex.lp_rows",)),
    "cli.run_self_s": ("s", "self", ("cli.run",)),
    "cli.report_bytes": ("bytes", "counter", ("cli.report_bytes",)),
    "cli.nonzero_exits": ("count", "counter", ("cli.nonzero_exits",)),
}
OVERHEAD_METRIC = ("trace.overhead_frac", "ratio")


class Recorder:
    """In-memory span store plus counters for one traced pass."""

    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self.active = False
        self.job = -1
        self._stack: list[int] = []
        self._restore: list = []

    # -- counters -----------------------------------------------------------

    def add(self, name: str, value: int):
        self.counters[name] += value

    def high(self, name: str, value: int):
        self.counters[name] = max(self.counters[name], value)

    # -- spans ----------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.job])
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, hook):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            idx = rec.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            if hook is not None:
                hook(rec, args, out)
            return out

        return wrapper

    def install(self):
        """Wrap every entry of WRAPS wherever the package exposes it."""
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "dilations" or key.startswith("dilations.")]
        for name, module, attr, hook in WRAPS:
            owner = importlib.import_module(module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, hook))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- results --------------------------------------------------------------

    def layer_metrics(self) -> tuple[dict[str, float], set[str]]:
        """Per-layer values, and the names whose layer no span reached."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s: defaultdict = defaultdict(float)
        calls: Counter = Counter()
        for idx, (name, t0, t1, _, _) in enumerate(self.spans):
            self_s[name] += (t1 - t0) - child[idx]
            calls[name] += 1
        values, unreached = {}, set()
        for metric, (_, kind, sources) in LAYER_METRICS.items():
            if kind == "counter":
                (source,) = sources
                values[metric] = self.counters[source]
                reached = source in self.counters
            else:
                table = self_s if kind == "self" else calls
                values[metric] = sum(table[s] for s in sources)
                reached = any(calls[s] for s in sources)
            if not reached:
                unreached.add(metric)
        return values, unreached

    def write(self, path, header: dict):
        """One JSON header line, then one [name, start, end, parent, job] per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
