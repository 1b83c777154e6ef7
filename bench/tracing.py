"""Per-layer tracing of shiftlab from outside the library.

``Tracer.install`` replaces public shiftlab functions with timing wrappers in
every module namespace that binds them: the defining module, the package,
and each module that imported the name (``checks`` and ``cli`` import
``multigraded_betti``, ``lcm_lattice`` and ``is_covering_pair`` by name;
``multigraded_betti`` reads ``rank_exact`` and ``strand_matrices`` as module
globals).  ``uninstall`` puts the originals back, so untraced runs pay
nothing.

Every wrapped call records a span: its name, start, end, parent span and
operation id, in flat arrays kept in memory until ``layer_metrics`` reduces
them at the end of a pass.  A span's self time is its duration minus the time
its child spans cover.  Counts such as faces built or pivots cancelled are
taken at the same boundaries by hooks that look at a call's arguments and
result.  No wrapped function calls another wrapped function of the same span
name, so busy time is the plain sum of a name's span durations.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter, defaultdict

# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = [
    ("betti.rank.busy_s", "s", "lower"),
    ("betti.rank.calls", "count", "lower"),
    ("betti.rank.max_cells", "count", "lower"),
    ("betti.strand.busy_s", "s", "lower"),
    ("betti.strand.count", "count", "lower"),
    ("betti.strand.max_faces", "count", "lower"),
    ("betti.strand.useful_ratio", "1", "higher"),
    ("betti.engine.self_s", "s", "lower"),
    ("betti.engine.busy_s", "s", "lower"),
    ("betti.lcm_lattice.busy_s", "s", "lower"),
    ("betti.lcm_lattice.calls", "count", "lower"),
    ("complexes.taylor.busy_s", "s", "lower"),
    ("complexes.taylor.faces", "count", "lower"),
    ("complexes.scarf.busy_s", "s", "lower"),
    ("complexes.minimalize_qq.busy_s", "s", "lower"),
    ("complexes.minimalize_gf.busy_s", "s", "lower"),
    ("complexes.minimalize.cancelled", "count", "lower"),
    ("complexes.verify.busy_s", "s", "lower"),
    ("complexes.verify.entries", "count", "lower"),
    ("complexes.restrict.busy_s", "s", "lower"),
    ("complexes.restrict.calls", "count", "lower"),
    ("checks.covering_search.busy_s", "s", "lower"),
    ("checks.covering_search.pairs_tested", "count", "lower"),
    ("checks.covering_search.hit_ratio", "1", "higher"),
    ("checks.inequality.self_s", "s", "lower"),
    ("checks.inequality.betti_calls", "count", "lower"),
    ("checks.symbolic.busy_s", "s", "lower"),
    ("monomials.parse.busy_s", "s", "lower"),
    ("monomials.restrict_ideal.busy_s", "s", "lower"),
    ("monomials.restrict_ideal.calls", "count", "lower"),
    ("monomials.is_covering_pair.busy_s", "s", "lower"),
    ("monomials.is_covering_pair.calls", "count", "lower"),
    ("randomgen.corpus.busy_s", "s", "lower"),
    ("randomgen.draws", "count", "lower"),
    ("golden.verify.busy_s", "s", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.verify-paper.wall_ms", "ms", "lower"),
    ("cli.betti.wall_ms", "ms", "lower"),
    ("cli.shifts.wall_ms", "ms", "lower"),
    ("cli.check.wall_ms", "ms", "lower"),
    ("cli.dump.wall_ms", "ms", "lower"),
    ("cli.random.wall_ms", "ms", "lower"),
    ("trace.overhead_ratio", "1", "lower"),
]


def _faces(F) -> int:
    return sum(len(mod) for mod in F.modules)


def _rank_hook(tr, args, kwargs, out):
    M = args[0]
    cells = len(M) * len(M[0]) if M and M[0] else 0
    tr.maxes["betti.rank.max_cells"] = max(tr.maxes["betti.rank.max_cells"], cells)


def _strand_hook(tr, args, kwargs, out):
    faces = len(args[0])
    tr.maxes["betti.strand.max_faces"] = max(tr.maxes["betti.strand.max_faces"], faces)


def _betti_hook(tr, args, kwargs, out):
    tr.counts["betti.useful_strands"] += len({alpha for _, alpha in out.entries})


def _taylor_hook(tr, args, kwargs, out):
    tr.counts["complexes.taylor.faces"] += _faces(out)


def _minimalize_hook(tr, args, kwargs, out):
    tr.counts["complexes.minimalize.cancelled"] += (_faces(args[0]) - _faces(out)) // 2


def _verify_hook(tr, args, kwargs, out):
    F = args[0]
    tr.counts["complexes.verify.entries"] += sum(len(col) for d in F.diffs for col in d)


def _covering_hook(tr, args, kwargs, out):
    tr.counts["checks.covering_search.pairs_found"] += len(out)


def _minimalize_name(args, kwargs):
    field = args[1] if len(args) > 1 else kwargs.get("field")
    return "complexes.minimalize_gf" if hasattr(field, "p") else "complexes.minimalize_qq"


# (module, function, span name or namer(args, kwargs), hook or None)
TARGETS = [
    ("shiftlab.betti", "rank_exact", "betti.rank", _rank_hook),
    ("shiftlab.betti", "strand_matrices", "betti.strand", _strand_hook),
    ("shiftlab.betti", "multigraded_betti", "betti.engine", _betti_hook),
    ("shiftlab.betti", "lcm_lattice", "betti.lcm_lattice", None),
    ("shiftlab.complexes", "taylor_complex", "complexes.taylor", _taylor_hook),
    ("shiftlab.complexes", "scarf_complex", "complexes.scarf", None),
    ("shiftlab.complexes", "minimalize", _minimalize_name, _minimalize_hook),
    ("shiftlab.complexes", "verify_complex", "complexes.verify", _verify_hook),
    ("shiftlab.complexes", "restrict_complex", "complexes.restrict", None),
    ("shiftlab.checks", "find_covering_pairs", "checks.covering_search", _covering_hook),
    ("shiftlab.checks", "check_subadditivity_profile", "checks.inequality", None),
    ("shiftlab.checks", "check_consecutive", "checks.inequality", None),
    ("shiftlab.checks", "check_top", "checks.inequality", None),
    ("shiftlab.checks", "check_covering", "checks.inequality", None),
    ("shiftlab.checks", "check_range", "checks.inequality", None),
    ("shiftlab.checks", "check_general", "checks.inequality", None),
    ("shiftlab.checks", "check_multiple", "checks.inequality", None),
    ("shiftlab.checks", "derive_symbolic_bounds", "checks.symbolic", None),
    ("shiftlab.monomials", "loads_ideal", "monomials.parse", None),
    ("shiftlab.monomials", "restrict_ideal", "monomials.restrict_ideal", None),
    ("shiftlab.monomials", "is_covering_pair", "monomials.is_covering_pair", None),
    ("shiftlab.randomgen", "random_corpus", "randomgen.corpus", None),
    ("shiftlab.randomgen", "random_ideal", "randomgen.draw", None),
    ("shiftlab.golden", "verify_golden", "golden.verify", None),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self.op = 0  # the harness sets this to the running operation's number
        self.counts: Counter = Counter()
        self.maxes: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def clear(self) -> None:
        for arr in (self.name_id, self.start, self.end, self.parent, self.op_id):
            del arr[:]
        self.counts.clear()
        self.maxes.clear()

    def _wrap(self, fn, name, hook):
        name_id, start, end, parent, op_id = (
            self.name_id, self.start, self.end, self.parent, self.op_id)
        stack = self._stack
        clock = time.perf_counter
        fixed = self._id(name) if isinstance(name, str) else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(fixed if fixed is not None else tracer._id(name(args, kwargs)))
            parent.append(stack[-1] if stack else -1)
            op_id.append(tracer.op)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if hook is not None:
                hook(tracer, args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every target in every loaded shiftlab module that binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "shiftlab" or n.startswith("shiftlab.")]
        for modname, fname, name, hook in TARGETS:
            original = getattr(sys.modules[modname], fname)
            wrapper = self._wrap(original, name, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def spans(self, min_s: float = 0.0) -> list[tuple]:
        """(id, name, start, end, parent, op) of each span lasting at least min_s."""
        return [
            (i, self.names[self.name_id[i]], self.start[i], self.end[i], self.parent[i], self.op_id[i])
            for i in range(len(self.start))
            if self.end[i] - self.start[i] >= min_s
        ]

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals over the spans and counts recorded since clear()."""
        n = len(self.start)
        names = self.names
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur[i]
        busy: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        nested: Counter = Counter()  # (parent name, child name) -> calls
        for i in range(n):
            name = names[self.name_id[i]]
            busy[name] += dur[i]
            own[name] += dur[i] - covered[i]
            calls[name] += 1
            p = self.parent[i]
            if p >= 0:
                nested[(names[self.name_id[p]], name)] += 1
        counts, maxes = self.counts, self.maxes
        pairs_tested = nested[("checks.covering_search", "monomials.is_covering_pair")]
        strands = calls["betti.strand"]
        return {
            "betti.rank.busy_s": busy["betti.rank"],
            "betti.rank.calls": calls["betti.rank"],
            "betti.rank.max_cells": maxes["betti.rank.max_cells"],
            "betti.strand.busy_s": busy["betti.strand"],
            "betti.strand.count": strands,
            "betti.strand.max_faces": maxes["betti.strand.max_faces"],
            "betti.strand.useful_ratio": counts["betti.useful_strands"] / strands if strands else 0.0,
            "betti.engine.self_s": own["betti.engine"],
            "betti.engine.busy_s": busy["betti.engine"],
            "betti.lcm_lattice.busy_s": busy["betti.lcm_lattice"],
            "betti.lcm_lattice.calls": calls["betti.lcm_lattice"],
            "complexes.taylor.busy_s": busy["complexes.taylor"],
            "complexes.taylor.faces": counts["complexes.taylor.faces"],
            "complexes.scarf.busy_s": busy["complexes.scarf"],
            "complexes.minimalize_qq.busy_s": busy["complexes.minimalize_qq"],
            "complexes.minimalize_gf.busy_s": busy["complexes.minimalize_gf"],
            "complexes.minimalize.cancelled": counts["complexes.minimalize.cancelled"],
            "complexes.verify.busy_s": busy["complexes.verify"],
            "complexes.verify.entries": counts["complexes.verify.entries"],
            "complexes.restrict.busy_s": busy["complexes.restrict"],
            "complexes.restrict.calls": calls["complexes.restrict"],
            "checks.covering_search.busy_s": busy["checks.covering_search"],
            "checks.covering_search.pairs_tested": pairs_tested,
            "checks.covering_search.hit_ratio": (
                counts["checks.covering_search.pairs_found"] / pairs_tested if pairs_tested else 0.0),
            "checks.inequality.self_s": own["checks.inequality"],
            "checks.inequality.betti_calls": nested[("checks.inequality", "betti.engine")],
            "checks.symbolic.busy_s": busy["checks.symbolic"],
            "monomials.parse.busy_s": busy["monomials.parse"],
            "monomials.restrict_ideal.busy_s": busy["monomials.restrict_ideal"],
            "monomials.restrict_ideal.calls": calls["monomials.restrict_ideal"],
            "monomials.is_covering_pair.busy_s": busy["monomials.is_covering_pair"],
            "monomials.is_covering_pair.calls": calls["monomials.is_covering_pair"],
            "randomgen.corpus.busy_s": busy["randomgen.corpus"],
            "randomgen.draws": calls["randomgen.draw"],
            "golden.verify.busy_s": busy["golden.verify"],
        }
