"""The four benchmark workloads: corpus, stress, resolve and paper.

Each workload is a closed loop with one client in one process: an operation
starts only after the previous one has finished, and the CLI calls of the
paper workload run as one child interpreter at a time.  A workload builds its
inputs from the seed in ``setup``, computes its oracle references in
``prepare``, lists one pass of operations in ``ops`` and checks one
operation's output in ``check``.  The harness in run.py times only the
operations; ``prepare`` and ``check`` run outside the timed region.

Why these four, each stressing layers the others leave alone:

- corpus: the Tier-1 500-ideal corpus, thousands of tiny strands.  Per-call overhead, strand build and the
  checks layer dominate and exact rank is a small share, so a rank-kernel
  gain should barely move it.
- stress: few, huge strands (S14's largest has 3,864 faces).  Exact rank is
  nearly all of the time; this is where a faster strand engine or rank path
  shows.  S14 over QQ (about 100 s) is left out on purpose.
- resolve: only the complexes layer (Taylor, Scarf, minimalize in both
  fields, verify, restrict) and its 2^m face lists.  The Betti engine does
  no work here, so a Betti change must read "no change".
- paper: the worked-example user.  The only workload that runs CLI process
  start-up, golden verification and symbolic bound expansion.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
from collections import Counter
from functools import partial

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PINNED = os.path.join(HERE, "ideals")
DATA = os.path.join(SRC, "shiftlab", "data")
EX1_FILE = os.path.join(DATA, "example1.ideal")
EX2_FILE = os.path.join(DATA, "example2.ideal")

CORPUS_SEED = 20260810  # the Tier-1 corpus seed, also the default workload seed
CORPUS_COUNT = 500
PRIME = 32003
COVERING_CHECKED = 3  # check_covering runs on the first pairs found, per ideal
# (n, m, a) triples for the symbolic bound sweep of the paper workload
SYMBOLIC_SWEEP = tuple(
    (n, m, a) for n in (7, 8, 9) for m in range(4, 2 * n - 5) for a in range(2, n + 1)
)
CLI_REPEATS = 3
CLI_MAIN = "import sys; from shiftlab.cli import main; sys.exit(main(sys.argv[1:]))"


def load_expected() -> dict:
    with open(os.path.join(PINNED, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


def table_entries(table) -> list:
    """A Betti table as a sorted list of [a, mdeg, rank]."""
    return [[a, list(mdeg), r] for (a, mdeg), r in sorted(table.entries.items())]


def complex_entries(F) -> list:
    """The multidegree multiset of a complex, in the shape of table_entries."""
    counts = Counter((a, be.mdeg) for a, mod in enumerate(F.modules) for be in mod)
    return [[a, list(mdeg), r] for (a, mdeg), r in sorted(counts.items())]


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def symbolic_sweep(sl) -> list[str]:
    return [str(b) for n, m, a in SYMBOLIC_SWEEP for b in sl.derive_symbolic_bounds(n, m, a)]


def resolve_ideal(sl, I, lattice, gf):
    """One resolve operation: Taylor and Scarf complexes, the minimal
    complex in both fields, verification of the Taylor complex and of each
    minimal complex, and the restriction of the minimal complex over QQ to
    every lcm-lattice element."""
    T = sl.taylor_complex(I)
    S = sl.scarf_complex(I)
    Mq = sl.minimalize(T, sl.QQ)
    Mp = sl.minimalize(T, gf)
    reports = [sl.verify_complex(T), sl.verify_complex(Mq, sl.QQ), sl.verify_complex(Mp, gf)]
    restricted = [sl.restrict_complex(Mq, alpha) for alpha in lattice]
    return T, S, Mq, Mp, reports, restricted


def resolve_summary(sl, out, gf) -> dict:
    """The pinned, comparable form of a resolve output."""
    T, S, Mq, Mp, reports, restricted = out
    return {
        "taylor_ranks": list(T.ranks()),
        "scarf_ranks": list(S.ranks()),
        "minimal": {
            repr(sl.QQ): complex_entries(Mq),
            repr(gf): complex_entries(Mp),
        },
        "restrictions": len(restricted),
        "restricted_faces": sum(sum(R.ranks()) for R in restricted),
    }


class Workload:
    name = ""
    budget_s = 60.0  # wall-clock budget of one operation

    def setup(self, sl, seed: int) -> None:
        """Load or generate the inputs; everything here counts as set-up."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Compute oracle references (untimed)."""

    def ops(self) -> list:
        """One pass: a list of (key, zero-argument callable)."""
        raise NotImplementedError

    def check(self, key, out) -> str | None:
        """None if the output is right, else what is wrong with it."""
        raise NotImplementedError

    def named_metrics(self, med: dict) -> dict:
        """Workload-specific metrics {name: (value, unit)} from the median
        latency of each operation, by key."""
        return {}


def present(sl, I, rng):
    """I with its variables and its generators put in an order drawn from rng."""
    perm = list(range(I.ring.n))
    rng.shuffle(perm)
    gens = [tuple(g[i] for i in perm) for g in I.gens]
    rng.shuffle(gens)
    return sl.MonomialIdeal(I.ring, gens)


class Corpus(Workload):
    """The conjecture-probing ledger on the Tier-1 corpus.

    The ideals are random_corpus(20260810, 500), each presented with its
    variables and generators in an order drawn from the workload seed.  The
    seed changes the inputs but not their size: a fresh random_corpus(seed,
    500) per seed moved the pass time by a fifth and the median ideal's
    latency by half between seeds, far more than any bound a regression
    check could use.
    """

    name = "corpus"
    budget_s = 10.0

    def __init__(self, count: int = CORPUS_COUNT):
        self.count = count

    def setup(self, sl, seed):
        self.sl = sl
        self.gf = sl.PrimeField(PRIME)
        rng = random.Random(seed)
        self.ideals = [present(sl, I, rng) for I in sl.random_corpus(CORPUS_SEED, self.count)]

    def prepare(self):
        # the Tier-1 oracle pair: minimalized Taylor complex in the same field
        sl = self.sl
        self.refs = []
        for I in self.ideals:
            T = sl.taylor_complex(I)
            self.refs.append(
                (complex_entries(sl.minimalize(T, sl.QQ)), complex_entries(sl.minimalize(T, self.gf)))
            )

    def ops(self):
        return [(i, partial(self._pipeline, I)) for i, I in enumerate(self.ideals)]

    def _pipeline(self, I):
        sl = self.sl
        table_q = sl.multigraded_betti(I, sl.QQ)
        table_p = sl.multigraded_betti(I, self.gf)
        prof = table_q.shift_profile()
        sl.check_subadditivity_profile(prof)  # open question: reported, never failed
        proven = sl.check_consecutive(I, sl.QQ, profile=prof)
        proven.append(sl.check_top(I, sl.QQ, profile=prof))
        pairs = sl.find_covering_pairs(I)
        for alpha, beta in pairs[:COVERING_CHECKED]:
            proven += sl.check_covering(I, alpha, beta, sl.QQ, profile=prof)
        return table_q, table_p, proven

    def check(self, key, out):
        table_q, table_p, proven = out
        ref_q, ref_p = self.refs[key]
        if table_entries(table_q) != ref_q:
            return "Betti table over QQ differs from the minimalized Taylor complex"
        if table_entries(table_p) != ref_p:
            return f"Betti table over GF({PRIME}) differs from the minimalized Taylor complex"
        bad = [str(r) for r in proven if not r.holds]
        return f"proved inequality failed: {bad[0]}" if bad else None

    def named_metrics(self, med):
        lat = sorted(med.values())
        tail_pct, tail = tail_percentile(lat)
        return {
            "ideals_per_s": (len(lat) / sum(lat), "1/s"),
            "ideal_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "ideal_tail_ms": (tail * 1e3, "ms"),
            "ideal_tail_pct": (tail_pct, "%"),
            "ideal_tail_samples": (len(lat), "count"),
        }


def tail_percentile(sorted_values: list) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its
    value; the maximum when there are ten samples or fewer."""
    n = len(sorted_values)
    if n <= 10:
        return 100.0, sorted_values[-1]
    return 100.0 * (n - 10) / n, sorted_values[n - 11]


class Stress(Workload):
    """The pinned S13 Betti table over QQ and S14 over GF(32003)."""

    name = "stress"
    budget_s = 30.0

    def setup(self, sl, seed):
        self.sl = sl
        self.expected = load_expected()
        self.s13 = sl.load_ideal(os.path.join(PINNED, "S13.ideal"))
        self.s14 = sl.load_ideal(os.path.join(PINNED, "S14.ideal"))
        self.gf = sl.PrimeField(PRIME)

    def ops(self):
        sl = self.sl
        return [
            ("S13/QQ", partial(sl.multigraded_betti, self.s13, sl.QQ)),
            ("S14/GF", partial(sl.multigraded_betti, self.s14, self.gf)),
        ]

    def check(self, key, out):
        name, field = key.split("/")
        field = repr(self.sl.QQ if field == "QQ" else self.gf)
        pinned = self.expected[name]["betti"][field]
        if table_entries(out) != pinned["entries"]:
            return f"{name} Betti table over {field} differs from the pinned one"
        return None

    def named_metrics(self, med):
        return {"betti_qq_s": (med["S13/QQ"], "s"), "betti_gf_s": (med["S14/GF"], "s")}


class Resolve(Workload):
    """Resolutions of the pinned S14 and of the 12-generator worked example."""

    name = "resolve"

    def setup(self, sl, seed):
        self.sl = sl
        self.expected = load_expected()
        self.gf = sl.PrimeField(PRIME)
        self.ideals = {
            "S14": sl.load_ideal(os.path.join(PINNED, "S14.ideal")),
            "ex1": sl.load_ideal(EX1_FILE),
        }
        self.lattices = {k: sl.lcm_lattice(I) for k, I in self.ideals.items()}

    def ops(self):
        return [
            (k, partial(resolve_ideal, self.sl, I, self.lattices[k], self.gf))
            for k, I in self.ideals.items()
        ]

    def check(self, key, out):
        sl = self.sl
        _, _, Mq, Mp, reports, restricted = out
        bad = [str(r) for r in reports if not r.ok]
        if bad:
            return f"{key}: {bad[0]}"
        if not (sl.is_minimal(Mq) and sl.is_minimal(Mp)):
            return f"{key}: a minimalized complex is not minimal"
        if not all(sl.is_minimal(R) for R in restricted):
            return f"{key}: a restriction of the minimal complex is not minimal"
        if resolve_summary(sl, out, self.gf) != self.expected["resolve"][key]:
            return f"{key}: resolution differs from the pinned one"
        return None

    def named_metrics(self, med):
        return {"resolve_s": (sum(med.values()), "s")}


class Paper(Workload):
    """The covering-pair search over ex1's lattice, golden verification, a
    symbolic bound sweep, and CLI calls on the worked examples, each as a
    child interpreter that runs shiftlab.cli.main (plus one that only
    imports shiftlab.cli)."""

    name = "paper"
    budget_s = 60.0

    def setup(self, sl, seed):
        self.sl = sl
        self.seed = seed
        self.expected = load_expected()["paper"]
        self.ex1 = sl.load_ideal(EX1_FILE)
        self.random_output = None
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
        self.env = env

    def _child(self, argv):
        return subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=self.env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )

    def ops(self):
        sl = self.sl
        cli = [("cli import", ["-c", "import shiftlab.cli"])] + [
            (key, ["-c", CLI_MAIN, *argv]) for key, argv in (
                ("cli verify-paper", ["verify-paper"]),
                ("cli betti q", ["betti", EX1_FILE, "--field", "q"]),
                ("cli betti p", ["betti", EX1_FILE, "--field", f"p:{PRIME}"]),
                ("cli shifts", ["shifts", EX2_FILE]),
                ("cli check", ["check", EX2_FILE, "all"]),
                ("cli dump", ["dump", EX1_FILE, "--complex", "minimal"]),
                ("cli random", ["random", "--seed", str(self.seed), "--n", "6", "--m", "8",
                                "--maxexp", "4", "--count", "100"]),
            )
        ]
        # the covering search is most of a pass: first, so that a run cut at
        # its deadline repeats it; child calls vary most from call to call,
        # so a pass makes each of them CLI_REPEATS times
        return [
            ("covering", partial(sl.find_covering_pairs, self.ex1)),
            ("golden", sl.verify_golden),
            ("symbolic", partial(symbolic_sweep, sl)),
        ] + [(key, partial(self._child, argv)) for key, argv in cli] * CLI_REPEATS

    def check(self, key, out):
        exp = self.expected
        if key.startswith("cli"):
            if out.returncode != 0:
                return f"{key} exited {out.returncode}: {out.stderr.strip()[-200:]}"
            lines = out.stdout.splitlines()
            return self._check_cli(key, lines, out.stdout)
        if key == "golden":
            return None if self.sl.golden_ok(out) else "verify_golden reports a failure"
        if key == "symbolic":
            ok = len(out) == exp["symbolic_bounds"] and digest(out) == exp["symbolic_digest"]
            return None if ok else "symbolic sweep differs from the pinned bounds"
        ok = len(out) == exp["covering_pairs"] and digest(map(repr, out)) == exp["covering_digest"]
        return None if ok else "ex1 covering pairs differ from the pinned ones"

    def _check_cli(self, key, lines, text):
        exp = self.expected
        if key == "cli verify-paper":
            if not lines or not lines[-1].endswith(" 0 failures"):
                return "verify-paper summary reports failures"
        elif key.startswith("cli betti"):
            coarse = "coarse: " + " ".join(map(str, exp["ex1_totals"]))
            if coarse not in lines:
                return f"{key}: expected '{coarse}'"
        elif key == "cli shifts":
            if lines[-1:] != [" ".join(map(str, exp["ex2_shifts"]))]:
                return "cli shifts: wrong maximal shifts"
        elif key == "cli check":
            if not lines:  # exit code 0 already says every proved inequality held
                return "cli check: no reports"
        elif key == "cli dump":
            ranks = [len(mod) for mod in json.loads(text)["modules"]]
            if ranks != exp["ex1_totals"]:
                return f"cli dump: minimal ranks {ranks}"
        elif key == "cli random":
            records = [json.loads(ln) for ln in lines]
            if len(records) != 100 or not all(r.get("proven_ok", "skipped" in r) for r in records):
                return "cli random: missing ledger lines or a proved inequality failed"
            if self.random_output is None:
                self.random_output = text
            elif text != self.random_output:
                return "cli random: ledger differs between identical calls"
        return None

    def named_metrics(self, med):
        cli = [v for k, v in med.items() if k.startswith("cli ") and k != "cli import"]
        return {
            "cli_p50_ms": (statistics.median(cli) * 1e3, "ms"),
            "paper_s": (sum(v for k, v in med.items() if not k.startswith("cli ")), "s"),
        }


WORKLOADS = {w.name: w for w in (Corpus, Stress, Resolve, Paper)}
