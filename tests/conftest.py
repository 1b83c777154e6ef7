"""Session fixtures: worked-example ideals, the RP^2 ideal, the seeded
500-ideal corpus and the pairwise minimalization oracle.

The corpus results are computed once per session and shared between the
property-suite module and the acceptance module; per ideal they hold the
Betti tables in both field modes, the multidegree multisets of the
minimalized Taylor complex in both field modes, Taylor/Scarf shift
profiles, and the verification flags of every constructed complex; over
the whole corpus they hold one sha256 per field of the concatenated dumps
of the minimalized Taylor complexes, over QQ, GF(32003) and GF(2).
"""

import hashlib
import random
import time
from collections import Counter
from itertools import combinations

import pytest

from shiftlab import (
    MonomialIdeal,
    PrimeField,
    QQ,
    Ring,
    divides,
    dumps_complex,
    example1,
    example2,
    is_minimal,
    koszul2,
    lcm_lattice,
    minimalize,
    multigraded_betti,
    restrict_complex,
    restrict_ideal,
    scarf_complex,
    shifts_of_complex,
    taylor_complex,
    verify_complex,
)
from shiftlab.randomgen import random_corpus

CORPUS_SEED = 20260810
CORPUS_COUNT = 500
CROSSCHECK_PRIME = 32003


@pytest.fixture(scope="session")
def ex1():
    return example1()


@pytest.fixture(scope="session")
def ex2():
    return example2()


@pytest.fixture(scope="session")
def kz2():
    return koszul2()


# the facets of the 6-vertex real projective plane, vertices 1..6
RP2_FACETS = "124 126 135 136 145 234 235 256 346 456".split()


@pytest.fixture(scope="session")
def rp2():
    """The Stanley-Reisner ideal of the 6-vertex RP^2: one squarefree cubic
    per vertex triple that is not a facet, 10 generators.  Its Betti numbers
    depend on the characteristic."""
    nonfaces = [t for t in combinations("123456", 3) if "".join(t) not in RP2_FACETS]
    return MonomialIdeal(Ring("abcdef"), [tuple(int(v in t) for v in "123456") for t in nonfaces])


@pytest.fixture(scope="session")
def ex2_table(ex2):
    return multigraded_betti(ex2, QQ)


@pytest.fixture(scope="session")
def ex1_table(ex1):
    return multigraded_betti(ex1, QQ)


@pytest.fixture(scope="session")
def corpus():
    return random_corpus(CORPUS_SEED, CORPUS_COUNT)


def _pairwise_minimalize(gens):
    gens = list(dict.fromkeys(tuple(g) for g in gens))
    return [g for g in gens if not any(h != g and divides(h, g) for h in gens)]


@pytest.fixture(scope="session")
def old_minimalize():
    """The pairwise-``divides`` minimalize_generators, one call per ordered
    pair: the oracle for the current one and for the random draw's rule."""
    return _pairwise_minimalize


def _mdeg_multisets(F):
    return {a: Counter(be.mdeg for be in F.modules[a]) for a in range(len(F.modules))}


def _table_multisets(table):
    out = {}
    for (a, mdeg), r in table.entries.items():
        out.setdefault(a, Counter())[mdeg] = r
    return out


@pytest.fixture(scope="session")
def corpus_results(corpus):
    gf = PrimeField(CROSSCHECK_PRIME)
    gf2 = PrimeField(2)
    rows = []
    digests = {"qq": hashlib.sha256(), "gf": hashlib.sha256(), "gf2": hashlib.sha256()}
    timers = {"strand": 0.0, "minimalize": 0.0, "complexes": 0.0}
    for I in corpus:
        t0 = time.perf_counter()
        table_q = multigraded_betti(I, QQ)
        table_p = multigraded_betti(I, gf)
        timers["strand"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        taylor = taylor_complex(I)
        scarf = scarf_complex(I)
        taylor_ok = verify_complex(taylor).ok
        scarf_ok = verify_complex(scarf).ok
        taylor_profile = shifts_of_complex(taylor)
        scarf_profile = shifts_of_complex(scarf)
        scarf_in_taylor = all(
            {be.label for be in scarf.modules[a]}
            <= {be.label for be in taylor.modules[a]}
            for a in range(len(scarf.modules))
        )
        timers["complexes"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        min_q = minimalize(taylor, QQ)
        min_p = minimalize(taylor, gf)
        timers["minimalize"] += time.perf_counter() - t0
        for key, M in (("qq", min_q), ("gf", min_p), ("gf2", minimalize(taylor, gf2))):
            digests[key].update(dumps_complex(M).encode())

        rows.append(
            {
                "ideal": I,
                "table_q": table_q,
                "table_p": table_p,
                "profile": table_q.shift_profile(),
                "taylor_profile": taylor_profile,
                "scarf_profile": scarf_profile,
                "taylor_ok": taylor_ok,
                "scarf_ok": scarf_ok,
                "scarf_in_taylor": scarf_in_taylor,
                "min_ok_q": verify_complex(min_q, QQ).ok and is_minimal(min_q),
                "min_ok_p": verify_complex(min_p, gf).ok and is_minimal(min_p),
                "min_coeff_types": {
                    type(c) for M in (min_q, min_p) for level in M.diffs
                    for col in level for _, c in col
                },
                "min_msets_q": _mdeg_multisets(min_q),
                "min_msets_p": _mdeg_multisets(min_p),
                "table_msets_q": _table_multisets(table_q),
                "table_msets_p": _table_multisets(table_p),
            }
        )
    return {"rows": rows, "timers": timers,
            "digests": {key: h.hexdigest() for key, h in digests.items()}}


RESTRICTION_PAIRS = 100


@pytest.fixture(scope="session")
def restriction_results(corpus_results):
    """100 seeded (ideal, alpha) pairs with alpha drawn from the lcm lattice:
    the restricted Betti table, the matching slice of the full table, the
    minimalized resolution and the restrictability facts about it."""
    rng = random.Random(CORPUS_SEED + 1)
    rows = []
    for rec in corpus_results["rows"]:
        if len(rows) == RESTRICTION_PAIRS:
            break
        I = rec["ideal"]
        lattice = lcm_lattice(I)
        if not lattice:
            continue
        alpha = rng.choice(lattice)
        restricted = restrict_ideal(I, alpha)
        table_restricted = multigraded_betti(restricted, QQ)
        slice_of_full = {
            (a, mdeg): r
            for (a, mdeg), r in rec["table_q"].entries.items()
            if divides(mdeg, alpha)
        }
        min_full = minimalize(taylor_complex(I), QQ)
        min_restricted = restrict_complex(min_full, alpha)
        rows.append(
            {
                "ideal": I,
                "alpha": alpha,
                "table_restricted": table_restricted,
                "slice_of_full": slice_of_full,
                "restriction_minimal": is_minimal(min_restricted),
                "restriction_verified": verify_complex(min_restricted, QQ).ok,
                "restriction_ranks": min_restricted.ranks(),
                "min_full": min_full,
            }
        )
    return rows
