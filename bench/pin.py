"""Regenerate the pinned stress ideals and the expected oracle outputs.

    python3 bench/pin.py

Draws S13 and S14 from the seeded generator as their provenance records,
writes them to bench/ideals/, recomputes every pinned output from scratch and
writes bench/ideals/expected.json.  Each Betti table is cross-checked against
the minimalized Taylor complex before it is pinned (S13 over QQ, S14 over
GF(32003); S14 over QQ by strand homology takes about 100 s and is not
computed).  Takes one to two minutes.
"""

from __future__ import annotations

import json
import os
import random
import re
import sys

import workloads
from workloads import PINNED, PRIME, complex_entries, digest, table_entries

S13_PROVENANCE = "shiftlab.randomgen.random_ideal(random.Random(1), 6, 13, 5), the first draw"
S14_PROVENANCE = ("the third draw of rng = random.Random(1), calling "
                  "shiftlab.randomgen.random_ideal(rng, 6, m, 5) for m = 10, 12, 14 in turn")


def draw_stress_ideals(sl):
    s13 = sl.random_ideal(random.Random(1), 6, 13, 5)
    rng = random.Random(1)
    for m in (10, 12, 14):
        s14 = sl.random_ideal(rng, 6, m, 5)
    return s13, s14


def pin_betti(sl, I, field) -> dict:
    table = sl.multigraded_betti(I, field)
    minimal = complex_entries(sl.minimalize(sl.taylor_complex(I), field))
    entries = table_entries(table)
    if entries != minimal:
        raise SystemExit(f"strand homology and minimalized Taylor disagree over {field!r}")
    return {
        "totals": list(table.totals()),
        "shifts": list(table.shift_profile()),
        "entries": entries,
    }


def write_ideal(sl, name, I, provenance, field, pinned):
    header = [
        f"# {name}: stress ideal of the shiftlab benchmark, pinned so that it no",
        "# longer depends on the order of rng calls.",
        f"# Provenance: {provenance}.",
        f"# Expected over {field!r}: totals {tuple(pinned['totals'])}, "
        f"shifts {' '.join(map(str, pinned['shifts']))}, "
        f"lcm lattice of {len(sl.lcm_lattice(I))}.",
    ]
    with open(os.path.join(PINNED, f"{name}.ideal"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(header) + "\n" + sl.format_ideal_text(I))


def main() -> int:
    sys.path.insert(0, workloads.SRC)
    import shiftlab as sl

    gf = sl.PrimeField(PRIME)
    s13, s14 = draw_stress_ideals(sl)
    ex1 = sl.load_ideal(workloads.EX1_FILE)
    s13_q = pin_betti(sl, s13, sl.QQ)
    s14_p = pin_betti(sl, s14, gf)
    write_ideal(sl, "S13", s13, S13_PROVENANCE, sl.QQ, s13_q)
    write_ideal(sl, "S14", s14, S14_PROVENANCE, gf, s14_p)

    resolve = {}
    for key, I in (("S14", s14), ("ex1", ex1)):
        out = workloads.resolve_ideal(sl, I, sl.lcm_lattice(I), gf)
        resolve[key] = workloads.resolve_summary(sl, out, gf)
        minimal = resolve[key]["minimal"]
        if minimal[repr(sl.QQ)] != minimal[repr(gf)]:
            raise SystemExit(f"{key}: minimal complexes over QQ and GF({PRIME}) differ")
    if resolve["S14"]["minimal"][repr(gf)] != s14_p["entries"]:
        raise SystemExit("S14: minimal complex differs from its Betti table")
    ex1_q = pin_betti(sl, ex1, sl.QQ)
    if resolve["ex1"]["minimal"][repr(sl.QQ)] != ex1_q["entries"]:
        raise SystemExit("ex1: minimal complex differs from its Betti table")

    pairs = sl.find_covering_pairs(ex1)
    bounds = workloads.symbolic_sweep(sl)
    expected = {
        "S13": {"provenance": S13_PROVENANCE, "lattice": len(sl.lcm_lattice(s13)),
                "betti": {repr(sl.QQ): s13_q}},
        "S14": {"provenance": S14_PROVENANCE, "lattice": len(sl.lcm_lattice(s14)),
                "betti": {repr(gf): s14_p}},
        "resolve": resolve,
        "paper": {
            "ex1_totals": ex1_q["totals"],
            "ex2_shifts": list(sl.shifts(sl.load_ideal(workloads.EX2_FILE))),
            "covering_pairs": len(pairs),
            "covering_digest": digest(map(repr, pairs)),
            "symbolic_bounds": len(bounds),
            "symbolic_digest": digest(bounds),
        },
    }
    text = json.dumps(expected, indent=1, sort_keys=True)
    # one line per [a, mdeg, rank] entry
    text = re.sub(r"\[\s*(-?\d+(?:,\s*-?\d+)*)\s*\]", lambda mt: "[" + re.sub(r"\s+", "", mt[1]) + "]", text)
    text = re.sub(r"\[\s*(\d+),\s*(\[[-\d,]*\]),\s*(\d+)\s*\]", r"[\1,\2,\3]", text)
    with open(os.path.join(PINNED, "expected.json"), "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print(f"pinned S13 {tuple(s13_q['totals'])}, S14 {tuple(s14_p['totals'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
