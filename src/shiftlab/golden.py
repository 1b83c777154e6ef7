"""Bundled worked-example ideals and the golden verification report.

Two fixtures ship with the package: a 12-generator ideal (its published
write-up contains two misprints in the restricted generator lists, which
the report flags rather than reproduces) and a 5-generator ideal with
Betti numbers 1, 5, 8, 5, 1.  ``verify_golden`` recomputes every recorded
value from scratch and reports pass/note/fail per line; ``note`` marks a
documented discrepancy between the literal definition and the printed text.
"""

from __future__ import annotations

import os
from functools import cache

from .betti import multigraded_betti
from .checks import check_multiple, find_covering_pairs
from .fields import QQ, PrimeField
from .monomials import (
    MonomialIdeal,
    _Record,
    _set,
    format_monomial,
    is_covering_pair,
    height,
    load_ideal,
    parse_monomial,
    restrict_ideal,
    total_degree,
)

EX1_ALPHA = (5, 5, 5, 5, 0, 0, 0)
EX1_BETA = (3, 3, 2, 2, 6, 5, 6)
EX1_PROJDIM = 7
EX1_PRINTED_P = 4
EX1_PRINTED_Q = 5
# restricted generator lists as printed in the write-up (x^3*y^3*z^2 is the
# misprint: the ideal's actual generator is x^3*y^2*z^2, which also fits
# below beta yet is absent from the printed beta list)
EX1_PRINTED_RESTRICT_ALPHA = ("x^5", "y^5", "z^5", "u^5", "x^3*y^3*z^2", "u^2*y^2*z^3")
EX1_PRINTED_RESTRICT_BETA = (
    "w^5",
    "v^6",
    "a^6",
    "x^2*w^2*v^2",
    "a^2*x^3*y^2*u^2*w^2",
    "a^2*z^2*u^2",
)

EX2_BETTI = (1, 5, 8, 5, 1)
EX2_SHIFTS = (0, 11, 13, 15, 16)
EX2_HEIGHT = 2
EX2_COVER_A = (3, 2, 2, 2, 2, 0, 2)
EX2_COVER_B = (2, 2, 3, 2, 2, 2, 0)

CROSSCHECK_PRIME = 32003


def load_fixture(name: str, fixtures_dir: str | None = None) -> MonomialIdeal:
    """The fixture ``name`` from ``fixtures_dir``, or else the copy bundled
    with the package, through load_ideal, the one reader of ideal files."""
    if fixtures_dir is None:
        fixtures_dir = os.path.join(os.path.dirname(__file__), "data")
    return load_ideal(os.path.join(fixtures_dir, name))


def example1() -> MonomialIdeal:
    return load_fixture("example1.ideal")


def example2() -> MonomialIdeal:
    return load_fixture("example2.ideal")


def koszul2() -> MonomialIdeal:
    return load_fixture("koszul2.ideal")


class GoldenRow(_Record):
    """One line of the golden report: a recorded value's ``name``, its
    ``status`` ("pass" | "note" | "fail") and a ``detail`` text."""

    __slots__ = ("name", "status", "detail")

    def __init__(self, name: str, status: str, detail: str):
        _set(self, "name", name)
        _set(self, "status", status)
        _set(self, "detail", detail)

    def __str__(self):
        return f"[{self.status.upper():4}] {self.name}: {self.detail}"


def _guarded(rows: list, name: str, fn, note=False):
    """Run one check and append its row; a raise (corrupted fixture, shorter
    resolution than recorded, a pair that no longer covers) becomes a red
    row, not a crash.  A failed check is a note when ``note`` is set."""
    try:
        ok, detail = fn()
    except Exception as exc:  # noqa: BLE001 - report, never die
        rows.append(GoldenRow(name, "fail", f"error: {exc}"))
        return
    rows.append(GoldenRow(name, "pass" if ok else "note" if note else "fail", detail))


def verify_golden(fixtures_dir: str | None = None) -> list[GoldenRow]:
    """Recompute every recorded value of the two bundled worked examples.

    Values that several rows share are computed on first use inside a
    row's check, so a raise there fails each row that needs them."""
    rows: list[GoldenRow] = []
    I2 = load_fixture("example2.ideal", fixtures_dir)
    I1 = load_fixture("example1.ideal", fixtures_dir)
    t2_q = cache(lambda: multigraded_betti(I2, QQ))
    t1_q = cache(lambda: multigraded_betti(I1, QQ))

    # --- the 5-generator example -----------------------------------------
    def _totals(table):
        totals = table.totals()
        return totals == EX2_BETTI, f"computed {totals}, recorded {EX2_BETTI}"

    _guarded(rows, "ex2 Betti numbers (QQ)", lambda: _totals(t2_q()))
    _guarded(rows, f"ex2 Betti numbers (GF({CROSSCHECK_PRIME}))",
             lambda: _totals(multigraded_betti(I2, PrimeField(CROSSCHECK_PRIME))))
    _guarded(rows, "ex2 maximal shifts", lambda: (
        tuple(t2_q().shift_profile()) == EX2_SHIFTS,
        f"computed {tuple(t2_q().shift_profile())}, recorded {EX2_SHIFTS}",
    ))
    _guarded(rows, "ex2 projective dimension", lambda: (
        t2_q().projdim == 4, f"computed {t2_q().projdim}, recorded 4"))
    _guarded(rows, "ex2 height", lambda: (
        height(I2) == EX2_HEIGHT, f"computed {height(I2)}, recorded 2"))

    def _t1():
        t1, t1_max = t2_q().shift_profile()[1], max(total_degree(g) for g in I2.gens)
        return t1 == t1_max == 11, f"t_1={t1}, max generator degree {t1_max}, recorded 11"

    _guarded(rows, "ex2 t_1 equals max generator degree", _t1)

    def _in_support():
        sup2 = t2_q().support_at(2)
        found = EX2_COVER_A in sup2 and EX2_COVER_B in sup2
        return found, f"{EX2_COVER_A} and {EX2_COVER_B} in Betti support at a=2: {found}"

    _guarded(rows, "ex2 covering multidegrees lie in F_2 support", _in_support)
    _guarded(rows, "ex2 covering pair", lambda: (
        is_covering_pair(I2, EX2_COVER_A, EX2_COVER_B),
        f"I = I^<=alpha + I^<=beta for {EX2_COVER_A}, {EX2_COVER_B}",
    ))
    _guarded(rows, "ex2 discovered by the F_2 search", lambda: (
        tuple(sorted((EX2_COVER_A, EX2_COVER_B)))
        in find_covering_pairs(I2, at=2, table=t2_q()),
        "find_covering_pairs(at=2) returns the recorded pair",
    ))

    def _multiple():
        rep = check_multiple(I2, [(EX2_COVER_A, 2), (EX2_COVER_B, 2)], table=t2_q())
        return rep.holds and rep.lhs == 16 and rep.rhs == 26, f"{rep.lhs} <= {rep.rhs}"

    _guarded(rows, "ex2 t_4 <= t_2 + t_2", _multiple)

    # --- the 12-generator example -----------------------------------------
    _guarded(rows, "ex1 projective dimension", lambda: (
        t1_q().projdim == EX1_PROJDIM,
        f"computed {t1_q().projdim}, recorded {EX1_PROJDIM}",
    ))
    _guarded(rows, "ex1 covering pair", lambda: (
        is_covering_pair(I1, EX1_ALPHA, EX1_BETA), f"alpha={EX1_ALPHA}, beta={EX1_BETA}"))

    def _restriction(vector, printed, remark):
        computed = set(restrict_ideal(I1, vector).gens)
        listed = {parse_monomial(s, I1.ring) for s in printed}
        return listed == computed, "computed {%s}; printed {%s} (%s)" % (
            ", ".join(sorted(format_monomial(g, I1.ring) for g in computed)),
            ", ".join(sorted(printed)),
            remark,
        )

    def _projdim(vector, recorded, source=""):
        computed = multigraded_betti(restrict_ideal(I1, vector), QQ).projdim
        return computed == recorded, f"computed {computed}{source}, recorded {recorded}"

    _guarded(rows, "ex1 restriction below alpha matches the printed list",
             lambda: _restriction(EX1_ALPHA, EX1_PRINTED_RESTRICT_ALPHA,
                                  "known misprint: x^3*y^2*z^2 vs x^3*y^3*z^2"), note=True)
    _guarded(rows, "ex1 p = projdim of the alpha restriction",
             lambda: _projdim(EX1_ALPHA, EX1_PRINTED_P))
    _guarded(rows, "ex1 restriction below beta matches the printed list",
             lambda: _restriction(EX1_BETA, EX1_PRINTED_RESTRICT_BETA,
                                  "the printed list omits x^3*y^2*z^2"), note=True)
    _guarded(rows, "ex1 q = projdim of the beta restriction",
             lambda: _projdim(EX1_BETA, EX1_PRINTED_Q, " from the definition"), note=True)

    def _top_inequality():
        t = t1_q().shift_profile()
        rhs = max(t[2] + t[5], t[3] + t[4])
        return (
            t[7] <= rhs,
            f"t_7={t[7]}, bound {rhs} (t_2={t[2]}, t_3={t[3]}, t_4={t[4]}, t_5={t[5]})",
        )

    _guarded(rows, "ex1 t_7 <= max{t_2 + t_5, t_3 + t_4}", _top_inequality)
    return rows


def golden_ok(rows: list[GoldenRow]) -> bool:
    return all(r.status != "fail" for r in rows)
