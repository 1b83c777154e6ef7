import argparse
import hashlib
import json
import re
import shutil
from collections import Counter
from importlib import resources
from itertools import combinations
from pathlib import Path

import pytest

import shiftlab.betti
import shiftlab.checks
import shiftlab.cli
import shiftlab.complexes
from shiftlab import (CapExceededError, InequalityReport, complex_from_json, lcm_lattice,
                      load_ideal, multigraded_betti, scarf_complex, taylor_complex,
                      verify_complex)
from shiftlab.cli import NEEDS, build_parser, main

FIXDIR = resources.files("shiftlab") / "data"
EX1 = str(FIXDIR / "example1.ideal")
EX2 = str(FIXDIR / "example2.ideal")
KOSZUL = str(FIXDIR / "koszul2.ideal")


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


# --- betti -------------------------------------------------------------------

def test_betti_example2_text(capsys):
    rc, out, _ = run(capsys, "betti", EX2)
    assert rc == 0
    assert "coarse: 1 5 8 5 1" in out
    assert "p = 4" in out


def test_betti_koszul(capsys):
    rc, out, _ = run(capsys, "betti", KOSZUL)
    assert rc == 0 and "coarse: 1 2 1" in out


def test_betti_example1_header(capsys):
    rc, out, _ = run(capsys, "betti", EX1)
    assert rc == 0 and "p = 7" in out


def test_betti_json_schema(capsys):
    rc, out, _ = run(capsys, "betti", EX2, "--format", "json", "--field", "p:32003")
    obj = json.loads(out)
    assert rc == 0
    assert obj["totals"] == [1, 5, 8, 5, 1]
    assert obj["projdim"] == 4
    assert {"a": 0, "degree": 0, "rank": 1} in obj["coarse"]
    assert all(set(e) == {"a", "mdeg", "rank"} for e in obj["entries"])


# --- shifts ---------------------------------------------------------------------

def test_shifts_example2(capsys):
    rc, out, _ = run(capsys, "shifts", EX2)
    assert rc == 0 and "0 11 13 15 16" in out


def test_shifts_koszul(capsys):
    rc, out, _ = run(capsys, "shifts", KOSZUL)
    assert rc == 0 and "0 1 2" in out


def test_shifts_example1_inequality(capsys):
    rc, out, _ = run(capsys, "shifts", EX1, "--format", "json")
    t = json.loads(out)["shifts"]
    assert rc == 0
    assert t[7] <= max(t[2] + t[5], t[3] + t[4])


# --- check ----------------------------------------------------------------------

def test_check_consecutive_example2(capsys):
    rc, out, _ = run(capsys, "check", EX2, "consecutive", "--format", "json")
    reports = [json.loads(line) for line in out.splitlines()]
    assert rc == 0 and len(reports) == 4 and all(r["holds"] for r in reports)


def test_check_multiple_example2(capsys):
    rc, out, _ = run(capsys, "check", EX2, "multiple",
                     "--cover", "2:3,2,2,2,2,0,2", "--cover", "2:2,2,3,2,2,2,0",
                     "--format", "json")
    rep = json.loads(out)
    assert rc == 0 and rep["holds"] and rep["lhs"] == 16 and rep["rhs"] == 26


def test_check_covering_example1(capsys):
    rc, out, _ = run(capsys, "check", EX1, "covering",
                     "--alpha", "5,5,5,5,0,0,0", "--beta", "3,3,2,2,6,5,6",
                     "--format", "json")
    reports = [json.loads(line) for line in out.splitlines()]
    assert rc == 0 and all(r["holds"] for r in reports)
    a7 = [r for r in reports if r["name"] == "covering-shift" and r["params"]["a"] == 7]
    assert a7 and sorted(map(tuple, a7[0]["witnesses"]["splits"]))


@pytest.mark.parametrize("which, extra", [("covering", ()), ("range", ("--at", "7"))])
def test_check_covering_builds_one_table(capsys, monkeypatch, which, extra):
    calls = []
    real = shiftlab.cli.multigraded_betti

    def counted(I, field):
        calls.append(I)
        return real(I, field)

    monkeypatch.setattr(shiftlab.cli, "multigraded_betti", counted)
    monkeypatch.setattr(shiftlab.checks, "multigraded_betti", counted)
    rc, _, _ = run(capsys, "check", EX1, which, "--alpha", "5,5,5,5,0,0,0",
                   "--beta", "3,3,2,2,6,5,6", *extra)
    assert rc == 0 and len(calls) == 1


def test_check_range_example2(capsys):
    rc, out, _ = run(capsys, "check", EX2, "range",
                     "--alpha", "3,2,2,2,2,0,2", "--beta", "2,2,3,2,2,2,0",
                     "--at", "4", "--format", "json")
    rep = json.loads(out)
    assert rc == 0 and rep["holds"]
    assert rep["params"]["s"] == rep["params"]["p"] + rep["params"]["q"] - 4


def test_check_general_cli(tmp_path, capsys):
    fixture = tmp_path / "zerodim.ideal"
    lines = ["vars: x1 x2 x3 x4 x5 x6 x7"]
    lines += [f"x{i}^3" for i in range(1, 8)] + ["x1^2*x2^2"]
    fixture.write_text("\n".join(lines) + "\n")
    rc, out, _ = run(capsys, "check", str(fixture), "general",
                     "--at", "6", "--p", "4", "--format", "json")
    rep = json.loads(out)
    assert rc == 0 and rep["holds"] and rep["name"] == "general"
    # precondition violations surface as usage errors
    rc, _, err = run(capsys, "check", EX1, "general", "--at", "6", "--p", "4")
    assert rc == 4 and "2n-6" in err


def test_check_all_exit_zero(capsys):
    rc, _, _ = run(capsys, "check", KOSZUL, "all")
    assert rc == 0


def test_zero_ideal_through_cli(tmp_path, capsys):
    empty = tmp_path / "zero.ideal"
    empty.write_text("vars: x y\n")
    rc, out, _ = run(capsys, "betti", str(empty))
    assert rc == 0 and "coarse: 1" in out
    rc, out, _ = run(capsys, "check", str(empty), "all")
    assert rc == 0
    # all leaves top out on the zero ideal; asked for by name it is refused,
    # as check_top refuses it
    rc, out, err = run(capsys, "check", str(empty), "top")
    assert (rc, out) == (4, "") and "zero ideal: no top shift to bound" in err
    for kind in ("subadditivity", "consecutive"):
        rc, _, _ = run(capsys, "check", str(empty), kind)
        assert rc == 0, kind


def test_check_covering_bad_pair_exit4(capsys):
    rc, _, err = run(capsys, "check", EX2, "covering",
                     "--alpha", "0,0,0,0,0,0,0", "--beta", "0,0,0,0,0,0,0")
    assert rc == 4


def test_check_missing_args_exit4(capsys):
    rc, _, _ = run(capsys, "check", EX2, "covering")
    assert rc == 4
    rc, _, _ = run(capsys, "check", EX2, "multiple")
    assert rc == 4
    # a multidegree that is not a Betti support point at that index
    rc, _, err = run(capsys, "check", EX2, "multiple", "--cover", "1:1,1,1,1,1,1,1")
    assert rc == 4 and "not a Betti support point" in err
    # vectors and cover indices are ASCII digits only, as in the ideal text format
    pair = ["--alpha", "3,2,2,2,2,0,2", "--beta", "2,2,3,2,2,2,0"]
    for bad in ("2,2,3,2,2,2,0_0", "2,2,\uff13,2,2,2,0", "2,2,3,2,2,2,-0", "2, 2,3,2,2,2,0"):
        rc, _, err = run(capsys, "check", EX2, "covering", *pair[:3], bad)
        assert rc == 4 and "bad exponent vector" in err, bad
    for bad in ("2_0:3,2,2,2,2,0,2", "\uff12:3,2,2,2,2,0,2", "+2:3,2,2,2,2,0,2"):
        rc, _, err = run(capsys, "check", EX2, "multiple", "--cover", bad,
                         "--cover", "2:2,2,3,2,2,2,0")
        assert rc == 4 and "bad cover" in err, bad
    # a = -1 once reported a false violation (exit 1) through negative indexing
    rc, out, err = run(capsys, "check", EX2, "range", *pair, "--at", "-1")
    assert rc == 4 and out == "" and "a=-1" in err
    # numeric options are ASCII digits too (a full-width one, an underscore)
    for opt in (["--at", "\uff11"], ["--at", "1_0"], ["--at", "+1"]):
        rc, out, err = run(capsys, "check", EX2, "range", *pair, *opt)
        assert rc == 4 and out == "" and opt[0] in err, opt
    rc, out, err = run(capsys, "check", EX2, "general", "--at", "5", "--p", "2_2")
    assert rc == 4 and out == "" and "--p" in err
    rc, out, _ = run(capsys, "check", EX2, "general", "--at", "5", "--p", "\uff12")
    assert rc == 4 and out == ""


# one value of each option that a check kind may read, valid for EX2
CHECK_OPTS = {"alpha": "3,2,2,2,2,0,2", "beta": "2,2,3,2,2,2,0", "at": "4", "p": "2",
              "cover": "2:3,2,2,2,2,0,2"}


def no_betti(monkeypatch):
    """Record each Betti table the CLI asks for, and build none."""
    calls = []
    monkeypatch.setattr(shiftlab.cli, "multigraded_betti", lambda *args: calls.append(args))
    return calls


def check_argv(kind, opts):
    return ["check", EX2, kind, *[x for opt in opts for x in (f"--{opt}", CHECK_OPTS[opt])]]


@pytest.mark.parametrize("kind, opts, message", [
    (kind, [*NEEDS[kind], extra], f"{kind} does not read --{extra}")
    for kind in NEEDS for extra in CHECK_OPTS if extra not in NEEDS[kind]
] + [
    (kind, [opt for opt in NEEDS[kind] if opt != missing], f"{kind} needs --{missing}")
    for kind in NEEDS for missing in NEEDS[kind]
])
def test_check_reads_only_its_own_options(capsys, monkeypatch, kind, opts, message):
    calls = no_betti(monkeypatch)
    rc, out, err = run(capsys, *check_argv(kind, opts))
    assert rc == 4 and out == "" and err == f"shiftlab: {message}\n" and calls == []


@pytest.mark.parametrize("argv", [
    ["covering", "--alpha", "1_0", "--beta", "2,2,3,2,2,2,0"],
    ["multiple", "--cover", "2_0:3,2,2,2,2,0,2"],
])
def test_check_parses_vectors_and_covers_before_the_table(capsys, monkeypatch, argv):
    calls = no_betti(monkeypatch)
    rc, out, err = run(capsys, "check", EX2, *argv)
    assert rc == 4 and out == "" and err.startswith("shiftlab: bad ") and calls == []


def test_check_reads_the_ideal_before_its_options(tmp_path, capsys):
    bad = tmp_path / "bad.ideal"
    bad.write_text("vars: x y\nq^2\n")
    rc, out, err = run(capsys, "check", str(bad), "top", "--alpha", "1,2")
    assert rc == 2 and out == "" and "cannot read ideal" in err


@pytest.mark.parametrize("kind", ["all", "top"])
def test_check_exits_1_when_a_proved_inequality_fails(capsys, monkeypatch, kind):
    def broken_top(I, field, *, profile):
        return InequalityReport("top", {"p": 4}, 17, 16)

    monkeypatch.setattr(shiftlab.cli, "check_top", broken_top)
    rc, out, _ = run(capsys, "check", EX2, kind)
    assert rc == 1 and out.splitlines()[-1] == "top [p=4]: 17 <= 16 -> VIOLATION"


# --- random ------------------------------------------------------------------------

def test_random_ledger(capsys):
    rc, out, _ = run(capsys, "random", "--seed", "1", "--n", "4", "--m", "5",
                     "--maxexp", "3", "--count", "100")
    lines = out.strip().splitlines()
    assert rc == 0 and len(lines) == 100
    for line in lines:
        rec = json.loads(line)
        assert rec["seed"] == 1
        assert rec.get("skipped") or (rec["proven_ok"] and "shifts" in rec)


def test_random_deterministic(capsys):
    rc1, out1, _ = run(capsys, "random", "--seed", "9", "--n", "3", "--m", "4",
                       "--maxexp", "2", "--count", "20")
    rc2, out2, _ = run(capsys, "random", "--seed", "9", "--n", "3", "--m", "4",
                       "--maxexp", "2", "--count", "20")
    assert rc1 == rc2 == 0 and out1 == out2


def test_random_ledger_pinned(capsys):
    # sha256 of the ledger that the bench paper workload asks for: the draw and
    # every record must keep their bytes
    rc, out, _ = run(capsys, "random", "--seed", "20260810", "--n", "6", "--m", "8",
                     "--maxexp", "4", "--count", "100")
    assert rc == 0 and hashlib.sha256(out.encode()).hexdigest() == (
        "50c9b44ffc2c32541e578977698af14ca1e4e9aeb225072a82b2b0a0db883911")


def test_random_cap_skips(capsys, monkeypatch):
    # the lattice limit at 2^3: 5 generators, and at most 8 lattice elements
    monkeypatch.setattr(shiftlab.complexes, "GENERATOR_CAP", 3)
    rc, out, _ = run(capsys, "random", "--seed", "1", "--n", "4", "--m", "5",
                     "--maxexp", "3", "--count", "3")
    recs = [json.loads(line) for line in out.strip().splitlines()]
    assert rc == 0 and [r["index"] for r in recs] == [0, 1, 2]
    for rec in recs:
        skipped = rec.pop("skipped")
        assert rec == {"seed": 1, "index": rec["index"], "n": 4, "m": 5, "maxexp": 3}
        assert re.fullmatch(r"lcm lattice of \d+ elements after [34] of 5 generators "
                            r"could pass the limit 2\^3", skipped), skipped


def test_random_stops_at_a_failed_proved_inequality(capsys, monkeypatch):
    # the third ideal checked gets a false consecutive report: its ledger
    # line is the last, and one BUG line names the seed and its index
    real, calls = shiftlab.cli.check_consecutive, []

    def consecutive(I, field, *, profile):
        calls.append(I)
        reports = real(I, field, profile=profile)
        if len(calls) == 3:
            r = reports[0]
            reports[0] = InequalityReport(r.name, r.params, r.rhs + 1, r.rhs)
        return reports

    monkeypatch.setattr(shiftlab.cli, "check_consecutive", consecutive)
    rc, out, err = run(capsys, "random", "--seed", "1", "--n", "4", "--m", "5",
                       "--maxexp", "3", "--count", "100")
    records = [json.loads(line) for line in out.splitlines()]
    last = records[-1]
    assert rc == 1 and len(calls) == 3
    assert [r["proven_ok"] for r in records if "skipped" not in r] == [True, True, False]
    assert re.fullmatch(rf"BUG: proved inequality failed on seed=1 index={last['index']}: "
                        r"consecutive \[a=1\]: \d+ <= \d+ -> VIOLATION\n", err), err


def test_random_empty(capsys):
    rc, out, _ = run(capsys, "random", "--seed", "1", "--n", "3", "--m", "3",
                     "--maxexp", "2", "--count", "0")
    assert rc == 0 and out.strip() == ""


RANDOM_OK = {"--seed": "1", "--n": "3", "--m": "2", "--maxexp": "2", "--count": "1"}


@pytest.mark.parametrize("opt,value", [
    ("--maxexp", "0"),  # every draw was the zero vector: the stream never ended
    ("--n", "-1"),
    ("--n", "0"),
    ("--n", "30"),  # past the variable pool; once reported as a bad generator
    ("--m", "-1"),  # once printed "skipped" lines and exited 0
    ("--count", "-2"),  # once printed nothing and exited 0
    ("--seed", "1_0"),
    ("--seed", "\uff11"),
    ("--count", "1_0"),
    ("--maxexp", "2_2"),
])
def test_random_bad_args_exit4(capsys, opt, value):
    args = {**RANDOM_OK, opt: value}
    rc, out, err = run(capsys, "random", *[x for kv in args.items() for x in kv])
    assert rc == 4 and out == "" and err.startswith("shiftlab:")


def test_random_negative_seed_ok(capsys):
    rc, out, _ = run(capsys, "random", *[x for kv in {**RANDOM_OK, "--seed": "-3"}.items()
                                         for x in kv])
    assert rc == 0 and json.loads(out)["seed"] == -3


def test_random_bad_args_leave_no_ledger(tmp_path, capsys):
    ledger = tmp_path / "ledger.jsonl"
    rc, out, err = run(capsys, "random", "--seed", "1", "--n", "0", "--m", "3",
                       "--maxexp", "2", "--count", "2", "--out", str(ledger))
    assert rc == 4 and out == "" and err.startswith("shiftlab:")
    assert not ledger.exists()


def test_random_out_file(tmp_path, capsys):
    ledger = tmp_path / "ledger.jsonl"
    rc, out, _ = run(capsys, "random", "--seed", "2", "--n", "3", "--m", "3",
                     "--maxexp", "2", "--count", "5", "--out", str(ledger))
    assert rc == 0 and out == ""
    assert len(ledger.read_text().splitlines()) == 5
    rc, _, _ = run(capsys, "random", "--seed", "3", "--n", "3", "--m", "3",
                   "--maxexp", "2", "--count", "5", "--out", str(ledger))
    assert rc == 0 and len(ledger.read_text().splitlines()) == 10  # appended


def test_random_unwritable_out_exit4(tmp_path, capsys):
    # a directory, or a file under a missing directory, is a bad --out
    # argument, not unreadable ideal input (exit 2)
    for out_path in (tmp_path, tmp_path / "missing" / "ledger.jsonl"):
        rc, out, err = run(capsys, "random", *[x for kv in RANDOM_OK.items() for x in kv],
                           "--out", str(out_path))
        assert rc == 4 and out == ""
        assert err.startswith("shiftlab: cannot open --out file") and str(out_path) in err


# --- exit codes -----------------------------------------------------------------------

def test_missing_file_exit2(capsys):
    rc, _, err = run(capsys, "betti", "/nonexistent.ideal")
    assert rc == 2 and "cannot read" in err


def test_malformed_file_exit2(tmp_path, capsys):
    bad = tmp_path / "bad.ideal"
    for text in [
        "vars: x y\nq^2\n",
        '{"vars": ["x", "y"], "gens": [[2.7, 1], [true, 0]]}',  # no coercion to (x)
        '{"vars": ["x", "y"], "gens": [[-1, 2]]}',
        '{"vars": ["x", "x"], "gens": [[1, 0]]}',
        "vars: x x\nx\n",
        "vars: x y\n1\n",  # the unit ideal
        "vars: x\nx^1_0\n",  # exponents are ASCII digits and nothing else
        "vars: x\nx^ 2\n",
        "vars: x\nx^+2\n",
        "vars: x\nx^\uff12\n",  # a full-width digit two
    ]:
        bad.write_text(text, encoding="utf-8")
        rc, _, err = run(capsys, "betti", str(bad))
        assert rc == 2 and "cannot read ideal" in err, text


# an ideal file that is not UTF-8, and JSON nested past the parser's recursion
# limit: each once exited 4 or crashed with exit 1, the code of a failed proof
UNREADABLE = {"not-utf8": b"vars: x y\nx^2\xff\n",
              "deep-json": b'{"vars": ["x"], "gens": ' + b"[" * 200000}


@pytest.mark.parametrize("content", UNREADABLE.values(), ids=UNREADABLE.keys())
@pytest.mark.parametrize("command", ["betti", "shifts", "check", "dump"])
def test_unreadable_ideal_exit2(tmp_path, capsys, command, content):
    bad = tmp_path / "bad.ideal"
    bad.write_bytes(content)
    rc, out, err = run(capsys, command, str(bad), *(["all"] if command == "check" else []))
    assert rc == 2 and out == "" and "cannot read ideal" in err


@pytest.mark.parametrize("content", UNREADABLE.values(), ids=UNREADABLE.keys())
def test_verify_paper_unreadable_fixture_exit2(tmp_path, capsys, content):
    for name in ("example1.ideal", "koszul2.ideal"):
        shutil.copy(str(FIXDIR / name), tmp_path / name)
    (tmp_path / "example2.ideal").write_bytes(content)
    rc, out, err = run(capsys, "verify-paper", "--fixtures", str(tmp_path))
    assert rc == 2 and out == "" and "cannot read ideal" in err


def test_deep_json_exit2_without_traceback(tmp_path):
    import os
    import subprocess
    import sys

    deep = tmp_path / "deep.ideal"
    deep.write_bytes(UNREADABLE["deep-json"])
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "shiftlab", "betti", str(deep)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and "Traceback" not in proc.stderr, proc.stderr
    assert "bad JSON" in proc.stderr


def _y_times_square_22(tmp_path):
    """y*(x, y)^22: 23 generators, 2^23 Taylor faces, on an lcm lattice of
    277 elements."""
    big = tmp_path / "big.ideal"
    lines = ["vars: x y"] + [f"x^{23 - k}*y^{k}" for k in range(1, 23)] + ["y^23"]
    big.write_text("\n".join(lines) + "\n")
    return big


def test_cap_exceeded_exit3(tmp_path, capsys):
    # past 2^22 Taylor faces, Betti, shifts and Scarf still run on the
    # lattice, and dump --complex taylor|minimal exits 3
    big = _y_times_square_22(tmp_path)
    I = load_ideal(str(big))
    assert len(lcm_lattice(I)) == 276
    assert multigraded_betti(I).totals() == scarf_complex(I).ranks() == (1, 23, 22)
    rc, out, _ = run(capsys, "betti", str(big))
    assert rc == 0 and "coarse: 1 23 22" in out
    rc, out, _ = run(capsys, "shifts", str(big))
    assert rc == 0 and out.splitlines()[-1] == "0 23 24"
    rc, out, _ = run(capsys, "dump", str(big), "--complex", "scarf")
    assert rc == 0 and complex_from_json(json.loads(out)).ranks() == (1, 23, 22)


@pytest.mark.parametrize("kind", ["taylor", "minimal"])
def test_dump_cap_exceeded_exit3(tmp_path, capsys, kind):
    # the Taylor complex checks its 2^m faces before any face is built
    big = _y_times_square_22(tmp_path)
    rc, out, err = run(capsys, "dump", str(big), "--complex", kind)
    assert rc == 3 and out == ""
    assert "Taylor complex of 8388608 faces passes the limit 2^22" in err


def test_taylor_limit_boundary(tmp_path, capsys, monkeypatch):
    # at 2^3, 3 generators (8 faces) are admitted and 4 (16) are refused,
    # through the library and dump, before _face_complex is called
    three, four = tmp_path / "three.ideal", tmp_path / "four.ideal"
    three.write_text("vars: a b c d\na\nb\nc\n")
    four.write_text("vars: a b c d\na\nb\nc\nd\n")
    monkeypatch.setattr(shiftlab.complexes, "GENERATOR_CAP", 3)
    assert taylor_complex(load_ideal(str(three))).ranks() == (1, 3, 3, 1)
    for kind in ("taylor", "minimal"):
        rc, out, _ = run(capsys, "dump", str(three), "--complex", kind)
        assert rc == 0 and complex_from_json(json.loads(out)).ranks() == (1, 3, 3, 1)
    calls = Counter()
    real = shiftlab.complexes._face_complex
    monkeypatch.setattr(shiftlab.complexes, "_face_complex",
                        lambda levels: calls.update(["built"]) or real(levels))
    with pytest.raises(CapExceededError, match=r"^Taylor complex of 16 faces passes the limit 2\^3$"):
        taylor_complex(load_ideal(str(four)))
    for kind in ("taylor", "minimal"):
        rc, out, err = run(capsys, "dump", str(four), "--complex", kind)
        assert rc == 3 and out == "" and "Taylor complex of 16 faces passes the limit 2^3" in err
    assert not calls


def test_wide_exponents(tmp_path, capsys):
    # the ideal the CI workflow gives the installed script: its multidegrees
    # pack into fields of 3 bytes a variable
    path = tmp_path / "wide.ideal"
    path.write_text("vars: x y z\nx^200*y^3\nx^5*y^300\ny^2*z^70000\nx^130*z^9\n")
    rc, out, _ = run(capsys, "shifts", str(path))
    assert rc == 0 and out.splitlines()[-1] == "0 70002 70305 70430"
    rc, out, _ = run(capsys, "betti", str(path))
    assert rc == 0 and "coarse: 1 4 5 2" in out.splitlines()


def test_lattice_limit_exit3(tmp_path, capsys, monkeypatch):
    # the complete intersection on 6 variables has 2^6 lattice elements: at
    # 2^5 the lattice limit refuses it (the library: test_complexes.py)
    ci6 = tmp_path / "ci6.ideal"
    ci6.write_text("vars: a b c d e f\na\nb\nc\nd\ne\nf\n")
    rc, out, _ = run(capsys, "betti", str(ci6))
    assert rc == 0 and "coarse: 1 6 15 20 15 6 1" in out
    monkeypatch.setattr(shiftlab.complexes, "GENERATOR_CAP", 5)
    rc, out, err = run(capsys, "betti", str(ci6))
    assert rc == 3 and out == ""
    assert "lcm lattice of 32 elements after 5 of 6 generators could pass the limit 2^5" in err


def test_face_limit_exit3(tmp_path, capsys, monkeypatch):
    # the edge ideal of the complete graph on 6 vertices: its strands rank
    # 176 faces in all, and its lattice has at most 57 elements before a
    # generator step, so the lattice limit admits it at 2^7 and the face
    # limit refuses it there, before any face is grown
    edges = [a + "*" + b for a, b in combinations("abcdef", 2)]
    path = tmp_path / "k6.ideal"
    path.write_text("\n".join(["vars: a b c d e f", *edges]) + "\n")
    I = load_ideal(str(path))
    grown = Counter()
    for name in ("_lyubeznik_faces", "_koszul_faces"):
        real = getattr(shiftlab.betti, name)
        monkeypatch.setattr(shiftlab.betti, name,
                            lambda *args, name=name, real=real: grown.update([name]) or real(*args))
    monkeypatch.setattr(shiftlab.complexes, "GENERATOR_CAP", 8)
    assert multigraded_betti(I).totals() == (1, 15, 40, 45, 24, 5)
    assert grown["_lyubeznik_faces"] == 1
    grown.clear()
    monkeypatch.setattr(shiftlab.complexes, "GENERATOR_CAP", 7)
    with pytest.raises(CapExceededError, match="^176 strand faces to rank pass the limit 2\\^7$"):
        multigraded_betti(I)
    rc, out, err = run(capsys, "betti", str(path))
    assert rc == 3 and out == "" and "176 strand faces to rank pass the limit 2^7" in err
    assert not grown


def test_bad_field_exit4(capsys):
    # the prime is ASCII digits: p:\uff13 once ran over GF(3)
    for spec in ("p:10", "p:\uff13", "p:3_1", "p: 3", "p:+3", "p:-3"):
        rc, out, err = run(capsys, "betti", EX2, "--field", spec)
        assert rc == 4 and out == "" and "prime" in err, spec


def test_bad_usage_exit4(capsys):
    rc, _, _ = run(capsys, "frobnicate")
    assert rc == 4


@pytest.mark.parametrize("argv", [
    # each of these options was accepted and never read; dump --cap is gone
    ["verify-paper", "--field", "p:3"],
    ["verify-paper", "--cap", "5"],
    ["random", *[x for kv in RANDOM_OK.items() for x in kv], "--format", "text"],
    ["dump", KOSZUL, "--format", "text"],
    ["betti", KOSZUL, "--cap", "5"],
    ["random", *[x for kv in RANDOM_OK.items() for x in kv], "--cap", "5"],
    ["dump", KOSZUL, "--cap", "5"],
], ids=["verify-paper-field", "verify-paper-cap", "random-format", "dump-format", "betti-cap",
        "random-cap", "dump-cap"])
def test_unread_options_exit4(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 4 and out == "" and "unrecognized arguments" in err


def test_readme_synopsis_lists_the_accepted_options():
    """The README's CLI synopsis names, per subcommand, exactly the options
    the parser accepts."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    documented: dict[str, set[str]] = {}
    for line in block.splitlines():
        if line.startswith("shiftlab "):
            command = line.split()[1]
        documented.setdefault(command, set()).update(re.findall(r"--[a-z]+", line))
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    accepted = {
        name: {opt for act in sub._actions for opt in act.option_strings} - {"-h", "--help"}
        for name, sub in subparsers.choices.items()
    }
    assert documented == accepted


# --- dump -------------------------------------------------------------------------------

@pytest.mark.parametrize("kind,ranks", [
    ("taylor", (1, 5, 10, 10, 5, 1)),
    ("scarf", (1, 5, 7, 3)),
    ("minimal", (1, 5, 8, 5, 1)),
])
def test_dump_roundtrip(capsys, kind, ranks):
    rc, out, _ = run(capsys, "dump", EX2, "--complex", kind)
    obj = json.loads(out)
    assert rc == 0 and obj["kind"] == kind
    F = complex_from_json(obj)
    assert F.ranks() == ranks
    assert verify_complex(F).ok


def test_dump_reads_field_only_for_the_minimal_complex(capsys):
    # --field picks the field minimalize works over, so only --complex
    # minimal reads it; the Taylor and Scarf complexes were once dumped
    # with the option silently ignored
    for kind in ("taylor", "scarf"):
        rc, out, err = run(capsys, "dump", EX2, "--complex", kind, "--field", "p:3")
        assert rc == 4 and out == "" and f"dump --complex {kind} does not read --field" in err
    rc, out, err = run(capsys, "dump", EX2, "--field", "q")
    assert rc == 4 and out == "" and "dump --complex taylor does not read --field" in err
    rc, out, _ = run(capsys, "dump", "missing.ideal", "--field", "p:3")
    assert rc == 2 and out == ""
    rc, out, err = run(capsys, "dump", EX2, "--complex", "minimal", "--field", "p:10")
    assert rc == 4 and out == "" and "prime" in err
    for field in ("q", "p:3"):
        rc, out, _ = run(capsys, "dump", EX2, "--complex", "minimal", "--field", field)
        assert rc == 0 and complex_from_json(json.loads(out)).ranks() == (1, 5, 8, 5, 1)


# --- verify-paper -------------------------------------------------------------------------

def test_verify_paper_green(capsys):
    rc, out, _ = run(capsys, "verify-paper")
    assert rc == 0
    assert "[FAIL]" not in out
    assert "[NOTE]" in out  # the two documented misprints


def test_verify_paper_json(capsys):
    rc, out, _ = run(capsys, "verify-paper", "--format", "json")
    rows = json.loads(out)
    assert rc == 0 and all(r["status"] in ("pass", "note") for r in rows)


def test_installed_console_script():
    import subprocess

    proc = subprocess.run(
        ["shiftlab", "shifts", EX2], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert "0 11 13 15 16" in proc.stdout


def test_python_m_shiftlab():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "shiftlab", "betti", EX2],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "coarse: 1 5 8 5 1" in proc.stdout


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # every CLI call pays its imports: dataclasses (and the inspect, ast, dis
    # and tokenize it pulls in) cost about 20 ms of each start-up
    import os
    import subprocess
    import sys

    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import shiftlab.cli, sys; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_verify_paper_corrupted_fixture(tmp_path, capsys):
    for name in ("example1.ideal", "example2.ideal", "koszul2.ideal"):
        shutil.copy(str(FIXDIR / name), tmp_path / name)
    text = (tmp_path / "example2.ideal").read_text()
    (tmp_path / "example2.ideal").write_text(text + "z^9\n")
    rc, out, _ = run(capsys, "verify-paper", "--fixtures", str(tmp_path))
    assert rc == 1 and "[FAIL]" in out


def test_verify_paper_reports_raising_checks(tmp_path, capsys):
    # an eighth variable makes every recorded ex1 vector too short: the
    # checks that read one raise, and each such raise is a [FAIL] row
    for name in ("example1.ideal", "example2.ideal", "koszul2.ideal"):
        shutil.copy(str(FIXDIR / name), tmp_path / name)
    text = (tmp_path / "example1.ideal").read_text()
    (tmp_path / "example1.ideal").write_text(
        text.replace("vars: x y z u v w a\n", "vars: x y z u v w a b\n"))
    rc, out, _ = run(capsys, "verify-paper", "--fixtures", str(tmp_path))
    lines = out.splitlines()
    assert rc == 1
    assert [line.split(":")[0] for line in lines if "error: " in line] == [
        "[FAIL] ex1 covering pair",
        "[FAIL] ex1 restriction below alpha matches the printed list",
        "[FAIL] ex1 p = projdim of the alpha restriction",
        "[FAIL] ex1 restriction below beta matches the printed list",
        "[FAIL] ex1 q = projdim of the beta restriction",
    ]
    ex2 = [line for line in lines if line.startswith("[") and " ex2 " in line]
    assert len(ex2) == 10 and all(line.startswith("[PASS]") for line in ex2)


def test_verify_paper_shared_table_raise_fails_its_rows(capsys, monkeypatch):
    # ex1's lattice of 1252 elements passes the lowered lattice limit, so
    # the shared Betti table of ex1 raises: every row that reads it fails,
    # the rows that do not still run
    monkeypatch.setattr(shiftlab.complexes, "GENERATOR_CAP", 10)
    rc, out, _ = run(capsys, "verify-paper")
    failed = {line.split(":")[0] for line in out.splitlines() if "limit 2^10" in line}
    assert rc == 1
    assert failed == {"[FAIL] ex1 projective dimension",
                      "[FAIL] ex1 t_7 <= max{t_2 + t_5, t_3 + t_4}"}
    assert "[PASS] ex2 t_4 <= t_2 + t_2" in out
