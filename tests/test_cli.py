"""Front-end behavior: output bytes, exit codes, error diagnostics."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from multicoh import (AuditReport, InputError, LineBundleSum, Shape, bundle_from_json,
                      bundle_to_json, cli, cohomology_table, criteria)
from multicoh.cli import build_parser, emit_table, main

from support import bundles_st, emit_table_oracle, forbid_diagonal_join

SRC = Path(__file__).resolve().parents[1] / "src"

O22 = '{"shape":[2,2],"summands":[{"degree":[0,0],"mult":1}]}'
O03 = '{"shape":[2,2],"summands":[{"degree":[0,3],"mult":1}]}'
CANONICAL = '{"shape":[2,2],"summands":[{"degree":[-3,-3],"mult":1}]}'


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as e:  # argparse refusals and --help
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ cohomology

def test_cohomology_single_t(capsys):
    code, out, err = run(
        capsys, "cohomology", "--bundle", CANONICAL, "--t", "4"
    )
    assert code == 0 and err == ""
    assert out == '[{"t":4,"twist":[0,0],"dim":1}]\n'


def test_cohomology_with_twist(capsys):
    code, out, _ = run(
        capsys, "cohomology", "--bundle", O03, "--t", "2", "--twist", "-3,-3"
    )
    assert code == 0
    assert json.loads(out) == [{"t": 2, "twist": [-3, -3], "dim": 1}]


def test_cohomology_box_csv(capsys):
    code, out, _ = run(
        capsys, "cohomology", "--bundle", O22, "--box", "1", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,twist_1,twist_2,dim"
    assert "0,0,0,1" in lines
    assert "0,1,1,9" in lines


# (2,2): O(3,2)^2 and O(1,0) merge in H^0 with dims of four digits; O(-4,-3) and O(0,-5)^3
# reach H^2 and H^4.  (1,1,1): degrees 0, 1 and 2 over 125 twists.
SQUARE_TABLE = ('{"shape":[2,2],"summands":[{"degree":[3,2],"mult":2},{"degree":[1,0]},'
                '{"degree":[-4,-3]},{"degree":[0,-5],"mult":3}]}')
CUBE_TABLE = ('{"shape":[1,1,1],"summands":[{"degree":[0,-2,1]},{"degree":[-3,1,-2],"mult":2},'
              '{"degree":[2,2,2]}]}')


@pytest.mark.parametrize("bundle, box, fmt, digest", [
    (SQUARE_TABLE, "4", "json", "cdb16c935f97c0c7d053dc4b43450b244ea6074fdacb9b2d2c3f6fff68bce8e9"),
    (SQUARE_TABLE, "4", "csv", "7b44d611988a8d384a0020aa62f32d9223664d158165440bba5571634fbfd555"),
    (SQUARE_TABLE, "4", "table", "929b444041056e819a0a1c94a0e3229ea33c2c0f400f969fab0fb5274943be88"),
    (CUBE_TABLE, "2", "json", "c7cf846a0aab7ea3fbaa5c13f9aeba5f58eacd75325857517974ad36ace4b22a"),
    (CUBE_TABLE, "2", "csv", "4c7f430690d0afb0c96f86de2fccd8c6c171917eb9421e2bfb35aa214424aaa6"),
    (CUBE_TABLE, "2", "table", "51f57ab0f8d1cfae3ba5e18c79633d2e1261373fd089d68819e4cf416702398d"),
], ids=["square-json", "square-csv", "square-table", "cube-json", "cube-csv", "cube-table"])
def test_cohomology_box_stdout_is_pinned(capsys, bundle, box, fmt, digest):
    code, out, err = run(capsys, "cohomology", "--bundle", bundle, "--box", box, "--format", fmt)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cohomology_needs_t_or_box(capsys):
    code, out, err = run(capsys, "cohomology", "--bundle", O22)
    assert code == 2 and out == ""
    assert err.startswith("E_USAGE:")


def test_cohomology_negative_box(capsys):
    assert run(capsys, "cohomology", "--bundle", O22, "--box", "-1") == (
        2, "", "E_RANGE: box bound must be >= 0, got -1\n")


# ------------------------------------------------------------------ regularity

def test_regularity_structure_sheaf(capsys):
    code, out, _ = run(capsys, "regularity", "--bundle", O22)
    assert code == 0
    assert out == '{"zero_regular":true,"reg_index":0}\n'


def test_regularity_witnesses_and_m(capsys):
    bad = '{"shape":[1,1],"summands":[{"degree":[-1,-1],"mult":1}]}'
    code, out, _ = run(capsys, "regularity", "--bundle", bad, "--m", "1,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["zero_regular"] is False
    assert doc["reg_index"] == 1
    assert doc["witnesses"]
    assert doc["m"] == [1, 1] and doc["m_regular"] is True


@pytest.mark.parametrize("m", [[], ["--m", "0," * 19 + "0"]], ids=["plain", "m"])
def test_regularity_guard_exit(capsys, m):
    # a box of 3^20 twists j on (P^2)^20, refused before the join
    bundle = '{"shape":[%s],"summands":[{"degree":[-1%s]}]}' % (",".join(["2"] * 20), ",0" * 19)
    start = time.perf_counter()
    code, out, err = run(capsys, "regularity", "--bundle", bundle, *m)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == "E_GUARD: 3486784401 twists exceed the box guard of 1000000\n"


# ------------------------------------------------------------------------ acm

def test_acm_json(capsys):
    bundle = '{"shape":[1,2],"summands":[{"degree":[0,2],"mult":1}]}'
    code, out, _ = run(capsys, "acm", "--bundle", bundle)
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "acm": False,
        "witnesses": [{"i": 1, "t": -2}],
        "closed_form": False,
    }


def test_acm_rank_two_has_no_closed_form_field(capsys):
    bundle = (
        '{"shape":[1,1],"summands":[{"degree":[0,0],"mult":1},'
        '{"degree":[1,1],"mult":1}]}'
    )
    code, out, _ = run(capsys, "acm", "--bundle", bundle)
    assert code == 0
    assert "closed_form" not in json.loads(out)


def test_acm_csv(capsys):
    bundle = '{"shape":[2,2],"summands":[{"degree":[0,3]},{"degree":[1,1]}]}'
    assert run(capsys, "acm", "--bundle", bundle, "--format", "csv") == (0, "i,t\n2,-3\n", "")


# --------------------------------------------------------------------- koszul

def test_koszul_complex_json(capsys):
    code, out, _ = run(capsys, "koszul", "--shape", "2,2", "--factor", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["shape"] == [2, 2]
    assert doc["euler_exact"] is True
    assert doc["terms"][1] == [{"degree": [-1, 0], "mult": 3}]
    assert len(doc["terms"]) == 4


def test_koszul_iso(capsys):
    code, out, _ = run(capsys, "koszul", "--shape", "2,2", "--iso")
    assert code == 0
    assert out == '{"pairs":[[1,1],[1,1],[1,1],[1,1]]}\n'


@pytest.mark.parametrize("n", [20000, 10**30])
def test_koszul_guard_exit(capsys, n):
    start = time.perf_counter()
    code, out, err = run(capsys, "koszul", "--shape", str(n), "--factor", "1")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == f"E_GUARD: {n + 2} terms exceed the koszul guard of 3000\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["cohomology", "--bundle", O22, "--t", "0", "--box", "1"],
        ["cohomology", "--bundle", O22, "--box", "0", "--twist", "1,2,3,x"],
        ["cohomology", "--bundle", O22, "--box", "1", "--twist", "0,0"],
        ["koszul", "--shape", "2,2", "--iso", "--factor", "1"],
        ["koszul", "--shape", "2,2", "--iso", "--d", "0,0"],
    ],
    ids=["t-with-box", "bad-twist-with-box", "twist-with-box", "iso-with-factor", "iso-with-d"],
)
def test_conflicting_options_refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("E_USAGE:")
    if "--twist" in argv:
        assert err == "E_USAGE: --twist and --box cannot be combined\n"


def test_koszul_bad_factor(capsys):
    code, _, err = run(capsys, "koszul", "--shape", "2,2", "--factor", "3")
    assert code == 2 and err.startswith("E_RANGE:")
    code, _, err = run(capsys, "koszul", "--shape", "2,2")
    assert code == 2 and err.startswith("E_USAGE:")


# ---------------------------------------------------------------------- check

def test_check_thm12_reports_row(capsys):
    code, out, _ = run(capsys, "check", "thm12", "--bundle", O03)
    assert code == 0
    rows = json.loads(out)
    assert {"i": 2, "j": [-1, -1], "t": -2, "dim": 1} in rows


def test_check_thm12_strict_exit(capsys):
    code, _, _ = run(capsys, "check", "thm12", "--bundle", O03, "--strict")
    assert code == 1
    code, _, _ = run(capsys, "check", "thm12", "--bundle", O22, "--strict")
    assert code == 0


def test_check_csv_header(capsys):
    code, out, _ = run(
        capsys, "check", "thm12", "--bundle", O03, "--format", "csv"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "i,j_1,j_2,t,dim"
    assert "2,-1,-1,-2,1" in lines


def test_check_thm13_needs_r(capsys):
    assert run(capsys, "check", "thm13", "--bundle", O22) == (2, "", "E_USAGE: thm13 needs --r\n")
    code, _, _ = run(capsys, "check", "thm13", "--bundle", O22, "--r", "1,1")
    assert code == 0


@pytest.mark.parametrize("criterion", ["thm12", "lemma14"])
def test_check_r_only_applies_to_thm13_and_miyazaki(capsys, criterion):
    assert run(capsys, "check", criterion, "--bundle", O22, "--r", "1,1") == (
        2, "", f"E_USAGE: --r does not apply to {criterion}\n")


def test_check_lemma14_json_document(capsys):
    bundle = '{"shape":[1,1],"summands":[{"degree":[0,2],"mult":1}]}'
    code, out, _ = run(capsys, "check", "lemma14", "--bundle", bundle)
    assert code == 0
    doc = json.loads(out)
    assert doc["conditions_hold"] is False
    assert doc["vacuous_degrees"] == [3]
    assert {"condition": "b", "t": 1, "j": [0, 0], "tau": -2, "dim": 1} in doc[
        "witnesses"
    ]


def test_check_miyazaki(capsys):
    code, out, _ = run(capsys, "check", "miyazaki", "--bundle", O22)
    assert code == 0 and json.loads(out) == []
    bad = '{"shape":[1,1,1],"summands":[{"degree":[0,0,0],"mult":1}]}'
    assert run(capsys, "check", "miyazaki", "--bundle", bad) == (
        2, "", "E_DOMAIN: two-factor criterion needs exactly two factors\n")


def test_check_rejects_unknown_criterion(capsys):
    with pytest.raises(SystemExit) as e:
        main(["check", "nope", "--bundle", O22])
    assert e.value.code == 2
    assert capsys.readouterr().err.startswith("E_USAGE:")


# ---------------------------------------------------------------------- audit

def test_audit_json(capsys):
    code, out, _ = run(
        capsys, "audit", "--shape", "2,2", "--criterion", "thm12",
        "--bound", "1", "--max-rank", "1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == 9
    assert doc["hyp_only"] == 0 and doc["concl_only"] == 0
    assert doc["mismatches"] == []


def test_audit_csv_and_strict(capsys):
    code, out, _ = run(
        capsys, "audit", "--shape", "2,2", "--criterion", "thm12",
        "--bound", "1", "--max-rank", "1", "--format", "csv", "--strict",
    )
    assert code == 0
    assert out == "bundle,hypothesis,conclusion\n"


def test_audit_thm13_r_plumbing(capsys):
    code, out, _ = run(
        capsys, "audit", "--shape", "2,2", "--criterion", "thm13",
        "--bound", "1", "--max-rank", "1", "--r", "0,0",
    )
    assert code == 0
    assert json.loads(out)["total"] == 9
    code, _, err = run(
        capsys, "audit", "--shape", "2,2", "--criterion", "thm13",
        "--bound", "1", "--max-rank", "1",
    )
    assert code == 2 and err.startswith("E_USAGE:")


CAPS_TEXT = "E_USAGE: caps r only apply to criterion thm13\n"


# thm12 checks its shape before --r, lemma14 --r before its shape
@pytest.mark.parametrize("shape, criterion, r, err", [
    ("2,2", "thm13", [], "E_USAGE: criterion thm13 needs a cap vector r\n"),
    ("2,2", "thm12", ["--r", "1,1"], CAPS_TEXT),
    ("1,1", "thm12", ["--r", "1,1"],
     "E_DOMAIN: excess-2 criterion needs every factor of dimension >= 2\n"),
    ("1,2", "lemma14", ["--r", "1,1"], CAPS_TEXT),
    ("1,2", "lemma14", [], "E_DOMAIN: balanced-power criterion needs (P^n)^s with s >= 2\n"),
])
def test_audit_criterion_refusals(capsys, shape, criterion, r, err):
    argv = ["audit", "--shape", shape, "--criterion", criterion, "--bound", "1", "--max-rank", "1"]
    assert run(capsys, *argv, *r) == (2, "", err)


def test_audit_guard_exit(capsys):
    code, _, err = run(
        capsys, "audit", "--shape", "2,2", "--criterion", "thm12",
        "--bound", "30", "--max-rank", "3",
    )
    assert code == 2 and err.startswith("E_GUARD:")


def test_audit_listing_guard_exit(capsys):
    code, out, err = run(
        capsys, "audit", "--shape", "1,1,1", "--criterion", "lemma14",
        "--bound", "3", "--max-rank", "3",
    )
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("E_GUARD: 956790 mismatch rows") and "Traceback" not in err


def test_audit_degree_guard_exit(capsys):
    # 61^3 = 226,981 degrees, each a full thm13 check: refused before the first one
    start = time.perf_counter()
    code, out, err = run(capsys, "audit", "--shape", "3,1,2", "--criterion", "thm13",
                         "--bound", "30", "--max-rank", "1", "--r", "1,0,0")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == "E_GUARD: 226981 degrees exceed the degree guard of 10000\n"


PROBE = ["audit", "--shape", "1,1,1", "--criterion", "lemma14", "--bound", "2", "--max-rank", "2"]
SQUARE = ["audit", "--shape", "1,1", "--criterion", "lemma14", "--bound", "3", "--max-rank", "3"]
CAPPED = ["audit", "--shape", "3,1", "--criterion", "thm13", "--bound", "2", "--max-rank", "3",
          "--r", "3,1"]


@pytest.mark.parametrize("argv, fmt, digest", [
    (PROBE, "json", "2963307c27b533dde5180325263d9f2458a982673ae11f58b80fccd15c6d74a3"),
    (PROBE, "csv", "666e594ea2871fa947f1914cecb7fc2b98d17546629d7ea4b485f713dd136898"),
    (PROBE, "table", "0b5c35cba859cc92e4562fb2c05045689fe67ac1df860a78dd739303319cfdd6"),
    (SQUARE, "json", "5163625a0154f9a92f7c6ef5a1eb7b13d36ad5ab7b830c9d0cebd43c98008290"),
    (SQUARE, "csv", "85906a7b170e1347f79bca31cc48cc65504f770a3e63c6f2c057d47b22624049"),
    (CAPPED, "json", "8ae092b537c1f267e913877e9b01c04fdf7018676f2fe48f3f9f12b5c7a64607"),
    (CAPPED, "csv", "4110dff4333fc98939f9d9104414fa51e7b1b2e05ca84bf9b4880625cd79c1ef"),
    (CAPPED, "table", "f85309e66ee1bf6e007f90096d7b6fa6ecc6c2dcd480f2cb6b050c6e8a66e1b0"),
], ids=["probe-json", "probe-csv", "probe-table", "square-json", "square-csv",
        "capped-json", "capped-csv", "capped-table"])
def test_audit_stdout_is_pinned(capsys, argv, fmt, digest):
    # the 3105-row lemma14 probe on (1,1,1), the clean lemma14 audit on (1,1) and the 210-row
    # thm13 audit on (3,1), 38 of its rows with multiplicities, byte for byte
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@st.composite
def audit_reports_st(draw):
    """An AuditReport on 1-4 factors; degrees negative and multi-digit, multiplicities above 1."""
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    degree = st.tuples(*[st.integers(-1200, 1200) | st.integers(-3, 3) for _ in dims])
    summands = st.lists(st.tuples(degree, st.integers(1, 12)), min_size=1, max_size=4)
    mismatches = draw(st.lists(st.tuples(summands, st.booleans(), st.booleans()), max_size=8))
    counts = draw(st.lists(st.integers(0, 10**12), min_size=5, max_size=5))
    bundles = tuple((LineBundleSum(tuple(dims), tuple(raw)), hyp, concl)
                    for raw, hyp, concl in mismatches)
    return AuditReport(*counts, mismatches=bundles)


def audit_renderings(report):
    """The oracle rendering of an AuditReport in each format: to_json, bundle_to_json, str(E)."""
    return {
        "json": json.dumps(report.to_json(), separators=(",", ":")),
        "csv": "\n".join(["bundle,hypothesis,conclusion"] + [
            '"%s",%s,%s' % (bundle_to_json(E).replace('"', '""'), hyp, concl)
            for E, hyp, concl in report.mismatches]),
        "table": "\n".join([f"{name}: {getattr(report, name)}" for name in
                            ("total", "both", "hyp_only", "concl_only", "neither")] + [
            f"  mismatch {E} hypothesis={hyp} conclusion={concl}"
            for E, hyp, concl in report.mismatches]),
    }


@settings(max_examples=200, deadline=None)
@given(audit_reports_st())
def test_audit_rendering_matches_to_json_and_bundle_to_json(report):
    # the CLI renders the walk's (summands, mask) rows; fed this report's, it prints the report
    shape = next((E.shape for E, _, _ in report.mismatches), None)
    argv = ["audit", "--shape", ",".join(map(str, shape.dims if shape else [2])),
            "--criterion", "thm12", "--bound", "0", "--max-rank", "1"]
    counts = (report.total, report.both, report.hyp_only, report.concl_only, report.neither)
    walk = (counts, [(E.summands, hyp + 2 * concl) for E, hyp, concl in report.mismatches])
    for fmt, text in audit_renderings(report).items():
        out = io.StringIO()
        with mock.patch.object(cli.criteria, "_audit_rows", lambda *a, **k: walk), \
                contextlib.redirect_stdout(out):
            assert main(argv + ["--format", fmt]) == 0
        assert out.getvalue() == text + "\n"


@pytest.mark.parametrize("argv", [
    PROBE, SQUARE, CAPPED,
    ["audit", "--shape", "2,2,2", "--criterion", "thm12", "--bound", "1", "--max-rank", "2"],
] + [["audit", "--shape", "2,3", "--criterion", "thm13", "--bound", "1", "--max-rank", "2",
      "--r", f"{r1},{r2}"] for r1 in range(3) for r2 in range(4)])
def test_audit_stdout_matches_desk_scale_audit(capsys, argv):
    # both consumers of the listing walk: the CLI's rows against the library's report
    options = dict(zip(argv[1::2], argv[2::2]))
    r = tuple(map(int, options["--r"].split(","))) if "--r" in options else None
    report = criteria.desk_scale_audit(tuple(map(int, options["--shape"].split(","))),
                                       int(options["--bound"]), int(options["--max-rank"]),
                                       options["--criterion"], r=r)
    for fmt, text in audit_renderings(report).items():
        assert run(capsys, *argv, "--format", fmt) == (0, text + "\n", "")
        assert run(capsys, *argv, "--format", fmt, "--strict") == (
            int(bool(report.mismatches)), text + "\n", "")


@pytest.mark.parametrize("criterion, bundle", [
    ("thm12", '{"shape":[2,2],"summands":[{"degree":[0,1000000000]}]}'),
    ("miyazaki", '{"shape":[2,2],"summands":[{"degree":[0,-1000000000]}]}'),
    ("lemma14", '{"shape":[1,1],"summands":[{"degree":[0,1000000000]}]}'),
])
def test_check_row_guard_exit(capsys, criterion, bundle):
    start = time.perf_counter()
    code, out, err = run(capsys, "check", criterion, "--bundle", bundle)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert re.fullmatch(r"E_GUARD: \d+ rows exceed the listing guard of 100000\n", err)


def test_check_jbox_guard_exit(capsys):
    bundle = json.dumps({"shape": [2] * 20, "summands": [{"degree": [0, 3] * 10}]})
    start = time.perf_counter()
    code, out, err = run(capsys, "check", "thm12", "--bundle", bundle)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == "E_GUARD: 3486784401 twists j exceed the j-box guard of 10000\n"


def far_apart_summands(count: int) -> list[dict]:
    """count distinct degrees on (P^2)^8, coordinate i at -9i plus 0 to 3: seven phases each."""
    rng, degrees = random.Random(0), set()
    while len(degrees) < count:
        degrees.add(tuple(-9 * i + rng.randint(0, 3) for i in range(8)))
    return [{"degree": list(degree)} for degree in sorted(degrees)]


@pytest.mark.parametrize("argv, count", [
    # a phase per factor: 1999 phases of 2000 * 2001 / 2 j entries
    (["acm", "--bundle", json.dumps({"shape": [1] * 2000,
                                     "summands": [{"degree": list(range(0, -6000, -3))}]})],
     3999999000),
    # 200 summands of 7 phases, each of 3 + 2*3^2 + ... + 8*3^8 = 73812 j entries
    (["check", "thm13", "--r", "0,0,0,0,0,0,0,0", "--bundle",
      json.dumps({"shape": [2] * 8, "summands": far_apart_summands(200)})], 103336800),
], ids=["acm", "thm13"])
def test_diagonal_guard_exit(capsys, monkeypatch, argv, count):
    forbid_diagonal_join(monkeypatch)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == f"E_GUARD: {count} j entries exceed the diagonal-join guard of 30000000\n"


@pytest.mark.parametrize("degree, r, expected", [
    ("0,1000000", "0,0", (2, "", "E_GUARD: 1000000 rows exceed the listing guard of 100000\n")),
    ("1000000,0", "4999,1", (0, "[]\n", "")),
])
def test_check_long_factor_far_apart_exit(capsys, degree, r, expected):
    # 10^4 twists j, and the first factor changes state at about 10^4 diagonal twists
    bundle = '{"shape":[4999,1],"summands":[{"degree":[%s]}]}' % degree
    start = time.perf_counter()
    result = run(capsys, "check", "thm13", "--bundle", bundle, "--r", r)
    assert time.perf_counter() - start < 1
    assert result == expected


def test_check_listing_guard_stops_the_join(capsys, monkeypatch):
    # 58 far-apart summands join under the diagonal-join guard, but their kept runs hold
    # about 10^7 rows: the refusal comes once the count passes 10^5, not after the whole join
    calls = []
    real = cli.criteria._is_exceptional
    monkeypatch.setattr(cli.criteria, "_is_exceptional",
                        lambda *args: calls.append(1) or real(*args))
    bundle = json.dumps({"shape": [2] * 8, "summands": far_apart_summands(58)})
    start = time.perf_counter()
    result = run(capsys, "check", "thm13", "--r", "0,0,0,0,0,0,0,0", "--bundle", bundle)
    assert time.perf_counter() - start < 1
    assert result == (2, "", "E_GUARD: 100001 rows exceed the listing guard of 100000\n")
    assert len(calls) < 10**5


# --------------------------------------------------------------------- errors

def test_malformed_bundle_json(capsys):
    code, _, err = run(capsys, "cohomology", "--bundle", "{oops", "--t", "0")
    assert code == 2 and err.startswith("E_JSON:")


def test_missing_bundle_file(capsys):
    code, _, err = run(capsys, "cohomology", "--bundle", "no/such.json", "--t", "0")
    assert code == 2 and err.startswith("E_JSON:")


def test_non_utf8_bundle_file(capsys, tmp_path):
    path = tmp_path / "bundle.json"
    path.write_bytes(b'{"shape":[2],"summands":[{"degree":[0]}]}\xff')
    code, out, err = run(capsys, "regularity", "--bundle", str(path))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("E_JSON: cannot read bundle file")


def test_nul_byte_in_bundle_path(capsys):
    code, out, err = run(capsys, "cohomology", "--bundle", "a\x00b", "--t", "0")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("E_JSON: cannot read bundle file")


def test_deeply_nested_bundle_json(capsys, tmp_path):
    path = tmp_path / "bundle.json"
    path.write_text('{"shape":' + "[" * 200_000 + "]" * 200_000 + "}")
    code, out, err = run(capsys, "regularity", "--bundle", str(path))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("E_JSON: malformed bundle JSON")


def test_bundle_integer_past_the_digit_limit(capsys):
    bundle = '{"shape":[2],"summands":[{"degree":[' + "9" * 4301 + "]}]}"
    code, out, err = run(capsys, "cohomology", "--bundle", bundle, "--t", "0")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("E_JSON: malformed bundle JSON")


LONG_DEGREE = '{"shape":[2],"summands":[{"degree":[' + "9" * 4000 + "]}]}"


@pytest.mark.parametrize("option", [["--t", "0"], ["--box", "1"]], ids=["t", "box"])
def test_result_past_the_digit_limit_is_refused(capsys, option):
    # h^0(P^2, O(a)) = C(a+2, 2) has about 8000 digits for a 4000-digit a
    code, out, err = run(capsys, "cohomology", "--bundle", LONG_DEGREE, *option)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("E_GUARD: a result has more than 4300")


# O(0,0) has only t = 0 rows on the box; O(-N,0), N of 4000 digits, has h^2 of about 8000 digits
LATER_DEGREE = '{"shape":[2,2],"summands":[{"degree":[0,0]},{"degree":[-%s,0]}]}' % ("9" * 4000)


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_result_past_the_digit_limit_in_a_later_degree_is_refused(capsys, fmt):
    # the t = 0 table renders first: nothing may be printed before every table has rendered
    rows = cohomology_table(bundle_from_json(LATER_DEGREE), 1).rows
    assert rows[0] == (0, (0, 0), 1) and rows[-1][0] == 2
    code, out, err = run(capsys, "cohomology", "--bundle", LATER_DEGREE, "--box", "1",
                         "--format", fmt)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("E_GUARD: a result has more than 4300")


def test_box_guard_exit(capsys):
    code, out, err = run(capsys, "cohomology", "--bundle", O22, "--box", "500")
    assert code == 2 and out == ""
    assert err == "E_GUARD: 1002001 twists exceed the box guard of 1000000\n"
    code, out, err = run(capsys, "cohomology", "--bundle", O22, "--box", "9" * 3000)
    assert code == 2 and out == ""
    assert err == "E_GUARD: more than 1000000 twists exceed the box guard of 1000000\n"
    # 999^2 twists for each of 11 distinct summands, refused before the join
    summands = ",".join('{"degree":[%d,0]}' % a for a in range(11))
    start = time.perf_counter()
    code, out, err = run(capsys, "cohomology", "--bundle", '{"shape":[2,2],"summands":[%s]}'
                         % summands, "--box", "499")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == ("E_GUARD: 10978011 (twist, summand) pairs exceed the table guard of "
                   "10000000\n")


def test_audit_guard_counts_ranks_in_closed_form(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "audit", "--shape", "2", "--criterion", "thm12",
                         "--bound", "0", "--max-rank", "1000000000000")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == "E_GUARD: 1000000000000 candidate bundles exceed the desk-scale guard of 10000000\n"


def test_audit_guard_with_a_count_past_the_digit_limit(capsys):
    # (2B+1)^2 degrees for a 3000-digit B give about 12000 digits of candidates
    code, out, err = run(capsys, "audit", "--shape", "2,2", "--criterion", "thm12",
                         "--bound", "9" * 3000, "--max-rank", "2")
    assert code == 2 and out == ""
    assert err == ("E_GUARD: more than 10000000 candidate bundles exceed the desk-scale guard "
                   "of 10000000\n")


def test_bundle_from_file(capsys, tmp_path):
    path = tmp_path / "bundle.json"
    path.write_text(O22)
    code, out, _ = run(capsys, "regularity", "--bundle", str(path))
    assert code == 0
    assert json.loads(out)["zero_regular"] is True


def test_bundle_file_guard(capsys, tmp_path, monkeypatch):
    path = tmp_path / "bundle.json"
    path.write_text(O22)
    monkeypatch.setattr(cli, "FILE_GUARD", len(O22))
    assert run(capsys, "regularity", "--bundle", str(path))[0] == 0
    monkeypatch.setattr(cli, "FILE_GUARD", len(O22) - 1)
    assert run(capsys, "regularity", "--bundle", str(path)) == (
        2, "", f"E_GUARD: more than {len(O22) - 1} bytes exceed the bundle-file guard of "
               f"{len(O22) - 1}\n")
    # an endless file is refused after one byte past the limit, not read until memory runs out
    monkeypatch.undo()
    start = time.perf_counter()
    assert run(capsys, "cohomology", "--bundle", "/dev/zero", "--t", "0") == (
        2, "", "E_GUARD: more than 10000000 bytes exceed the bundle-file guard of 10000000\n")
    assert time.perf_counter() - start < 1


def test_bundle_from_stdin():
    argv = [sys.executable, "-m", "multicoh.cli", "cohomology", "--bundle", "/dev/stdin", "--t", "4"]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(argv, input=CANONICAL.encode(), capture_output=True, env=env, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (
        0, b'[{"t":4,"twist":[0,0],"dim":1}]\n', b"")


README_TEXT = (SRC.parent / "README.md").read_text(encoding="utf-8")


def readme_examples() -> list[tuple[str, str]]:
    """(command, output) of each '$ multicoh ...' example in the README's code blocks."""
    examples = []
    for block in re.findall(r"^```\n(.*?)^```$", README_TEXT, re.M | re.S):
        for example in block.strip("\n").split("\n\n"):
            command, _, output = example.partition("\n")
            if command.startswith("$ multicoh "):
                examples.append((command, output + "\n"))
    return examples


def test_readme_examples_are_all_found():
    assert len(readme_examples()) == README_TEXT.count("\n$ multicoh ") > 0


@pytest.mark.parametrize("command, output", readme_examples(),
                         ids=[command.split()[2] for command, _ in readme_examples()])
def test_readme_example_output(capsys, command, output):
    assert run(capsys, *shlex.split(command)[2:]) == (0, output, "")


def test_identical_invocations_identical_bytes(capsys):
    argv = ["check", "thm12", "--bundle", O03, "--format", "table"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_closed_pipe_exits_1_without_traceback():
    # about 300 KB of csv, far more than a pipe buffer holds
    argv = [sys.executable, "-m", "multicoh.cli", "cohomology", "--bundle", O22,
            "--box", "70", "--format", "csv"]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"t,twist_1,twist_2,dim\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err == b""


# ------------------------------------------------------------- parser reuse

REUSE_CORPUS = [
    ["cohomology", "--bundle", CANONICAL, "--t", "4"],
    ["cohomology", "--bundle", O03, "--t", "2", "--twist", "-3,-3", "--format", "table"],
    ["cohomology", "--bundle", O22, "--box", "1", "--format", "csv"],
    ["regularity", "--bundle", O22],
    ["regularity", "--bundle", O03, "--m", "1,1", "--format", "table"],
    ["regularity", "--bundle", CANONICAL, "--format", "csv"],
    ["acm", "--bundle", O03, "--format", "table"],
    ["koszul", "--shape", "2,2", "--factor", "1", "--format", "csv"],
    ["koszul", "--shape", "2,2", "--iso", "--format", "table"],
    ["check", "thm12", "--bundle", O03],
    ["check", "thm13", "--bundle", O03, "--r", "1,1", "--format", "csv"],
    ["check", "lemma14", "--bundle", O22, "--format", "table"],
    ["check", "thm12", "--bundle", O03, "--strict"],
    ["audit", "--shape", "2,2", "--criterion", "thm12", "--bound", "1", "--max-rank", "1"],
    ["audit", "--shape", "1,1", "--criterion", "lemma14", "--bound", "1", "--max-rank", "2",
     "--format", "table"],
    ["--help"],
    ["check", "--help"],
    ["check", "nope", "--bundle", O22],
    ["regularity"],
    ["cohomology", "--bundle", "{oops", "--t", "0"],
    ["koszul", "--shape", "2,2", "--factor", "3"],
]


def test_reused_parser_matches_a_fresh_parser_per_call(capsys, monkeypatch):
    reused = [run(capsys, *argv) for argv in REUSE_CORPUS + REUSE_CORPUS]
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", build_parser)
    fresh = [run(capsys, *argv) for argv in REUSE_CORPUS]
    assert reused == fresh + fresh
    assert {code for code, _, _ in fresh} == {0, 1, 2}


def test_build_parser_returns_a_new_parser(capsys):
    argv = ["--extra", "x", "regularity", "--bundle", O22]
    before = [run(capsys, *argv), run(capsys, *argv[2:])]
    assert build_parser() is not build_parser()
    custom = build_parser()
    custom.add_argument("--extra")
    assert custom.parse_args(argv).extra == "x"
    assert [run(capsys, *argv), run(capsys, *argv[2:])] == before
    assert before[0][0] == 2 and before[1][0] == 0


ONE_ARGV_PER_COMMAND = [
    ["cohomology", "--bundle", CANONICAL, "--t", "4"],
    ["regularity", "--bundle", O22],
    ["acm", "--bundle", O03],
    ["koszul", "--shape", "2,2", "--factor", "1"],
    ["check", "thm12", "--bundle", O03],
    ["audit", "--shape", "2,2", "--criterion", "thm12", "--bound", "1", "--max-rank", "1"],
]


# the same requests spelled so that main's plain reader leaves them to argparse
FALLBACK_PER_COMMAND = [
    ["cohomology", "--bundle", CANONICAL, "--t=4"],
    ["regularity", "--bund", O22],
    ["acm", "--bundle=" + O03],
    ["koszul", "--shape", "2,2", "--fac", "1"],
    ["check", "--bundle", O03, "thm12"],
    ["audit", "--shape", "2,2", "--criterion", "thm12", "--bound", "1", "--max-rank=1"],
]


def test_each_command_parses_its_argv_once(capsys, monkeypatch):
    parsed_by = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        parsed_by.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    for argv, fallback in zip(ONE_ARGV_PER_COMMAND, FALLBACK_PER_COMMAND):
        parsed_by.clear()
        plain = run(capsys, *argv)
        assert plain[0] == 0 and parsed_by == []  # read by main's plain reader alone
        assert run(capsys, *fallback) == plain
        assert parsed_by == [f"multicoh {argv[0]}"]


# ----------------------------------------------------------------- emit_table

def test_emit_table_empty_csv():
    assert emit_table([], [("i", 0), ("j", 2)], "csv") == "i,j_1,j_2"


def test_emit_table_single_row_json_array():
    out = emit_table([(1, (0, -1))], [("i", 0), ("j", 2)], "json")
    assert out == '[{"i":1,"j":[0,-1]}]'


def test_emit_table_keeps_the_given_order():
    rows = [
        (2, (0, 0)),
        (1, (-1, 0)),
        (1, (-2, 0)),
    ]
    cols = [("i", 0), ("j", 2)]
    for fmt in ["json", "csv", "table"]:
        a = emit_table(rows, cols, fmt)
        b = emit_table(rows[::-1], cols, fmt)
        if fmt == "json":
            assert json.loads(b) == json.loads(a)[::-1]
            assert [doc["i"] for doc in json.loads(a)] == [2, 1, 1]
        else:
            head, *lines = a.split("\n")
            assert b.split("\n") == [head, *lines[::-1]]


def test_emit_table_alignment():
    rows = [(1, 100), (20, 1)]
    out = emit_table(rows, [("i", 0), ("dim", 0)], "table")
    assert out.split("\n") == [" i  dim", " 1  100", "20    1"]


@st.composite
def table_st(draw):
    """Columns, rows in column order with ties likely, and a format.

    json rows hold ints only and come sorted, as every producer gives them;
    csv and table rows may also hold str and bool cells, in any order.
    """
    fmt = draw(st.sampled_from(["json", "csv", "table"]))
    columns, values = [], []
    for k in range(draw(st.integers(1, 4))):
        width = draw(st.integers(0, 3))
        kind = st.integers(-3, 3) | st.sampled_from([10**30, -(10**30)])
        if fmt != "json":
            kind |= st.booleans()
            if not width and draw(st.booleans()):
                kind = st.sampled_from(["a", "b", "ab", ""])
        columns.append((f"c{k}", width))
        values.append(st.tuples(*[kind] * width) if width else kind)
    rows = draw(st.lists(st.tuples(*values), max_size=12))
    return (sorted(rows) if fmt == "json" else rows), columns, fmt


@settings(max_examples=300, deadline=None)
@given(table_st())
def test_emit_table_matches_the_flattened_cell_order(table):
    rows, columns, fmt = table
    assert emit_table(rows, columns, fmt) == emit_table_oracle(rows, columns, fmt)


def _stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def _csv_rows(argv) -> list[tuple]:
    """The rows main prints for argv in csv, each cell parsed back to an int where it is one."""
    return [tuple(int(c) if c.lstrip("-").isdigit() else c for c in line.split(","))
            for line in _stdout([*argv, "--format", "csv"]).splitlines()[1:]]


@st.composite
def ordered_tables_st(draw):
    """A bundle on (P^n)^s, which every criterion accepts, with a box, caps and a factor."""
    n, s = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    offset = draw(st.integers(-6, 6))
    degrees = draw(st.lists(st.tuples(*[st.integers(offset - 4, offset + 4)] * s),
                            min_size=1, max_size=3))
    bundle = json.dumps({"shape": [n] * s, "summands": [{"degree": list(a)} for a in degrees]})
    caps = draw(st.tuples(*[st.integers(0, n)] * s))
    return bundle, n, s, draw(st.integers(0, 2)), caps, draw(st.integers(1, s)), degrees[0]


@settings(max_examples=60, deadline=None)
@given(ordered_tables_st())
def test_table_rows_reach_emit_table_strictly_ascending(case):
    # emit_table renders rows as given, so every producer must hand them over sorted
    bundle, n, s, box, caps, factor, d = case
    table = ["cohomology", "--bundle", bundle, "--box", str(box)]
    for argv in [table,
                 ["check", "thm12", "--bundle", bundle],
                 ["check", "thm13", "--bundle", bundle, "--r", ",".join(map(str, caps))],
                 ["check", "lemma14", "--bundle", bundle],
                 ["regularity", "--bundle", bundle],
                 ["acm", "--bundle", bundle],
                 ["koszul", "--shape", ",".join([str(n)] * s), "--factor", str(factor),
                  "--d", ",".join(map(str, d))]]:
        rows = _csv_rows(argv)
        assert all(a < b for a, b in zip(rows, rows[1:])), argv
    docs = json.loads(_stdout(table))
    assert [(doc["t"], *doc["twist"], doc["dim"]) for doc in docs] == _csv_rows(table)


@settings(max_examples=80, deadline=None)
@given(bundles_st(max_mult=3), st.integers(0, 3), st.booleans(), st.data())
def test_box_json_and_csv_print_the_rows(E, bound, dead, data):
    # json and csv are rendered from the box join's tables, not from cohomology_table's rows;
    # dead makes one axis P^(2B+1) with every summand at -B-1 there, dead on the whole box
    if dead:
        k = data.draw(st.integers(0, E.shape.s - 1), label="dead axis")
        dims = E.shape.dims[:k] + (2 * bound + 1,) + E.shape.dims[k + 1:]
        E = LineBundleSum(Shape(dims), tuple((a[:k] + (-bound - 1,) + a[k + 1:], m)
                                             for a, m in E.summands))
    rows = cohomology_table(E, bound).rows
    assert not dead or rows == ()
    columns = [("t", 0), ("twist", E.shape.s), ("dim", 0)]
    for fmt in ("json", "csv"):
        argv = ["cohomology", "--bundle", bundle_to_json(E), "--box", str(bound), "--format", fmt]
        assert _stdout(argv) == emit_table_oracle(rows, columns, fmt) + "\n"


# -------------------------------------------------------------------- fuzzing
#
# Bundles for cohomology, regularity, acm and check have up to 20 factors:
# the box, table and j-box guards refuse the large ones before any work.
# Audit and koszul shapes have up to 8 factors of dimension at most 3, except
# a koszul factor of 20000, which the koszul guard refuses.  The coordinates of
# a degree mostly stay within a few units of one shared offset.  For acm and
# check they are also drawn more than n apart on up to 2000 factors of P^n,
# and as up to 200 such degrees on (P^2)^8: a phase per factor, which the
# diagonal-join guard refuses past about a second of join.
# Boxes, audit bounds and ranks reach past their guards, and one bundle has a
# 4000-digit degree, whose results are too long for str().  The audit bounds
# 49/50 on two factors and 4999/5000 on one straddle the degree guard's 10^4
# degrees; on more factors they are refused at once.  The bounds just under
# it on three or more factors are left out: each such audit runs for seconds.

HUGE = [10**30, -(10**30), 2**64, -(2**63) - 1, 10**200]
TOO_MANY_DIGITS = "9" * 4301
DIAGNOSTIC = re.compile(r"E_[A-Z]+: [^\n]*\n")

ints_st = st.one_of(st.integers(-3, 3), st.integers(), st.sampled_from(HUGE))
junk_st = st.sampled_from([True, False, None, 0.5, -1.5, 1e300, "1", "", [1], {}])
bad_token_st = st.sampled_from(["", ",", "1,,2", "a", "0.5", "True", "1e3", TOO_MANY_DIGITS])


def deep(depth: int) -> str:
    return "[" * depth + "]" * depth


NINE_IN_TEN = st.sampled_from([True] * 9 + [False])


def mostly(draw, good, bad):
    """Draw from good nine times in ten, else from bad."""
    return draw(good if draw(NINE_IN_TEN) else bad)


def mostly_list(draw, count: int, good, bad) -> list:
    """count entries.  Up to three, each is drawn by mostly(good, bad).  A longer list,
    which only check draws, is drawn from good and then, one time in ten, a drawn set of
    its positions from bad: entry by entry, 20 entries would be well formed 12% of the time."""
    if count <= 3:
        return [mostly(draw, good, bad) for _ in range(count)]
    items = [draw(good) for _ in range(count)]
    if not draw(NINE_IN_TEN):
        for k in draw(st.sets(st.integers(0, count - 1), min_size=1)):
            items[k] = draw(bad)
    return items


@st.composite
def bundle_json_st(draw, max_factors: int = 3, far: bool = False):
    """Bundle JSON text, mostly well formed, on up to max_factors factors; with far, also
    degrees whose coordinates lie more than n apart (see the comment above)."""
    specials = ["empty", "deep", "digits", "long", "cut", "gap"] + ["far", "many"] * far
    special = draw(st.sampled_from([None] * 12 + specials))
    if special == "empty":
        return draw(st.sampled_from(["{}", "", "[]", "null", "{", '{"shape":[],"summands":[]}']))
    if special == "deep":
        depth = draw(st.sampled_from([2, 500, 1000, 200_000]))
        where = draw(st.sampled_from(['{"shape":%s,"summands":[]}', '{"shape":[1],"summands":%s}',
                                      '{"shape":[1],"summands":[{"degree":%s}]}', '{"x":%s}']))
        return where % deep(depth)
    if special == "digits":
        return '{"shape":[2],"summands":[{"degree":[%s],"mult":1}]}' % TOO_MANY_DIGITS
    if special == "long":
        return LONG_DEGREE
    if special == "gap":  # about 10^9 rows on a ray for check, which must refuse it
        gap = draw(st.sampled_from([10**9, -(10**9)]))
        return '{"shape":[2,2],"summands":[{"degree":[0,%d]}]}' % gap
    if special == "far":  # coordinate k at offset - step * k on (P^n)^s, step > n
        n, s = draw(st.integers(1, 3)), draw(st.integers(2, 2000))
        summands = [{"degree": list(range(offset, offset - step * s, -step))}
                    for offset, step in draw(st.lists(st.tuples(st.integers(-3, 3),
                                                                st.integers(n + 1, 3 * n + 3)),
                                                      min_size=1, max_size=3))]
        return json.dumps({"shape": [n] * s, "summands": summands})
    if special == "many":  # coordinate i at -9i plus 0 to 3 on (P^2)^8
        rng = draw(st.randoms(use_true_random=False))
        summands = [{"degree": [-9 * i + rng.randint(0, 3) for i in range(8)]}
                    for _ in range(draw(st.integers(1, 200)))]
        return json.dumps({"shape": [2] * 8, "summands": summands})
    bad_dim = st.sampled_from([0, -1, -(10**30), True, 1.5, "2", None])
    good_dim = st.integers(1, 3)
    count = draw(st.integers(1, 3) if max_factors <= 3
                 else st.integers(1, 3) | st.integers(4, max_factors))
    if count > 3 and draw(st.booleans()):  # (P^n)^s, the shape every criterion accepts
        good_dim = st.just(draw(good_dim))
    dims = mostly_list(draw, count, good_dim, bad_dim)
    offset = draw(ints_st)
    summands = []
    for _ in range(mostly(draw, st.integers(1, 3), st.just(0))):
        length = mostly(draw, st.just(len(dims)), st.sampled_from([0, len(dims) + 1]))
        degree = mostly_list(draw, length, st.integers(-4, 4).map(lambda x: x + offset), junk_st)
        entry = {"degree": degree}
        if draw(st.booleans()):
            entry["mult"] = mostly(draw, st.integers(1, 3) | st.sampled_from(HUGE),
                                   st.integers(-1, 0) | junk_st)
        entry = mostly(draw, st.just(entry),
                       st.sampled_from([{"mult": 1}, {"degree": degree, "extra": 1}, degree]))
        summands.append(entry)
    doc = {"shape": dims, "summands": summands}
    doc = mostly(draw, st.just(doc), st.sampled_from([{"shape": dims}, {**doc, "extra": 0},
                                                      summands, dims]))
    text = json.dumps(doc)
    return text[:-1] if special == "cut" else draw(st.sampled_from([text, " " + text]))


@st.composite
def vector_st(draw, entry=ints_st, max_size=4):
    entries = st.lists(entry, min_size=1, max_size=max_size)
    return mostly(draw, entries.map(lambda v: ",".join(map(str, v))), bad_token_st)


@st.composite
def scalar_st(draw, values):
    return str(mostly(draw, st.sampled_from(values), bad_token_st))


BUNDLE_FILES = ["valid", "non_utf8", "deep", "directory", "missing"]
REQUIRED = {"--bundle", "--shape", "--criterion", "--bound", "--max-rank"}
RARE = {"--help", "--nope"}


@st.composite
def argv_st(draw):
    """One CLI invocation, refused option pairs and bad values included."""
    commands = ["cohomology", "regularity", "acm", "koszul", "check", "audit"]
    command = draw(st.sampled_from(commands * 4 + ["nope", "--help"]))
    wide = command in ("cohomology", "regularity", "acm", "check")
    bundle = mostly(draw, bundle_json_st(20 if wide else 3, command in ("acm", "check")),
                    st.sampled_from(BUNDLE_FILES))
    argv = [command]
    options = []
    if command == "check":
        argv.append(mostly(draw, st.sampled_from(["thm12", "thm13", "lemma14", "miyazaki"]),
                           st.just("thm14")))
    if command in ("cohomology", "regularity", "acm", "check"):
        options.append(("--bundle", bundle))
    if command == "cohomology":
        options += [("--t", draw(scalar_st([-1, 0, 1, 2, 10**30]))),
                    ("--box", draw(scalar_st([-1, 0, 1, 2, 500, 10**30, -(10**30)]))),
                    ("--twist", draw(vector_st()))]
    if command == "regularity":
        options.append(("--m", draw(vector_st())))
    if command == "koszul":  # a factor of 20000 is past the koszul guard
        options.append(("--shape", draw(vector_st(st.integers(1, 3) | st.just(20000), 8))))
    if command == "audit":  # half the time (P^n)^s, n >= 2: every criterion accepts it for s >= 2
        dim = st.just(draw(st.integers(2, 3))) if draw(st.booleans()) else st.integers(1, 3)
        shape = draw(vector_st(dim, 8))
        options.append(("--shape", shape))
    if command == "koszul":
        options += [("--factor", draw(scalar_st([0, 1, 2, 3, 8, 10**30, -(10**30)]))),
                    ("--d", draw(vector_st(max_size=8))), ("--iso", None)]
    if command == "audit":
        options += [("--criterion", mostly(draw, st.sampled_from(["thm12", "thm13", "lemma14"]),
                                           st.just("x"))),
                    # the first values, which hypothesis draws most, reach the guards
                    ("--bound", draw(scalar_st([1, 0, 49, 50, 4999, 5000, -1, 10**30,
                                                -(10**30)]))),
                    ("--max-rank", draw(scalar_st([1, 2, 10**12, 0, -1, -(10**30)]))),
                    ("--jobs", draw(scalar_st([1, 2, 10**30])))]
    if command in ("check", "audit"):  # the caps r = n are valid for any audit shape
        caps = st.just(shape) if command == "audit" and draw(st.booleans()) else vector_st()
        options += [("--r", draw(caps)), ("--strict", None)]
    if command != "--help":
        options += [("--format", mostly(draw, st.sampled_from(["json", "csv", "table"]),
                                        st.just("xml"))),
                    ("--help", None), ("--nope", "1")]
    for name, value in options:
        # required options are usually present, the rest sometimes, help and typos seldom
        if draw(st.sampled_from(range(10))) < (9 if name in REQUIRED else 1 if name in RARE else 4):
            argv += [name] if value is None else [name, value]
    return argv


@pytest.fixture(scope="module")
def bundle_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("bundles")
    (root / "valid.json").write_text(O22)
    (root / "non_utf8.json").write_bytes(b'{"shape":[2],"summands":[{"degree":[0]}]}\xff')
    (root / "deep.json").write_text('{"shape":' + deep(200_000) + "}")
    paths = {name: str(root / f"{name}.json") for name in BUNDLE_FILES}
    paths["directory"] = str(root)
    return paths


@settings(max_examples=400, deadline=None)
@given(argv_st())
def test_fuzzed_invocations_exit_cleanly(bundle_files, argv):
    argv = [bundle_files.get(arg, arg) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse refusals and --help
            code = e.code
    err = err.getvalue()
    assert code in (0, 1, 2)
    assert err == "" or DIAGNOSTIC.fullmatch(err), err[:300]
    assert (code == 2) == bool(err)


def outcome(call, argv) -> tuple:
    """(exit code, stdout, stderr) of call(argv), SystemExit included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


def two_pass(argv) -> int:
    """main with every argv through the full parser, which hands the rest of argv on to the
    named command's parser, and main's handlers around the command."""
    try:
        args = build_parser().parse_args(argv)
        return cli._COMMANDS[args.command](args)
    except InputError as e:
        print(f"{e.code}: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        if "integer string conversion" not in str(e):
            raise
        print(f"E_GUARD: a result has more than {sys.get_int_max_str_digits()} digits",
              file=sys.stderr)
        return 2


PARSE_EDGES = [
    [],
    ["--help"],
    ["-h"],
    ["check", "--help"],
    ["check", "thm12", "--bundle", O22, "-h"],
    ["audit", "--shape", "2,2", "-h", "--bound", "x"],
    ["chec", "thm12", "--bundle", O22],
    ["--"],
    ["--", "check", "thm12", "--bundle", O22],
    ["check", "--", "thm12", "--bundle", O22],
    ["check", "thm12", "--bundle", O22, "--"],
    ["check", "thm12", "--bun", O22],
    ["check", "thm12", "--bundle=" + O22, "--he"],
    ["cohomology", "--bundle", O22, "--t", "0", "--format=csv"],
    ["cohomology", "--bundle", O22, "--t", "0", "--form=csv", "--=x"],
    ["--format", "csv", "acm", "--bundle", O22],
    ["acm", "--bundle", O22, "acm"],
    # argv the plain reader in main accepts, declines, or must read exactly as argparse does
    ["cohomology", "--bundle", O22, "--t", "0", "--twist", "-3,-3"],
    ["cohomology", "--bundle", O22, "--t", "0", "--twist", "-3\n"],
    ["cohomology", "--bundle", O22, "--t", " 3"],
    ["cohomology", "--bundle", O22, "--t", "1_0"],
    ["cohomology", "--bundle", O22, "--t", "9" * 4301],
    ["cohomology", "--bundle", "", "--t", "0"],
    ["cohomology", "--bundle", "-x", "--t", "0"],
    ["cohomology", "--bundle", "--t", "0"],
    ["cohomology", "--bundle", O22, "--t"],
    ["cohomology", "--bundle", O22, "--t", "0", "--format", "csv", "--format", "table"],
    ["check", "thm12", "--bundle", O03, "--strict", "--strict"],
    ["check", "nope", "--bundle", O22],
    ["check", "--bundle", O22, "thm12"],
]


@pytest.mark.parametrize("argv", PARSE_EDGES,
                         ids=[" ".join(a).replace(O22, "O22").replace(O03, "O03")
                              .replace("9" * 4301, "9*4301") for a in PARSE_EDGES])
def test_parse_edges_match_the_two_pass_parse(argv):
    assert outcome(main, argv) == outcome(two_pass, argv)


@settings(max_examples=300, deadline=None)
@given(argv_st())
def test_fuzzed_invocations_match_the_two_pass_parse(bundle_files, argv):
    argv = [bundle_files.get(arg, arg) for arg in argv]
    assert outcome(main, argv) == outcome(two_pass, argv)


def plain_read(argv):
    """main's plain reading of argv, checked against argparse's wherever there is one."""
    parsers = build_parser().command_parsers
    if not argv or argv[0] not in parsers:
        return None
    plain = cli._plain_args(parsers[argv[0]], argv[1:])
    if plain is not None:  # every dest argparse sets, defaults included, and no other
        assert vars(plain) == vars(parsers[argv[0]].parse_args(argv[1:]))
    return plain


def test_plain_reader_gives_the_argparse_namespace():
    read = [plain_read(argv) for argv in PARSE_EDGES + REUSE_CORPUS + ONE_ARGV_PER_COMMAND]
    assert sum(ns is not None for ns in read) == 29
    p = build_parser().command_parsers["cohomology"]
    for argv in (["--help"], ["-h"], ["--bun", O22, "--t", "0"],
                 ["--bundle", O22, "--t", "0", "--format=csv"]):
        assert cli._plain_args(p, argv) is None


@settings(max_examples=300, deadline=None)
@given(argv_st())
def test_fuzzed_plain_readings_match_argparse(argv):
    plain_read(argv)
