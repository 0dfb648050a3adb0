"""Front-end behavior: output bytes, exit codes, error diagnostics."""

import json

import pytest

from multicoh.cli import emit_table, main

O22 = '{"shape":[2,2],"summands":[{"degree":[0,0],"mult":1}]}'
O03 = '{"shape":[2,2],"summands":[{"degree":[0,3],"mult":1}]}'
CANONICAL = '{"shape":[2,2],"summands":[{"degree":[-3,-3],"mult":1}]}'


def run(capsys, *argv):
    code = main(list(argv))
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


def test_cohomology_needs_t_or_box(capsys):
    code, out, err = run(capsys, "cohomology", "--bundle", O22)
    assert code == 2 and out == ""
    assert err.startswith("E_USAGE:")


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
    code, _, err = run(capsys, "check", "thm13", "--bundle", O22)
    assert code == 2 and err.startswith("E_USAGE:")
    code, _, _ = run(capsys, "check", "thm13", "--bundle", O22, "--r", "1,1")
    assert code == 0


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
    code, _, err = run(capsys, "check", "miyazaki", "--bundle", bad)
    assert code == 2 and err.startswith("E_DOMAIN:")


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


# --------------------------------------------------------------------- errors

def test_malformed_bundle_json(capsys):
    code, _, err = run(capsys, "cohomology", "--bundle", "{oops", "--t", "0")
    assert code == 2 and err.startswith("E_JSON:")


def test_missing_bundle_file(capsys):
    code, _, err = run(capsys, "cohomology", "--bundle", "no/such.json", "--t", "0")
    assert code == 2 and err.startswith("E_JSON:")


def test_bundle_from_file(capsys, tmp_path):
    path = tmp_path / "bundle.json"
    path.write_text(O22)
    code, out, _ = run(capsys, "regularity", "--bundle", str(path))
    assert code == 0
    assert json.loads(out)["zero_regular"] is True


def test_identical_invocations_identical_bytes(capsys):
    argv = ["check", "thm12", "--bundle", O03, "--format", "table"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


# ----------------------------------------------------------------- emit_table

def test_emit_table_empty_csv():
    assert emit_table([], [("i", 0), ("j", 2)], "csv") == "i,j_1,j_2"


def test_emit_table_single_row_json_array():
    out = emit_table([{"i": 1, "j": [0, -1]}], [("i", 0), ("j", 2)], "json")
    assert out == '[{"i":1,"j":[0,-1]}]'


def test_emit_table_order_independent():
    rows = [
        {"i": 2, "j": [0, 0]},
        {"i": 1, "j": [-1, 0]},
        {"i": 1, "j": [-2, 0]},
    ]
    cols = [("i", 0), ("j", 2)]
    for fmt in ["json", "csv", "table"]:
        a = emit_table(rows, cols, fmt)
        b = emit_table(list(reversed(rows)), cols, fmt)
        assert a == b


def test_emit_table_alignment():
    rows = [{"i": 1, "dim": 100}, {"i": 20, "dim": 1}]
    out = emit_table(rows, [("i", 0), ("dim", 0)], "table")
    assert out.split("\n") == [" i  dim", " 1  100", "20    1"]
