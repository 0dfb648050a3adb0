"""Seeded workloads for the multicoh benchmark.

A workload turns (seed, round) into a list of Op records.  An op is one
request a user of multicoh would make: a CLI invocation passed to
multicoh.cli.main, or, for the koszul workload, a library call.  Each op
knows how many units of work it stands for and carries a check that
decides, by a route independent of the code under test where one exists,
whether its output is correct.

Rounds have a fixed composition (the same kinds of op on the same kinds of
shape); only the degrees, twists and caps come from the seed.  That keeps
the mix, and so every median and percentile, comparable across seeds.
"""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from itertools import product
from math import comb
from typing import Callable

from multicoh import bundle_from_json, cli, euler_characteristic, koszul


@dataclass
class Op:
    """One request: call() runs it, check(result) returns None or a problem."""

    kind: str
    request: tuple  # CLI argv, or the library call and its arguments
    items: int
    call: Callable[[], object]
    check: Callable[[object], str | None]
    text: Callable[[object], str]
    degrees: int = 0  # distinct summand degrees an audit enumerates, (2B+1)^s


# ---------------------------------------------------------------- oracles


def line_dim(dims, a, t: int) -> int:
    """dim H^t(O(a)) on P^{n_1} x ... x P^{n_s} by the single-degree rule.

    Each factor has sections (a_i >= 0), top cohomology (a_i <= -n_i-1) or
    nothing, so a line bundle has cohomology only in the degree that sums
    n_i over its top factors.  This is not the subset-mask Kunneth sum the
    program uses, so it is an independent route to the same numbers.
    """
    degree = 0
    prod = 1
    for n, x in zip(dims, a):
        if x >= 0:
            prod *= comb(x + n, n)
        elif x <= -n - 1:
            prod *= comb(-x - 1, n)
            degree += n
        else:
            return 0
    return prod if degree == t else 0


def sum_dim(dims, degrees, d, t: int) -> int:
    return sum(line_dim(dims, tuple(x + y for x, y in zip(a, d)), t) for a in degrees)


def box(s: int, bound: int) -> list[tuple[int, ...]]:
    return list(product(range(-bound, bound + 1), repeat=s))


def compositions(total: int) -> list[tuple[int, ...]]:
    """Every ordered tuple of positive integers summing to total."""
    if total == 0:
        return [()]
    return [(first,) + rest
            for first in range(1, total + 1) for rest in compositions(total - first)]


# ---------------------------------------------------------------- CLI ops


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Invoke the CLI in process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


def _stdout(result) -> str:
    return result[1]


def _cli_op(kind: str, argv: list[str], check_doc, items: int = 1, degrees: int = 0) -> Op:
    """A CLI op that must exit 0 with empty stderr; check_doc(stdout) judges the output."""

    def check(result):
        code, out, err = result
        if code != 0 or err:
            return f"exit {code}, stderr {err.strip()[:200]!r}"
        return check_doc(out)

    return Op(kind, tuple(argv), items, lambda: run_cli(argv), check, _stdout, degrees)


def _refusal_op(code_name: str, argv: list[str]) -> Op:
    """An invalid request: must exit 2 with one 'CODE: message' line and no traceback."""

    def check(result):
        code, out, err = result
        lines = err.splitlines()
        if code != 2 or out or len(lines) != 1 or not lines[0].startswith(code_name + ": "):
            return f"expected {code_name} refusal, got exit {code}, stderr {err.strip()[:200]!r}"
        return None

    return Op("refuse " + code_name, tuple(argv), 1, lambda: run_cli(argv), check, _stdout)


def bundle_json(dims, degrees) -> str:
    return json.dumps(
        {"shape": list(dims), "summands": [{"degree": list(a)} for a in degrees]},
        separators=(",", ":"),
    )


def _vec(v) -> str:
    return ",".join(str(x) for x in v)


def _degrees(rng, dims, rank, lo, hi):
    return [tuple(rng.randint(lo, hi) for _ in dims) for _ in range(rank)]


# ---------------------------------------------------------------- audit

# (criterion, shape, bound, max_rank).  A round runs the thm12 audit once,
# the thm13 audit once under every cap vector 0 <= r <= (2, 3) in an order
# drawn from the seed, and the lemma14 probe once.  Cap vectors differ in
# cost by up to 2x, so auditing all of them keeps every round's mix, and so
# the latency percentiles, the same for every seed; a thm13 audit is the
# median op.  Boxes are small enough that a round takes under a second
# (the thm12 audit at B=2 alone takes 3-5 s), so a run holds tens of rounds.
AUDITS = (("thm12", (2, 2, 2), 1, 2), ("thm13", (2, 3), 1, 2), ("lemma14", (1, 1, 1), 2, 2))
AUDITS_SMALL = (("thm12", (2, 2), 1, 1), ("thm13", (2, 3), 1, 1), ("lemma14", (1, 1, 1), 1, 1))


def audit_total(shape, bound: int, max_rank: int) -> int:
    """Number of canonical bundles with degrees in the box and rank <= max_rank."""
    n = (2 * bound + 1) ** len(shape)
    return sum(comb(n + rho - 1, rho) for rho in range(1, max_rank + 1))


def _audit_op(criterion, shape, bound, max_rank, r) -> Op:
    total = audit_total(shape, bound, max_rank)
    n = shape[0]
    argv = ["audit", "--shape", _vec(shape), "--criterion", criterion,
            "--bound", str(bound), "--max-rank", str(max_rank)]
    if r is not None:
        argv += ["--r", _vec(r)]

    def check_doc(out):
        doc = json.loads(out)
        cells = [doc[k] for k in ("both", "hyp_only", "concl_only", "neither")]
        if doc["total"] != total or sum(cells) != total:
            return f"total {doc['total']}, cells {cells}, expected {total}"
        if len(doc["mismatches"]) != doc["hyp_only"] + doc["concl_only"]:
            return "mismatch list does not match the off-diagonal cells"
        if criterion != "lemma14":
            return None if not doc["mismatches"] else "biconditional audit is not clean"
        # Three-factor lemma14 probe: the forward direction must hold, and each
        # hyp_only bundle must really break the gap conclusion.
        if doc["concl_only"]:
            return f"probe has concl_only = {doc['concl_only']}"
        for m in doc["mismatches"]:
            gaps = [max(e["degree"]) - min(e["degree"]) for e in m["bundle"]["summands"]]
            if not (m["hypothesis"] and not m["conclusion"] and max(gaps) > n):
                return f"probe mismatch {m} is not a gap violation"
        return None

    return _cli_op("audit " + criterion, argv, check_doc, total, (2 * bound + 1) ** len(shape))


def audit_ops(seed: int, rnd: int, small: bool = False) -> list[Op]:
    rng = random.Random(f"audit:{seed}:{rnd}")
    ops = []
    for criterion, shape, bound, max_rank in AUDITS_SMALL if small else AUDITS:
        if criterion == "thm13":
            caps = list(product(*[range(n + 1) for n in shape]))
            rng.shuffle(caps)
            ops += [_audit_op(criterion, shape, bound, max_rank, r) for r in caps]
        else:
            ops.append(_audit_op(criterion, shape, bound, max_rank, None))
    return ops


# ---------------------------------------------------------------- query

# One round: fixed kinds on fixed factor counts; 50 ops.  One op in 50 is
# thm12 on four factors at rank 2, which sets the p99 latency; every
# other op draws its rank from 1..4.
QUERY_PLAN = (
    [("cohomology", s) for s in (1, 2, 2, 3, 3, 4, 6, 8)]  # two ops each: query and its Serre dual
    + [("regularity", s) for s in (1, 2, 2, 2, 3, 3)]
    + [("acm", s) for s in (1, 2, 2, 3, 5, 7)]
    + [("thm12", s) for s in (1, 2, 2, 2, 3, 3, 3, 4)]
    + [("thm13", s) for s in (2, 2, 3, 3)]
    + [("lemma14", s) for s in (2, 2, 3)]
    + [("miyazaki", 2)] * 3
    + [("E_DOMAIN", 2), ("E_USAGE", 2), ("E_JSON", 2), ("E_GUARD", 3)]
)


def _cohomology_pair(rng, dims, degrees) -> list[Op]:
    """A cohomology --t query and its Serre-dual twin, which must agree.

    H^t(E(d)) is dual to H^{N-t}(E^v(-d) (x) omega), so the twin asks for
    degree N - t of the dual bundle at twist -d - n - 1.
    """
    total = sum(dims)
    d = tuple(rng.randint(-3, 3) for _ in dims)
    t = rng.randint(0, total)
    if rng.random() < 0.5:
        # Ask where the first summand actually has cohomology, when it has any.
        for q in range(total + 1):
            if line_dim(dims, tuple(x + y for x, y in zip(degrees[0], d)), q):
                t = q
    dual = [tuple(-x for x in a) for a in degrees]
    dual_d = tuple(-x - n - 1 for x, n in zip(d, dims))
    answers = {}

    def make(key, bundle, twist, q):
        want = sum_dim(dims, bundle, twist, q)

        def check_doc(out):
            rows = json.loads(out)
            if rows != [{"t": q, "twist": list(twist), "dim": rows[0]["dim"]}]:
                return f"unexpected rows {out[:200]!r}"
            answers[key] = got = rows[0]["dim"]
            if got != want:
                return f"dim {got}, oracle {want}"
            if key == "dual" and answers.get("direct", got) != got:
                return f"Serre dual twin {got} differs from {answers['direct']}"
            return None

        argv = ["cohomology", "--bundle", bundle_json(dims, bundle), "--t", str(q),
                "--twist", _vec(twist)]
        return _cli_op("cohomology", argv, check_doc)

    return [make("direct", degrees, d, t), make("dual", dual, dual_d, total - t)]


def _regularity_op(dims, degrees) -> Op:
    region = sorted((-sum(j), j) for j in product(*[range(-n, 1) for n in dims]) if sum(j) < 0)

    def check_doc(out):
        doc = json.loads(out)
        regular = all(x >= 0 for a in degrees for x in a)
        index = max(-x for a in degrees for x in a)
        if doc["zero_regular"] != regular or doc["reg_index"] != index:
            return f"got {out[:200]!r}, expected regular={regular} reg_index={index}"
        want = [{"t": t, "j": list(j), "dim": sum_dim(dims, degrees, j, t)} for t, j in region]
        want = [w for w in want if w["dim"]]
        if doc.get("witnesses", []) != want:
            return "witnesses differ from the region scan"
        return None

    return _cli_op("regularity", ["regularity", "--bundle", bundle_json(dims, degrees)], check_doc)


def _diagonal_hits(dims, degrees) -> dict[int, list[int]]:
    """Intermediate degrees i with H^i(E(t,...,t)) != 0, and the t where they occur.

    Outside [min(-a_l - n_l - 1) - 1, max(-a_l) + 1] every factor is in the
    same state, so the total degree there is 0 or dim X; scanning the
    window therefore finds every intermediate degree.
    """
    total = sum(dims)
    lo = min(-x - n - 1 for a in degrees for x, n in zip(a, dims)) - 1
    hi = max(-x for a in degrees for x in a) + 1
    hits: dict[int, list[int]] = {}
    for t in range(lo, hi + 1):
        for i in range(1, total):
            if sum_dim(dims, degrees, (t,) * len(dims), i):
                hits.setdefault(i, []).append(t)
    return hits


def _acm_op(dims, degrees) -> Op:
    hits = _diagonal_hits(dims, degrees)

    def check_doc(out):
        doc = json.loads(out)
        if doc["acm"] != (not hits) or doc["acm"] != (not doc["witnesses"]):
            return f"acm {doc['acm']}, oracle intermediate degrees {sorted(hits)}"
        if sorted(w["i"] for w in doc["witnesses"]) != sorted(hits):
            return "witness degrees differ from the diagonal scan"
        for w in doc["witnesses"]:
            if w["t"] != min(hits[w["i"]]):
                return f"witness {w} is not the first nonvanishing twist"
        if len(degrees) == 1 and doc.get("closed_form") != doc["acm"]:
            return "closed form disagrees with the interval engine"
        return None

    return _cli_op("acm", ["acm", "--bundle", bundle_json(dims, degrees)], check_doc)


def _violation_op(kind, dims, degrees, r) -> Op:
    """thm12 / thm13 / miyazaki: every reported row must be real nonvanishing."""
    total = sum(dims)

    def check_doc(out):
        rows = json.loads(out)
        for row in rows:
            i, j, t = row["i"], row["j"], row["t"]
            admissible = (1 <= i < total and -i <= sum(j) <= 0
                          and all(-n <= x <= 0 for x, n in zip(j, dims)))
            want = sum_dim(dims, degrees, [x + t for x in j], i)
            if not admissible or row["dim"] != want or want == 0:
                return f"row {row} not a nonvanishing admissible tuple (oracle {want})"
        keys = [(row["i"], tuple(row["j"]), row["t"]) for row in rows]
        if keys != sorted(set(keys)):
            return "rows are unsorted or repeated"
        return None

    argv = ["check", kind, "--bundle", bundle_json(dims, degrees)]
    if r is not None:
        argv += ["--r", _vec(r)]
    return _cli_op("check " + kind, argv, check_doc)


def _lemma14_op(dims, degrees) -> Op:
    s, n = len(dims), dims[0]

    def check_doc(out):
        doc = json.loads(out)
        if doc["vacuous_degrees"] != [s * n + 1]:
            return f"vacuous degrees {doc['vacuous_degrees']}"
        if doc["conditions_hold"] != (not doc["witnesses"]):
            return "conditions_hold disagrees with the witness list"
        for w in doc["witnesses"]:
            want = sum_dim(dims, degrees, [x + w["tau"] for x in w["j"]], w["t"])
            if w["dim"] != want or want == 0:
                return f"witness {w} is not real nonvanishing (oracle {want})"
        return None

    argv = ["check", "lemma14", "--bundle", bundle_json(dims, degrees)]
    return _cli_op("check lemma14", argv, check_doc)


def query_ops(seed: int, rnd: int, small: bool = False) -> list[Op]:
    rng = random.Random(f"query:{seed}:{rnd}")
    plan = QUERY_PLAN[::5] if small else QUERY_PLAN
    ops: list[Op] = []
    for kind, s in plan:
        rank = 2 if (kind, s) == ("thm12", 4) else rng.randint(1, 4)
        if kind == "cohomology":
            dims = tuple(rng.randint(1, 3 if s <= 3 else 2) for _ in range(s))
            ops += _cohomology_pair(rng, dims, _degrees(rng, dims, rank, -3, 3))
        elif kind == "regularity":
            dims = tuple(rng.randint(1, 2) for _ in range(s))
            ops.append(_regularity_op(dims, _degrees(rng, dims, rank, -2, 3)))
        elif kind == "acm":
            dims = tuple(rng.randint(1, 3 if s <= 3 else 2) for _ in range(s))
            ops.append(_acm_op(dims, _degrees(rng, dims, rank, -3, 3)))
        elif kind == "thm12":
            dims = tuple(rng.randint(2, 3 if s <= 2 else 2) for _ in range(s))
            ops.append(_violation_op("thm12", dims, _degrees(rng, dims, rank, -2, 2), None))
        elif kind == "thm13":
            dims = tuple(rng.randint(1, 3 if s <= 2 else 2) for _ in range(s))
            r = tuple(rng.randint(0, n) for n in dims)
            ops.append(_violation_op("thm13", dims, _degrees(rng, dims, rank, -2, 2), r))
        elif kind == "lemma14":
            dims = (rng.randint(1, 2) if s == 2 else 1,) * s
            ops.append(_lemma14_op(dims, _degrees(rng, dims, rank, -2, 2)))
        elif kind == "miyazaki":
            dims = tuple(rng.randint(2, 3) for _ in range(s))
            r = tuple(rng.randint(0, n) for n in dims) if rng.random() < 0.5 else None
            ops.append(_violation_op("miyazaki", dims, _degrees(rng, dims, rank, -2, 2), r))
        elif kind == "E_DOMAIN":
            dims = tuple(rng.sample((1, rng.randint(1, 3)), 2))
            ops.append(_refusal_op(kind, ["check", "thm12", "--bundle",
                                          bundle_json(dims, _degrees(rng, dims, rank, -2, 2))]))
        elif kind == "E_USAGE":
            dims = (2, 2)
            ops.append(_refusal_op(kind, ["check", "thm12", "--bundle",
                                          bundle_json(dims, _degrees(rng, dims, rank, -2, 2)),
                                          "--r", "1,1"]))
        elif kind == "E_JSON":
            dims = (rng.randint(1, 3), rng.randint(1, 3))
            text = bundle_json(dims, _degrees(rng, dims, rank, -2, 2))
            cut = text[: rng.randint(1, len(text) - 1)]
            ops.append(_refusal_op(kind, ["cohomology", "--bundle", cut, "--t", "0"]))
        else:  # E_GUARD: far more candidates than the audit guard admits
            ops.append(_refusal_op(kind, ["audit", "--shape", "2,2,2", "--criterion", "thm12",
                                          "--bound", str(rng.randint(8, 12)), "--max-rank", "3"]))
    return ops


# ---------------------------------------------------------------- table

TABLES = (
    # (shape, box half-width, format); one round renders each once, in about a second.
    ((2, 2), 45, "json"),
    ((2, 2), 45, "csv"),
    ((1, 1, 1), 9, "json"),
    ((1, 1, 1), 9, "csv"),
)
TABLES_SMALL = (((2, 2), 2, "json"), ((1, 1, 1), 1, "csv"))
TABLE_RANK = 3  # degrees in [-2, 2]^s keep the row count within a few percent across seeds


def _parse_table(out: str, fmt: str, s: int) -> list[tuple[int, tuple[int, ...], int]]:
    if fmt == "json":
        return [(row["t"], tuple(row["twist"]), row["dim"]) for row in json.loads(out)]
    lines = out.splitlines()
    if lines[0] != ",".join(["t"] + [f"twist_{k}" for k in range(1, s + 1)] + ["dim"]):
        raise ValueError(f"bad csv header {lines[0]!r}")
    rows = []
    for line in lines[1:]:
        cells = [int(c) for c in line.split(",")]
        rows.append((cells[0], tuple(cells[1:-1]), cells[-1]))
    return rows


def _table_op(dims, bound, fmt, degrees) -> Op:
    s = len(dims)
    text = bundle_json(dims, degrees)
    twists = box(s, bound)

    def check_doc(out):
        rows = _parse_table(out, fmt, s)
        if rows != sorted(rows) or any(dim <= 0 for _, _, dim in rows):
            return "rows are unsorted or hold a zero dimension"
        alternating = dict.fromkeys(twists, 0)
        for t, twist, dim in rows:
            if twist not in alternating:
                return f"twist {twist} outside the box"
            alternating[twist] += (-1) ** t * dim
        E = bundle_from_json(text)
        for twist in twists:
            if alternating[twist] != euler_characteristic(E, twist):
                return f"alternating sum at {twist} is not the Euler characteristic"
        return None

    argv = ["cohomology", "--bundle", text, "--box", str(bound), "--format", fmt]
    return _cli_op("table " + fmt, argv, check_doc, len(twists) * (sum(dims) + 1))


def table_ops(seed: int, rnd: int, small: bool = False) -> list[Op]:
    rng = random.Random(f"table:{seed}:{rnd}")
    return [
        _table_op(dims, bound, fmt, _degrees(rng, dims, TABLE_RANK, -2, 2))
        for dims, bound, fmt in (TABLES_SMALL if small else TABLES)
    ]


# ---------------------------------------------------------------- koszul

KOSZUL_MAX_TOTAL = 4  # every shape of total dimension 1..4
KOSZUL_BOX = 3  # extra twists in [-3, 3]^s
KOSZUL_SPREAD = 1000  # starting degrees d in [-1000, 1000]^s


def _exactness_op(dims, axis, d, bound) -> Op:
    twists = box(len(dims), bound)

    def call():
        C = koszul.koszul_factor_complex(dims, axis, d)
        return C, [koszul.euler_exactness_check(C, w) for w in twists]

    def check(result):
        C, exact = result
        n = dims[axis]
        want = [comb(n + 1, r) for r in range(n + 2)]
        if [term.rank for term in C.terms] != want:
            return f"term ranks {[term.rank for term in C.terms]}, expected {want}"
        if not all(exact):
            return f"not Euler-exact at {twists[exact.index(False)]}"
        return None

    def text(result):
        C, exact = result
        return json.dumps({"complex": C.to_json(), "exact": exact}, separators=(",", ":"))

    return Op("koszul exactness", ("euler_exactness_check", dims, axis, d, bound), len(twists),
              call, check, text)


def _iso_op(dims) -> Op:
    def check(pairs):
        return None if pairs and all(p == (1, 1) for p in pairs) else f"iso pairs {pairs}"

    return Op("koszul iso", ("proposition_iso_dims", dims), 2 * len(dims),
              lambda: koszul.proposition_iso_dims(dims), check,
              lambda pairs: json.dumps([list(p) for p in pairs]))


def koszul_ops(seed: int, rnd: int, small: bool = False) -> list[Op]:
    rng = random.Random(f"koszul:{seed}:{rnd}")
    max_total, bound = (2, 1) if small else (KOSZUL_MAX_TOTAL, KOSZUL_BOX)
    ops = []
    for total in range(1, max_total + 1):
        for dims in compositions(total):
            for axis in range(len(dims)):
                d = tuple(rng.randint(-KOSZUL_SPREAD, KOSZUL_SPREAD) for _ in dims)
                ops.append(_exactness_op(dims, axis, d, bound))
            ops.append(_iso_op(dims))
    return ops


WORKLOADS: dict[str, Callable[..., list[Op]]] = {
    "audit": audit_ops,
    "query": query_ops,
    "table": table_ops,
    "koszul": koszul_ops,
}
