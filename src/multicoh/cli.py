"""Command line front end.

Subcommands: cohomology, regularity, acm, koszul, check, audit.  Output
is deterministic: the same invocation always produces identical bytes.
Exit codes: 0 on success, 1 when --strict is set and a violation or
mismatch was found, 2 on invalid input (one-line CODE: message on
stderr).

`main` builds its parser once per process and parses each call's argv once:
argv that starts with a command name goes straight to that command's parser,
which `_plain_args` reads from its actions unless argparse is needed (help, an
error, an unusual spelling).  `build_parser()` returns a new parser on every call.
"""

import argparse
import functools
import json
import os
import re
import sys
from itertools import chain, compress, product, starmap
from operator import add
from pathlib import Path

from . import criteria, koszul, regularity
from .core import (
    InputError,
    LineBundleSum,
    Shape,
    _box_ranges,
    _box_tables,
    _refuse_past,
    bundle_from_json,
    cohomology_table,
    sum_cohomology_dim,
    twist,
)

FILE_GUARD = 10_000_000  # bytes of a bundle file: about 1 s and 250 MB to parse
_NEGATIVE = re.compile(r"^-\d+(?:,-?\d+)*$")  # twists like -3,-3 are option values, not names


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE

    def error(self, message):
        print(f"E_USAGE: {message}", file=sys.stderr)
        raise SystemExit(2)


def _plain_args(p, argv):
    """p.parse_args(argv) read from p's actions when argv is plain, else None for argparse.

    Plain: p's positionals in order, then exact option strings of store and store_true actions,
    each value one word of its action's type and choices, not starting with "-" unless a
    negative vector.  argparse alone parses help, errors, abbreviations, --opt=value and --."""
    ns = argparse.Namespace(**{a.dest: a.default for a in p._actions
                               if argparse.SUPPRESS not in (a.dest, a.default)})
    words, seen = iter(argv), set()
    positionals = [a for a in p._actions if not a.option_strings]
    try:  # each action takes its value words from words, before the next option string
        for a in chain(positionals, map(p._option_string_actions.__getitem__, words)):
            setattr(ns, a.dest, _plain_value(a, words))
            seen.add(a)
    except (KeyError, StopIteration, ValueError):
        return None
    return None if any(a.required and a not in seen for a in p._actions) else ns


def _plain_value(a, words):
    """The value argparse gives store or store_true action a from the next words, or ValueError."""
    if type(a) is argparse._StoreTrueAction:
        return True
    word = next(words)
    if (type(a) is not argparse._StoreAction or a.nargs is not None
            or word.startswith("-") and not _NEGATIVE.fullmatch(word)):
        raise ValueError(word)
    value = word if a.type is None else a.type(word)
    if a.choices is not None and value not in a.choices:
        raise ValueError(word)
    return value


def _int_vector(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise InputError("E_USAGE", f"{what} must be comma-separated integers, got {text!r}")


def _load_bundle(source: str) -> LineBundleSum:
    text = source.strip()
    if not text.startswith("{"):
        try:
            with Path(source).open("rb") as f:  # never read past one byte over the limit
                data, more = f.read(FILE_GUARD), f.read(1)
            _refuse_past(None if more else len(data), FILE_GUARD, "bytes", "bundle-file guard")
            text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")  # as read_text
        except InputError:  # the guard's refusal, itself a ValueError
            raise
        except (OSError, ValueError) as e:  # ValueError: bytes not UTF-8, or a NUL in the path
            raise InputError("E_JSON", f"cannot read bundle file {source!r}: {e}")
    return bundle_from_json(text)


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


class _SummandTexts(dict):
    """(degree, mult) -> encode((degree, mult)), computed the first time the pair is looked up."""

    def __init__(self, encode):
        self.encode = encode

    def __missing__(self, pair):
        text = self[pair] = self.encode(pair)
        return text


def emit_table(rows, columns: list[tuple[str, int]], fmt: str) -> str:
    """Render rows, tuples in column order, in the order given.

    columns lists (field, vector_width) pairs, vector_width 0 for a scalar
    field; a vector field is a tuple of that width in every row, and field
    names are identifiers.  json keeps vectors as arrays in one array
    document, even for one row; csv flattens them into field_1 ... field_s
    under a header that is there even with no rows; table aligns the csv
    cells.  Every producer in this package returns its rows sorted as
    tuples, so they are not sorted again here.  Every format fills one row
    template built from one field list: {i} for a scalar, {i[0]},...,{i[w-1]}
    for a vector.  json cells are ints, which JSON prints as str() does; a str
    cell (lemma14's condition) reaches only csv and table, which print it bare.
    """
    fields = [",".join([f"{{{i}[{k}]}}" for k in range(width)]) if width else f"{{{i}}}"
              for i, (_, width) in enumerate(columns)]
    if fmt == "json":
        line = ",".join([f'"{name}":[{field}]' if width else f'"{name}":{field}'
                         for (name, width), field in zip(columns, fields)])
        return "[%s]" % ",".join(starmap(("{{" + line + "}}").format, rows))
    line = ",".join(fields)
    headers = [f"{name}_{k + 1}" if width else name
               for name, width in columns for k in range(width or 1)]
    if fmt == "csv":
        return "\n".join([",".join(headers), *starmap(line.format, rows)])
    fields = line.split(",")
    lines = [headers] + [[field.format(*row) for field in fields] for row in rows]
    sizes = [max(map(len, column)) for column in zip(*lines)]
    return "\n".join(["  ".join(text.rjust(w) for text, w in zip(cells, sizes)) for cells in lines])


def _cmd_cohomology(args) -> int:
    E = _load_bundle(args.bundle)
    s = E.shape.s
    columns = [("t", 0), ("twist", s), ("dim", 0)]
    if args.t is None and args.box is None:
        raise InputError("E_USAGE", "cohomology needs --t or --box")
    if args.t is not None and args.box is not None:
        raise InputError("E_USAGE", "--t and --box cannot be combined")
    if args.twist is not None and args.box is not None:
        raise InputError("E_USAGE", "--twist and --box cannot be combined")
    if args.t is not None:
        d = _int_vector(args.twist, "--twist") if args.twist else (0,) * s
        rows = [(args.t, d, sum_cohomology_dim(E, d, args.t))]
    elif args.format != "table":
        print(_box_text(E, args.box, args.format))
        return 0
    else:  # aligned output needs every column's width before its first row: keep the rows
        rows = cohomology_table(E, args.box).rows
    print(emit_table(rows, columns, args.format))
    return 0


def _box_text(E: LineBundleSum, bound: int, fmt: str) -> str:
    """emit_table's json or csv of cohomology_table(E, bound).rows, made from the box join's
    tables: each table's nonzero slots pick their twists' texts, each made once, in row order.
    Every table has a nonzero slot, so each makes at least one row."""
    ranges = _box_ranges(E, bound)
    tables = _box_tables(E, ranges)  # refuses past the guards before any text is built
    if fmt == "json":
        head, mid, end, sep = '{"t":%d,"twist":[', '],"dim":', "}", ","
    else:
        head, mid, end, sep = "%d,", ",", "", "\n"
    texts = [",".join(p) + mid for p in product(*[map(str, xs) for xs in ranges])]
    parts = []
    for t, arr in tables:
        parts.append(head % t + (end + sep + head % t).join(
            map(add, compress(texts, arr), map(str, filter(None, arr)))) + end)
        del arr  # one table at a time, as in _box_rows
    if fmt == "json":
        return "[%s]" % ",".join(parts)
    return "\n".join([emit_table((), [("t", 0), ("twist", E.shape.s), ("dim", 0)], "csv"), *parts])


def _cmd_regularity(args) -> int:
    E = _load_bundle(args.bundle)
    verdict = regularity.is_zero_regular(E)
    doc = {"zero_regular": verdict.regular, "reg_index": regularity.regularity_index(E)}
    if not verdict.regular:
        doc["witnesses"] = verdict.to_json()["witnesses"]
    if args.m is not None:
        m = _int_vector(args.m, "--m")
        doc["m"] = list(m)
        doc["m_regular"] = regularity.is_globally_generated(twist(E, m))  # E(m) is 0-regular
    if args.format == "json":
        print(_dump(doc))
    elif args.format == "csv":
        columns = [("t", 0), ("j", E.shape.s), ("dim", 0)]
        print(emit_table(verdict.witnesses, columns, "csv"))
    else:
        lines = [f"zero_regular: {verdict.regular}", f"reg_index: {doc['reg_index']}"]
        lines += [f"  nonzero H^{t} at j={list(j)} (dim {dim})" for t, j, dim in verdict.witnesses]
        if args.m is not None:
            lines.append(f"m_regular at {doc['m']}: {doc['m_regular']}")
        print("\n".join(lines))
    return 0


def _cmd_acm(args) -> int:
    E = _load_bundle(args.bundle)
    acm, witnesses = regularity.is_acm(E)
    doc = {"acm": acm, "witnesses": [{"i": i, "t": t} for i, t in witnesses]}
    if E.rank == 1:
        doc["closed_form"] = regularity.acm_closed_form(E.summands[0][0], E.shape)
    if args.format == "json":
        print(_dump(doc))
    elif args.format == "csv":
        print(emit_table(witnesses, [("i", 0), ("t", 0)], "csv"))
    else:
        lines = [f"acm: {acm}"] + [f"  nonzero H^{i} at diagonal twist {t}" for i, t in witnesses]
        print("\n".join(lines))
    return 0


def _cmd_koszul(args) -> int:
    shape = Shape(_int_vector(args.shape, "--shape"))
    if args.iso:
        if args.factor is not None or args.d is not None:
            raise InputError("E_USAGE", "--iso cannot be combined with --factor or --d")
        pairs = koszul.proposition_iso_dims(shape)
        if args.format == "json":
            print(_dump({"pairs": [list(p) for p in pairs]}))
        else:
            print(emit_table(pairs, [("lhs", 0), ("rhs", 0)], args.format))
        return 0
    if args.factor is None:
        raise InputError("E_USAGE", "koszul needs --factor (1-based) or --iso")
    if not 1 <= args.factor <= shape.s:
        raise InputError("E_RANGE", f"--factor must be in [1, {shape.s}]")
    d = _int_vector(args.d, "--d") if args.d else (0,) * shape.s
    complex_ = koszul.koszul_factor_complex(shape, args.factor - 1, d)
    doc = complex_.to_json()
    doc["euler_exact"] = koszul.euler_exactness_check(complex_)
    if args.format == "json":
        print(_dump(doc))
    else:
        rows = [(pos, degree, mult)
                for pos, term in enumerate(complex_.terms) for degree, mult in term.summands]
        print(emit_table(rows, [("position", 0), ("degree", shape.s), ("mult", 0)], args.format))
    return 0


def _cmd_check(args) -> int:
    E = _load_bundle(args.bundle)
    s = E.shape.s
    r = _int_vector(args.r, "--r") if args.r else None
    if r is not None and args.criterion in ("thm12", "lemma14"):
        raise InputError("E_USAGE", f"--r does not apply to {args.criterion}")
    if args.criterion == "lemma14":
        report = criteria.lemma14_check(E)
        if args.format == "json":
            print(_dump(report.to_json()))
        else:
            columns = [("condition", 0), ("t", 0), ("j", s), ("tau", 0), ("dim", 0)]
            print(emit_table(report.witnesses, columns, args.format))
        return 1 if (args.strict and not report.conditions_hold) else 0
    if args.criterion == "thm12":
        report = criteria.thm12_violations(E)
    elif args.criterion == "thm13":
        if r is None:
            raise InputError("E_USAGE", "thm13 needs --r")
        report = criteria.thm13_violations(E, r)
    else:
        report = criteria.miyazaki_violations(E, r)
    columns = [("i", 0), ("j", s), ("t", 0), ("dim", 0)]
    print(emit_table(report.rows, columns, args.format))
    return 1 if (args.strict and not report.empty) else 0


def _cmd_audit(args) -> int:
    shape = Shape(_int_vector(args.shape, "--shape"))
    r = _int_vector(args.r, "--r") if args.r else None
    counts, rows = criteria._audit_rows(shape, args.bound, args.max_rank, args.criterion, r)
    names = ("total", "both", "hyp_only", "concl_only", "neither")
    # A row is the template of its mask (hypothesis + 2 * conclusion), which holds the bundle
    # head, filled with its summand texts, each encoded once: str(E) in a table, else
    # bundle_to_json(E); for int cells "%d" and ",".join(map(str, ...)) give json.dumps's bytes.
    fmt, quote = args.format, '""' if args.format == "csv" else '"'
    if fmt == "table":
        sep, head, item = " + ", "%s", "  mismatch %s hypothesis=%s conclusion=%s"
        encode = lambda pair: str(LineBundleSum(shape, (pair,)))
    else:
        sep, head = ",", '{"shape":%s,"summands":[%%s]}' % _dump(list(shape.dims))
        item = '{"bundle":%s,"hypothesis":%s,"conclusion":%s}' if fmt == "json" else '"%s",%s,%s'
        summand = '{"degree":[%s],"mult":%d}'.replace('"', quote)
        encode = lambda pair: summand % (",".join(map(str, pair[0])), pair[1])
    show = ("false", "true") if fmt == "json" else ("False", "True")
    template = [item % (head.replace('"', quote), show[m & 1], show[m >> 1]) for m in range(4)]
    texts = _SummandTexts(encode).__getitem__
    lines = [template[m] % sep.join(map(texts, s)) for s, m in rows]
    if fmt == "json":
        doc = ",".join('"%s":%d' % pair for pair in zip(names, counts))
        print('{%s,"mismatches":[%s]}' % (doc, ",".join(lines)))
    else:
        top = ([f"{name}: {count}" for name, count in zip(names, counts)] if fmt == "table"
               else ["bundle,hypothesis,conclusion"])
        print("\n".join(top + lines))
    return 1 if (args.strict and rows) else 0


def build_parser() -> argparse.ArgumentParser:
    # the docstring's last paragraph is for callers of main, not for --help
    parser = _Parser(prog="multicoh", description=(__doc__ or "").rpartition("\n\n")[0] or None)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_format(p):
        p.add_argument("--format", choices=["json", "csv", "table"], default="json")

    p = sub.add_parser("cohomology", help="dimensions of H^t(E(twist))")
    p.add_argument("--bundle", required=True, help="bundle JSON, inline or a file path")
    p.add_argument("--twist", help="twist vector a,b,...")
    p.add_argument("--t", type=int, help="single cohomological degree")
    p.add_argument("--box", type=int, help="tabulate nonzero dims over twists in [-B,B]^s")
    add_format(p)

    p = sub.add_parser("regularity", help="0-regularity, regularity index, witnesses")
    p.add_argument("--bundle", required=True)
    p.add_argument("--m", help="also test m-regularity at this twist vector")
    add_format(p)

    p = sub.add_parser("acm", help="intermediate diagonal cohomology test")
    p.add_argument("--bundle", required=True)
    add_format(p)

    p = sub.add_parser("koszul", help="factor coordinate-form complexes")
    p.add_argument("--shape", required=True, help="factor dimensions n1,n2,...")
    p.add_argument("--factor", type=int, help="factor index, 1-based")
    p.add_argument("--d", help="starting degree vector, default zero")
    p.add_argument("--iso", action="store_true", help="corner cohomology dimension pairs")
    add_format(p)

    p = sub.add_parser("check", help="run a splitting-criterion hypothesis check")
    p.add_argument("criterion", choices=["thm12", "thm13", "lemma14", "miyazaki"])
    p.add_argument("--bundle", required=True)
    p.add_argument("--r", help="per-axis excess caps a,b,... (thm13/miyazaki)")
    p.add_argument("--strict", action="store_true", help="exit 1 when violations are found")
    add_format(p)

    p = sub.add_parser("audit", help="enumerate bundles and cross-check a criterion")
    p.add_argument("--shape", required=True)
    p.add_argument("--criterion", required=True, choices=["thm12", "thm13", "lemma14"])
    p.add_argument("--bound", type=int, required=True, help="degree box half-width B")
    p.add_argument("--max-rank", type=int, required=True)
    p.add_argument("--r", help="per-axis excess caps (thm13 only)")
    p.add_argument("--jobs", type=int, default=1, help="accepted for compatibility; no effect")
    p.add_argument("--strict", action="store_true", help="exit 1 when mismatches are found")
    add_format(p)

    parser.command_parsers = sub.choices  # name -> subparser, for main's dispatch
    return parser


_COMMANDS = {
    "cohomology": _cmd_cohomology,
    "regularity": _cmd_regularity,
    "acm": _cmd_acm,
    "koszul": _cmd_koszul,
    "check": _cmd_check,
    "audit": _cmd_audit,
}


_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        parser = _parser()
        argv = sys.argv[1:] if argv is None else list(argv)
        if argv and argv[0] in parser.command_parsers:  # the full parser only hands argv[1:] on
            name, p = argv[0], parser.command_parsers[argv[0]]
            args = _plain_args(p, argv[1:]) or p.parse_args(argv[1:])  # a Namespace is true
        else:  # help, no or an unknown command, or a leading --
            args = parser.parse_args(argv)
            name = args.command
        code = _COMMANDS[name](args)
        sys.stdout.flush()
        return code
    except InputError as e:
        print(f"{e.code}: {e}", file=sys.stderr)
        return 2
    except ValueError as e:  # str() of a result int past the digit limit; nothing printed yet
        if "integer string conversion" not in str(e):
            raise
        print(f"E_GUARD: a result has more than {sys.get_int_max_str_digits()} digits",
              file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout early; send the rest to devnull so the
        # interpreter's flush at exit raises nothing
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, ValueError):  # no descriptor, e.g. a StringIO
            return 1
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), fd)
        return 1


if __name__ == "__main__":
    sys.exit(main())
