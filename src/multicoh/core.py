"""Exact cohomology of direct sums of line bundles on a product of projective spaces.

The ambient space is P^{n_1} x ... x P^{n_s}, encoded by a Shape.  A line
bundle O(a_1, ..., a_s) is encoded by its integer degree vector, and a
direct sum of line bundles by a LineBundleSum, a canonical multiset of
(degree, multiplicity) pairs.

Every dimension is computed from the one-factor rule

    dim H^q(P^n, O(a)) = C(a+n, n)   if q == 0 and a >= 0,
                         C(-a-1, n)  if q == n and a <= -n-1,
                         0           otherwise,

combined across factors by the Kunneth formula.  Each factor is in one
of three states: sections (a_i >= 0), top (a_i <= -n_i-1) or dead.  One
dead factor kills every Kunneth term, and otherwise exactly one term
survives, so O(a) has cohomology in the single degree sum(n_i over the
top factors) or in none.  Every box and ray query joins these per-axis
states, in one of two ways.  _box_tables joins them over a box of twists d
into a dense table per degree.  _box_rows lists each nonzero H^t(E(d)) off
those tables for cohomology tables and the 0-regularity witnesses, and the
json and csv of `cohomology --box` are rendered from them.  _diagonal_runs
joins them over a box of twists j, at most n_k+1 wide on axis k, along the
diagonal ray j + tau*(1,...,1), one phase of tau at a time, and lists runs:
a j with the one interval of tau where a summand has H^i != 0, for the
intermediate degrees 0 < i < dim X.  The criteria, the aCM test and the
nonvanishing-twist intervals read it.  Each join refuses the inputs past
its own guards with E_GUARD before any work.  All arithmetic is exact
(Python integers); nothing here floats.
"""

import json
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, compress, product, repeat
from math import comb, prod
from operator import add, mul

from .intervals import IntervalSet

Degree = tuple[int, ...]

BOX_GUARD = 1_000_000  # twists a box join may cover: (2B+1)^s for a table
TABLE_GUARD = 10_000_000  # (twist, summand) pairs a box join may cover: 1 to 2.5 s of join
DIAGONAL_GUARD = 30_000_000  # j entries a diagonal join may write: about 1 s of join on (P^2)^8
JBOX_GUARD = 10_000  # twists j of a diagonal join's box, checked before its j entries are counted
COUNT_BITS = 1 << 18  # guards work out a count only below about this many bits: past all limits


class InputError(ValueError):
    """Invalid input, tagged with a short machine-readable code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def _box_size(sides: list[int]) -> int | None:
    """prod(sides), or None once sum(side.bit_length() - 1) exceeds COUNT_BITS (the product
    has more bits than that).  Equal sides are raised to a power, not multiplied one by one."""
    if sum(map(int.bit_length, sides)) - len(sides) > COUNT_BITS:
        return None
    return prod(side ** count for side, count in Counter(sides).items())


def _refuse_past(count: int | None, limit: int, what: str, guard: str, error=None) -> int:
    """count if it is at most limit, else raise E_GUARD (error(message) if given) with '<count>
    <what> exceed the <guard> of <limit>', the count reading 'more than <limit>' if None (not
    worked out) or too long for str().  Every E_GUARD InputError in the library is raised here."""
    if count is not None and count <= limit:
        return count
    try:
        shown = f"more than {limit}" if count is None else str(count)
    except ValueError:
        shown = f"more than {limit}"
    message = f"{shown} {what} exceed the {guard} of {limit}"
    raise InputError("E_GUARD", message) if error is None else error(message)


@dataclass(frozen=True)
class Shape:
    """Factor dimensions (n_1, ..., n_s) of a product of projective spaces."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(self.dims)
        if len(dims) < 1:
            raise InputError("E_SHAPE", "shape needs at least one factor")
        for n in dims:
            if not isinstance(n, int) or isinstance(n, bool) or n < 1:
                raise InputError("E_SHAPE", f"factor dimensions must be integers >= 1, got {n!r}")
        object.__setattr__(self, "dims", dims)

    @property
    def s(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def __len__(self):
        return len(self.dims)

    def __iter__(self):
        return iter(self.dims)

    def __getitem__(self, i):
        return self.dims[i]


def _as_shape(shape) -> Shape:
    return shape if isinstance(shape, Shape) else Shape(tuple(shape))


def _check_vector(shape: Shape, v, what: str) -> Degree:
    v = tuple(v)
    if len(v) != len(shape.dims):
        raise InputError("E_SHAPE", f"{what} has length {len(v)}, shape has {shape.s} factors")
    for x in v:
        if type(x) is int:
            continue
        if not isinstance(x, int) or isinstance(x, bool):
            raise InputError("E_SHAPE", f"{what} entries must be integers, got {x!r}")
    return v


@dataclass(frozen=True)
class LineBundleSum:
    """Direct sum of line bundles in canonical form.

    Summands are stored sorted lexicographically by degree with equal
    degrees merged into one (degree, multiplicity) pair, so two sums are
    structurally equal exactly when they agree as multisets.
    """

    shape: Shape
    summands: tuple[tuple[Degree, int], ...]

    def __post_init__(self):
        shape = _as_shape(self.shape)
        merged: dict[Degree, int] = {}
        for degree, mult in self.summands:
            degree = _check_vector(shape, degree, "degree")
            if not isinstance(mult, int) or isinstance(mult, bool) or mult < 1:
                raise InputError("E_RANGE", f"multiplicity must be an integer >= 1, got {mult!r}")
            merged[degree] = merged.get(degree, 0) + mult
        if not merged:
            raise InputError("E_RANGE", "a line bundle sum needs at least one summand")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "summands", tuple(sorted(merged.items())))

    @property
    def rank(self) -> int:
        return sum(m for _, m in self.summands)

    def degrees(self) -> list[Degree]:
        """Degree vectors with multiplicity, expanded."""
        out = []
        for degree, mult in self.summands:
            out.extend([degree] * mult)
        return out

    def __add__(self, other: "LineBundleSum") -> "LineBundleSum":
        if self.shape != other.shape:
            raise InputError("E_SHAPE", "cannot sum bundles on different shapes")
        return LineBundleSum(self.shape, self.summands + other.summands)

    def __str__(self) -> str:
        bits = []
        for degree, mult in self.summands:
            term = "O(" + ",".join(str(a) for a in degree) + ")"
            bits.append(term if mult == 1 else f"{term}^{mult}")
        return " + ".join(bits)


def _canonical(shape: Shape, summands: tuple[tuple[Degree, int], ...]) -> LineBundleSum:
    """The LineBundleSum with these summands, built without any check.

    The caller must pass a Shape and a non-empty tuple of (degree, mult)
    pairs in canonical form: each degree a tuple of len(shape) ints, each
    mult an int >= 1, degrees distinct and sorted.  That is exactly what
    LineBundleSum(shape, summands) would store, so the result is equal to
    it and hashes alike; anything else breaks that equality silently.
    """
    E = object.__new__(LineBundleSum)
    E.__dict__["shape"] = shape  # frozen blocks setattr, not the instance dict
    E.__dict__["summands"] = summands
    return E


def line_bundle(shape, degree) -> LineBundleSum:
    """The single line bundle O(degree)."""
    return LineBundleSum(_as_shape(shape), ((tuple(degree), 1),))


def factor_cohomology_dim(n: int, a: int, q: int) -> int:
    """dim H^q(P^n, O(a)).  Nonzero only at q = 0 (a >= 0) or q = n (a <= -n-1)."""
    if n < 1:
        raise InputError("E_RANGE", f"projective space dimension must be >= 1, got {n}")
    t, dim = _line_cohomology((n,), (a,))
    return dim if t == q else 0


def _line_cohomology(dims, a) -> tuple[int, int]:
    """(t, dim): the one degree t where O(a) can have cohomology, and dim H^t there.

    Sections factors contribute C(a_i+n_i, n_i) in degree 0, top factors
    C(-a_i-1, n_i) in degree n_i, and a dead factor makes dim 0.
    """
    t = 0
    dim = 1
    for n, x in zip(dims, a):
        if x >= 0:
            dim *= comb(x + n, n)
        elif x <= -n - 1:
            dim *= comb(-x - 1, n)
            t += n
        else:
            return (0, 0)
    return (t, dim)


def kunneth_dim(shape, a, t: int) -> int:
    """dim H^t of O(a) on the product, via the Kunneth formula.

    A factor with a_i >= 0 has only sections, one with a_i <= -n_i-1 only
    top cohomology, and any other factor none, so at most one Kunneth
    term is nonzero: the product of the factor dimensions, in degree
    t = sum(n_i over the top factors).  Every other t gives 0.
    """
    shape = _as_shape(shape)
    q, dim = _line_cohomology(shape.dims, _check_vector(shape, a, "degree"))
    return dim if q == t else 0


def sum_cohomology_dim(E: LineBundleSum, d, t: int) -> int:
    """dim H^t(E(d)) for a twist vector d."""
    d = _check_vector(E.shape, d, "twist")
    dims = E.shape.dims
    total = 0
    for degree, mult in E.summands:
        q, dim = _line_cohomology(dims, [a + x for a, x in zip(degree, d)])
        if q == t:
            total += mult * dim
    return total


def binom_poly(x: int, n: int) -> int:
    """Polynomial binomial coefficient x(x-1)...(x-n+1)/n!, any integer x.

    Agrees with C(x, n) for x >= 0 and extends it polynomially to x < 0,
    where it equals (-1)^n C(n-1-x, n); used for Euler characteristics,
    where the combinatorial convention "negative means zero" does not apply.
    """
    return comb(x, n) if x >= 0 else (-1) ** n * comb(n - 1 - x, n)


def euler_characteristic(E: LineBundleSum, d=None) -> int:
    """chi(E(d)) in closed form: sum of products of binom_poly per factor."""
    dims = E.shape.dims
    if d is None:
        d = (0,) * len(dims)
    else:
        d = _check_vector(E.shape, d, "twist")
    total = 0
    for degree, mult in E.summands:
        prod = mult
        for a, w, n in zip(degree, d, dims):
            prod *= binom_poly(a + w + n, n)
            if prod == 0:
                break
        total += prod
    return total


def twist(E: LineBundleSum, d) -> LineBundleSum:
    """E tensor O(d)."""
    d = _check_vector(E.shape, d, "twist")
    # adding one vector keeps the degrees distinct and in order
    return _canonical(
        E.shape,
        tuple((tuple(a + x for a, x in zip(degree, d)), mult) for degree, mult in E.summands),
    )


def serre_dual(E: LineBundleSum) -> LineBundleSum:
    """The dual bundle: every degree negated."""
    # negation reverses the lexicographic order of distinct degrees
    return _canonical(
        E.shape,
        tuple((tuple(-a for a in degree), mult) for degree, mult in reversed(E.summands)),
    )


def dualizing_degree(shape) -> Degree:
    """Degree (-n_1-1, ..., -n_s-1) of the dualizing sheaf."""
    return tuple(-n - 1 for n in _as_shape(shape).dims)


def restrict_factor(E: LineBundleSum, axis: int) -> LineBundleSum:
    """Restriction to a hyperplane section in one factor.

    Replaces P^{n_axis} by P^{n_axis - 1}; a factor that would become P^0
    is dropped together with the matching degree coordinate.  Restricting
    the only factor of a P^1 is rejected, since the result would be a
    point rather than a product of projective spaces.
    """
    s = E.shape.s
    if not 0 <= axis < s:
        raise InputError("E_RANGE", f"factor index {axis} out of range for {s} factors")
    dims = list(E.shape.dims)
    if dims[axis] > 1:
        dims[axis] -= 1
        return LineBundleSum(Shape(tuple(dims)), E.summands)
    if s == 1:
        raise InputError("E_RANGE", "cannot restrict the only factor of a P^1 to a point")
    del dims[axis]
    new_summands = tuple(
        (degree[:axis] + degree[axis + 1:], mult) for degree, mult in E.summands
    )
    return LineBundleSum(Shape(tuple(dims)), new_summands)


def nonvanishing_twist_intervals(E: LineBundleSum, j, t: int) -> IntervalSet:
    """Exact set of integers tau with H^t(E(j + tau*(1,...,1))) != 0.

    A summand O(a) has sections exactly for tau >= max_k(-a_k-j_k) and top
    cohomology exactly for tau <= min_k(-a_k-j_k-n_k-1), so t = 0 gives one
    half line unbounded above per summand and t = total_dim one unbounded
    below, kept explicit as intervals with a None endpoint, never truncated.
    An intermediate t is the union of the degree-t runs of E(j) at j = 0
    (_diagonal_runs), all bounded.
    """
    shape = E.shape
    F = twist(E, j)
    if not 0 <= t <= shape.total_dim:
        raise InputError("E_RANGE", f"cohomological degree {t} outside [0, {shape.total_dim}]")
    if t == 0:
        parts = [(max(-a for a in degree), None) for degree, _ in F.summands]
    elif t == shape.total_dim:
        parts = [(None, min(-a - n - 1 for a, n in zip(degree, shape.dims)))
                 for degree, _ in F.summands]
    else:
        parts = [(first, last) for i, _, first, last, _, _ in _diagonal_runs(F, (0,) * shape.s)
                 if i == t]
    return IntervalSet(tuple(parts))


def _diagonal_runs(E: LineBundleSum, lows):
    """Every run (i, j, first, last, degree, mult): the summand O(degree), of multiplicity
    mult, has H^i(O(degree + j + tau*(1,...,1))) != 0 exactly for first <= tau <= last,
    over the box lows_k <= j_k <= 0 (lows_k >= -n_k) and the degrees 0 < i < dim X.

    Per summand O(a), cell (k, x), factor k at j_k = x, is top for tau <= -a_k-x-n_k-1,
    dead up to -a_k-x-1 and in sections from -a_k-x on.  A top cell (x < -a_k-tau-n_k)
    and a sections cell (x >= -a_k-tau) lie more than n_k apart, further than any two
    j_k of the box, so axis k has top cells only for tau < e_k = -a_k-lows_k-n_k and
    sections cells only for tau >= -a_k >= e_k.  Window: 0 < i < dim X needs a sections
    axis and a top axis, so -max a <= tau < max e.  Phases: the window is cut at every
    -a_k inside it, so no axis turns to sections inside a phase.  An axis with neither
    kind of cell at the start of a phase has none to its end.  Otherwise each axis is
    top (T) or sections (S) throughout, except that a T axis may run out of top cells
    at e_k, and every j's interval ends before that.  So i = sum(n_k over T) is constant
    where j is live, and j is live at tau iff tau <= -a_k-j_k-n_k-1 on T and
    tau >= -a_k-j_k on S: one interval, which the join of the axes' cells carries,
    dropping j once it is empty.  A summand has at most s phases, each yields a j at
    most once, and level k of a join holds at most box_k j's, the box of j_1..j_k, whatever
    the gaps of a.  It refuses past JBOX_GUARD twists j, then past DIAGONAL_GUARD j entries.
    """
    dims = E.shape.dims
    _refuse_past(_box_size([1 - lo for lo in lows]), JBOX_GUARD, "twists j", "j-box guard")
    summands = []
    for degree, mult in E.summands:
        ends = [-a - lo - n for a, lo, n in zip(degree, lows, dims)]
        right = max(ends)  # the window ends where the last axis runs out of top cells
        summands.append((degree, mult, ends, sorted({right, *(-a for a in degree if -a < right)})))
    entries = sum(k * box for k, box in enumerate(accumulate([1 - lo for lo in lows], mul), 1))
    phases = sum(len(cuts) - 1 for *_, cuts in summands)
    _refuse_past(entries * phases, DIAGONAL_GUARD, "j entries", "diagonal-join guard")
    for degree, mult, ends, cuts in summands:
        for start, stop in zip(cuts, cuts[1:]):
            i, live = 0, [((), start, stop - 1)]  # j so far, first and last tau it is live at
            for a, lo, n, end in zip(degree, lows, dims, ends):
                if start < end:  # top: cell x until u = -a-x-n-1
                    i += n
                    cells = [(x, -a - x - n - 1) for x in range(lo, min(0, -a - n - 1 - start) + 1)]
                    live = [(j + (x,), first, u if u < last else last)
                            for j, first, last in live for x, u in cells if u >= first]
                elif start >= -a:  # sections: cell x from v = -a-x on
                    cells = [(x, -a - x) for x in range(max(lo, -a - stop + 1), 1)]
                    live = [(j + (x,), v if v > first else first, last)
                            for j, first, last in live for x, v in cells if v <= last]
                else:
                    break
            else:
                for j, first, last in live:
                    yield i, j, first, last, degree, mult


@dataclass(frozen=True)
class CohomologyTable:
    """Nonzero cohomology dimensions of a bundle over a window of twists.

    Rows are (t, twist, dim) triples sorted lexicographically by (t, twist);
    only nonzero dimensions are stored.
    """

    shape: Shape
    rows: tuple[tuple[int, Degree, int], ...] = field(default=())

    def to_rows(self) -> list[dict]:
        return [{"t": t, "twist": list(d), "dim": dim} for t, d, dim in self.rows]


def cohomology_table(E: LineBundleSum, bound: int) -> CohomologyTable:
    """Tabulate every nonzero H^t(E(d)) for d in the box [-bound, bound]^s (see _box_tables,
    which refuses the boxes past its guards)."""
    return CohomologyTable(E.shape, tuple(_box_rows(E, _box_ranges(E, bound))))


def _box_ranges(E: LineBundleSum, bound: int) -> list[range]:
    """[-bound, bound] on every axis of E's shape; a negative bound is refused with E_RANGE."""
    if bound < 0:
        raise InputError("E_RANGE", f"box bound must be >= 0, got {bound}")
    return [range(-bound, bound + 1)] * E.shape.s


def _box_rows(E: LineBundleSum, ranges) -> list[tuple[int, Degree, int]]:
    """Every (t, d, dim H^t(E(d))) with a nonzero dim, d in the product of the ranges, sorted
    by (t, d): the nonzero slots of each _box_tables table, whose twists product(*ranges)
    yields in slot order, and compress and filter(None, arr) keep that order."""
    rows = []
    for t, arr in _box_tables(E, ranges):
        rows += zip(repeat(t), compress(product(*ranges), arr), filter(None, arr))
        del arr  # one table at a time: up to BOX_GUARD slots
    return rows


def _box_tables(E: LineBundleSum, ranges):
    """(t, arr) for each degree t where E has cohomology on the box, t ascending: arr holds
    dim H^t(E(d)) for every d in the product of the ranges (one per axis, twists of d in all),
    in lexicographic order of d.  More than BOX_GUARD twists, or TABLE_GUARD (twist, summand)
    pairs, are refused with E_GUARD when called, before any join; the tables are then filled
    one at a time, as they are iterated.

    On each axis a summand O(a) has live cells (x, q, c): q = 0 and c = C(a_i+x+n_i, n_i) in
    sections, q = n_i and c = C(-a_i-x-1, n_i) at the top, none on the dead band; O(a+d) has
    cohomology exactly when every d_i is live, in degree sum(q) and of dimension prod(c).  The
    join of every axis but the last, dim starting at the multiplicity, gives (t, offset, scale):
    offset is the position in the lexicographic box of the first twist with those coordinates.
    On the last axis the top cells (x < -a-n) and the sections cells (x >= -a) are two runs of
    adjacent positions, each added times scale into one slice of degree t + q's dense table.
    Exact: a slot sums products of multiplicities and live binomials, all >= 1, so it is
    nonzero exactly where a cell landed, and every table has a nonzero slot.
    """
    dims = E.shape.dims
    sides = [xs.stop - xs.start for xs in ranges]  # len() of a range fails past sys.maxsize
    twists = _refuse_past(_box_size(sides), BOX_GUARD, "twists", "box guard")
    _refuse_past(twists * len(E.summands), TABLE_GUARD, "(twist, summand) pairs", "table guard")
    *heads, last = ranges
    n, lo, hi = dims[-1], last.start, last.stop
    fills: dict[int, list] = {}  # t -> (slice start, slice stop, last-axis cells, scale)
    for degree, mult in E.summands:
        partial, stride = [(0, 0, mult)], twists
        for a, m, xs in zip(degree, dims, heads):
            stride //= len(xs)
            cells = [(0, (x - xs.start) * stride, comb(a + x + m, m)) if a + x >= 0 else
                     (m, (x - xs.start) * stride, comb(-a - x - 1, m))
                     for x in xs if not -m <= a + x <= -1]
            partial = [(t + q, offset + o, scale * c)
                       for t, offset, scale in partial for q, o, c in cells]
        a = degree[-1]
        top, sec = min(hi, -a - n), max(lo, -a)  # the last axis: top for x < top, sections from sec
        runs = [(n, 0, top - lo, [comb(-a - x - 1, n) for x in range(lo, top)])] if lo < top else []
        if sec < hi:
            runs.append((0, sec - lo, hi - lo, [comb(a + x + n, n) for x in range(sec, hi)]))
        for t, offset, scale in partial:
            for q, start, stop, cells in runs:
                fills.setdefault(t + q, []).append((offset + start, offset + stop, cells, scale))
    return ((t, _fill_table(twists, fills.pop(t))) for t in sorted(fills))


def _fill_table(twists: int, fills) -> list[int]:
    """A table of twists zeros with each (start, stop, cells, scale) of fills added in."""
    arr = [0] * twists
    for start, stop, cells, scale in fills:
        arr[start:stop] = map(add, arr[start:stop], map(mul, cells, repeat(scale)))
    return arr


def bundle_to_doc(E: LineBundleSum) -> dict:
    """The decoded form of bundle_to_json(E): shape and summands as lists."""
    return {
        "shape": list(E.shape.dims),
        "summands": [{"degree": list(d), "mult": m} for d, m in E.summands],
    }


def bundle_to_json(E: LineBundleSum) -> str:
    """Canonical JSON for a bundle; parsing it back gives an equal bundle."""
    return json.dumps(bundle_to_doc(E), separators=(",", ":"))


def bundle_from_json(source) -> LineBundleSum:
    """Parse a bundle from a JSON string or an already-decoded dict."""
    if isinstance(source, str):
        try:
            source = json.loads(source)
        except (ValueError, RecursionError) as e:  # bad syntax, too many digits, too deep
            raise InputError("E_JSON", f"malformed bundle JSON: {e}") from e
    if not isinstance(source, dict):
        raise InputError("E_JSON", "bundle JSON must be an object")
    unknown = set(source) - {"shape", "summands"}
    if unknown:
        raise InputError("E_JSON", f"unknown bundle keys: {sorted(unknown)}")
    try:
        shape = Shape(tuple(source["shape"]))
        raw = source["summands"]
        if not isinstance(raw, list) or not raw:
            raise InputError("E_JSON", "summands must be a non-empty list")
        summands = []
        for entry in raw:
            if not isinstance(entry, dict) or "degree" not in entry:
                raise InputError("E_JSON", "each summand needs a degree")
            extra = set(entry) - {"degree", "mult"}
            if extra:
                raise InputError("E_JSON", f"unknown summand keys: {sorted(extra)}")
            summands.append((tuple(entry["degree"]), entry.get("mult", 1)))
        return LineBundleSum(shape, tuple(summands))
    except InputError as e:
        raise InputError("E_JSON", str(e)) from e
    except (KeyError, TypeError) as e:
        raise InputError("E_JSON", f"malformed bundle JSON: {e}") from e
