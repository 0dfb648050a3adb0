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
top factors) or in none.  Along a diagonal ray O(a + tau*(1,...,1)) a
factor is top, then dead on its band -a_i-n_i <= tau <= -a_i-1, then in
sections, so walking the sorted dead bands splits the ray into at most
s+1 pieces of constant degree.  All arithmetic is exact (Python
integers); nothing here floats.
"""

import json
from dataclasses import dataclass, field
from math import comb

from .intervals import IntervalSet

Degree = tuple[int, ...]


class InputError(ValueError):
    """Invalid input, tagged with a short machine-readable code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


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


def line_bundle(shape, degree) -> LineBundleSum:
    """The single line bundle O(degree)."""
    return LineBundleSum(_as_shape(shape), ((tuple(degree), 1),))


def factor_cohomology_dim(n: int, a: int, q: int) -> int:
    """dim H^q(P^n, O(a)).  Nonzero only at q = 0 (a >= 0) or q = n (a <= -n-1)."""
    if n < 1:
        raise InputError("E_RANGE", f"projective space dimension must be >= 1, got {n}")
    if q == 0 and a >= 0:
        return comb(a + n, n)
    if q == n and a <= -n - 1:
        return comb(-a - 1, n)
    return 0


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


def _sum_dim(E: LineBundleSum, d, t: int) -> int:
    """dim H^t(E(d)) for a twist d already checked against E.shape."""
    dims = E.shape.dims
    total = 0
    for degree, mult in E.summands:
        q, dim = _line_cohomology(dims, [a + x for a, x in zip(degree, d)])
        if q == t:
            total += mult * dim
    return total


def sum_cohomology_dim(E: LineBundleSum, d, t: int) -> int:
    """dim H^t(E(d)) for a twist vector d."""
    return _sum_dim(E, _check_vector(E.shape, d, "twist"), t)


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
    return LineBundleSum(
        E.shape,
        tuple((tuple(a + x for a, x in zip(degree, d)), mult) for degree, mult in E.summands),
    )


def serre_dual(E: LineBundleSum) -> LineBundleSum:
    """The dual bundle: every degree negated."""
    return LineBundleSum(
        E.shape,
        tuple((tuple(-a for a in degree), mult) for degree, mult in E.summands),
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

    The union of the degree-t pieces of the breakpoint walk (_ray_pieces)
    over the summands.  At t = 0 the result is a half line unbounded
    above; at t = total_dim a half line unbounded below.  Half lines are
    kept explicit as intervals with a None endpoint, never truncated.
    """
    shape = E.shape
    j = _check_vector(shape, j, "twist")
    if not 0 <= t <= shape.total_dim:
        raise InputError("E_RANGE", f"cohomological degree {t} outside [0, {shape.total_dim}]")
    return IntervalSet(tuple((lo, hi) for q, lo, hi in _ray_pieces(E, j) if q == t))


def _ray_pieces(E: LineBundleSum, j) -> list[tuple[int, int | None, int | None]]:
    """Every (t, lo, hi) where a summand of E(j + tau*(1,...,1)) has H^t != 0.

    With b_i = -a_i - j_i, factor i of O(a) is top for tau <= b_i-n_i-1,
    dead on the band [b_i-n_i, b_i-1] and in sections for tau >= b_i.
    Between consecutive dead bands no factor is dead, the factors whose
    band lies ahead are top, and the degree is the sum of their n_i; it
    falls from total_dim on the first piece (lo None) to 0 on the last
    (hi None).  Pieces of one summand are nonempty and never adjacent.
    """
    dims = E.shape.dims
    total = E.shape.total_dim
    pieces = []
    for degree, _ in E.summands:
        t = total
        cursor = None  # the first tau past every band walked so far
        for lo, hi, n in sorted((-a - x - n, -a - x - 1, n) for a, x, n in zip(degree, j, dims)):
            if cursor is None or lo > cursor:
                pieces.append((t, cursor, lo - 1))
            t -= n
            cursor = hi + 1 if cursor is None else max(cursor, hi + 1)
        pieces.append((0, cursor, None))
    return pieces


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
    """Tabulate every nonzero H^t(E(d)) for d in the box [-bound, bound]^s."""
    if bound < 0:
        raise InputError("E_RANGE", f"box bound must be >= 0, got {bound}")
    shape = E.shape
    rows = []
    for d in _box(shape.s, bound):
        by_degree: dict[int, int] = {}
        for degree, mult in E.summands:
            t, dim = _line_cohomology(shape.dims, [a + x for a, x in zip(degree, d)])
            if dim:
                by_degree[t] = by_degree.get(t, 0) + mult * dim
        rows.extend((t, d, dim) for t, dim in by_degree.items())
    rows.sort()
    return CohomologyTable(shape, tuple(rows))


def _box(s: int, bound: int):
    """All integer vectors of length s with entries in [-bound, bound]."""
    if s == 0:
        yield ()
        return
    for rest in _box(s - 1, bound):
        for x in range(-bound, bound + 1):
            yield rest + (x,)


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
        except json.JSONDecodeError as e:
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
