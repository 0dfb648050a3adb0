"""Layer tracer: wraps each layer's public functions and records spans.

A layer is a module of multicoh, timed at its public functions.  While a
Tracer is installed, every binding of those functions in the package's
module namespaces points at a wrapper that records one span (layer,
start, end, parent) per call, counts calls, the InputErrors raised through
the layer, and, for three layers, how many calls had a useful outcome.
Spans are kept in memory; when the outermost span of a request closes,
its spans are folded into per-layer self time.  The first SPAN_CAP spans
are kept for writing out at the end.
"""

import functools
import importlib
from array import array
from time import perf_counter

# layer -> (defining module, public functions timed)
LAYERS = {
    "cli": ("multicoh.cli", ("main",)),
    "core.kunneth": ("multicoh.core", ("kunneth_dim", "sum_cohomology_dim")),
    "core.table": ("multicoh.core", ("cohomology_table",)),
    "core.intervals": ("multicoh.core", ("nonvanishing_twist_intervals",)),
    "regularity": ("multicoh.regularity",
                   ("is_zero_regular", "is_m_regular", "regularity_index", "is_acm")),
    "criteria.check": ("multicoh.criteria",
                       ("thm12_violations", "thm13_violations", "miyazaki_violations",
                        "lemma14_check")),
    "criteria.conclusion": ("multicoh.criteria",
                            ("thm12_conclusion_match", "thm13_conclusion_match",
                             "lemma14_conclusion_match")),
    "criteria.audit": ("multicoh.criteria", ("desk_scale_audit",)),
    "koszul": ("multicoh.koszul",
               ("koszul_factor_complex", "euler_exactness_check", "proposition_iso_dims")),
}
# Every namespace that may bind a layer function, by import or definition.
MODULES = ("multicoh", "multicoh.core", "multicoh.intervals", "multicoh.regularity",
           "multicoh.criteria", "multicoh.koszul", "multicoh.cli")
NAMES = tuple(LAYERS)
AUDIT = NAMES.index("criteria.audit")
CHECK = NAMES.index("criteria.check")
# Outcomes that count as useful, for the layers that report a ratio.
USEFUL = {
    "core.kunneth": lambda dim: dim != 0,
    "core.intervals": bool,
}
SPAN_CAP = 50_000


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    Spans are listed in the order they opened, so a span's children come
    after it and in order of start; parents[i] is the index of span i's
    parent, or -1.  Child time outside the parent is ignored and overlapping
    children are counted once.
    """
    cover = [0.0] * len(starts)
    reach = list(starts)  # end of the covered stretch of each span so far
    for i, p in enumerate(parents):
        if p < 0:
            continue
        lo = max(starts[i], reach[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            cover[p] += hi - lo
            reach[p] = hi
    return [end - start - c for start, end, c in zip(starts, ends, cover)]


class Tracer:
    """Per-layer counts and self time over the requests run while installed."""

    def __init__(self):
        n = len(NAMES)
        self.calls = [0] * n
        self.errors = [0] * n
        self.useful = [0] * n
        self.self_s = [0.0] * n
        self.audit_checks = 0  # criteria.check calls made inside an audit
        self.kept: list[tuple[int, int, float, float, int]] = []
        self.dropped = 0
        self._base = 0  # global id of the first span in the buffers
        self._layer = array("b")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("l")
        self._stack: list[int] = []
        self._last_error = [None] * n
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        from multicoh.core import InputError

        wrappers = {}
        for lid, (module, names) in enumerate(LAYERS.values()):
            mod = importlib.import_module(module)
            for name in names:
                fn = getattr(mod, name)
                wrappers[fn] = self._wrap(fn, lid, USEFUL.get(NAMES[lid]), InputError)
        for module in MODULES:
            mod = importlib.import_module(module)
            for attr, value in list(vars(mod).items()):
                # Only callables can be layer functions; lists such as __all__ are unhashable.
                if callable(value) and value in wrappers:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def restore(self) -> None:
        while self._patched:
            mod, attr, value = self._patched.pop()
            setattr(mod, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def _wrap(self, fn, lid, useful, input_error):
        layers, starts, ends, parents, stack = (
            self._layer, self._start, self._end, self._parent, self._stack)
        calls, useful_counts = self.calls, self.useful
        refusal = NAMES[lid] == "cli"  # cli.main turns InputError into exit code 2

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            layers.append(lid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            calls[lid] += 1
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except input_error as e:
                self._error(lid, e)
                raise
            except SystemExit as e:
                if refusal and e.code == 2:
                    self._error(lid, e)
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()
                if not stack:
                    self._fold()
            if useful is not None and useful(result):
                useful_counts[lid] += 1
            if refusal and result == 2:
                self._error(lid, None)
            return result

        return traced

    def _error(self, lid, exc) -> None:
        # An error that passes up through nested calls of one layer counts once.
        if exc is None or self._last_error[lid] is not exc:
            self.errors[lid] += 1
            self._last_error[lid] = exc

    def _fold(self) -> None:
        layers, starts, ends, parents = self._layer, self._start, self._end, self._parent
        inside_audit = bytearray(len(layers))
        for i, own in enumerate(self_times(starts, ends, parents)):
            lid, p = layers[i], parents[i]
            self.self_s[lid] += own
            parent_in_audit = p >= 0 and inside_audit[p]
            inside_audit[i] = lid == AUDIT or parent_in_audit
            if lid == CHECK and parent_in_audit:
                self.audit_checks += 1
        room = max(0, SPAN_CAP - len(self.kept))
        base = self._base
        for i in range(min(room, len(layers))):
            p = parents[i]
            self.kept.append((base + i, layers[i], starts[i], ends[i], base + p if p >= 0 else -1))
        self.dropped += max(0, len(layers) - room)
        self._base += len(layers)
        for buf in (layers, starts, ends, parents):
            del buf[:]

    def metrics(self, audit_degrees: int) -> dict[str, tuple[float, str]]:
        """Per-layer calls, self time and errors, plus the three useful-outcome ratios."""
        out = {}
        for lid, name in enumerate(NAMES):
            out[f"{name}.calls"] = (self.calls[lid], "count")
            out[f"{name}.self_s"] = (self.self_s[lid], "s")
            out[f"{name}.errors"] = (self.errors[lid], "count")
        for name, ratio in (("core.kunneth", "nonzero_ratio"),
                            ("core.intervals", "nonempty_ratio")):
            lid = NAMES.index(name)
            calls = self.calls[lid]
            out[f"{name}.{ratio}"] = (self.useful[lid] / calls if calls else 0.0, "ratio")
        out["criteria.audit.evals_per_degree"] = (
            self.audit_checks / audit_degrees if audit_degrees else 0.0, "ratio")
        return out

    def spans_doc(self) -> dict:
        return {
            "layers": list(NAMES),
            "fields": ["id", "layer", "start", "end", "parent"],
            "spans": self.kept,
            "dropped": self.dropped,
        }
