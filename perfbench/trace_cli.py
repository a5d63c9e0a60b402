"""Run one gaudin-potentials CLI command with layer spans recorded.

    python perfbench/trace_cli.py TRACE_JSON -- <gaudin-potentials arguments>

The package itself is not modified.  After import, public functions and
methods of each layer are replaced by wrappers that record a span (name,
parent span, start, end) around the call.  A module-level function is
rebound in every `gaudin_potentials` module that imported it, so calls
through any of those names are seen.  Spans stay in memory in flat
arrays and are written at exit: the span table to TRACE_JSON + ".spans"
(see `read_spans`), the span names, the import time and a few exact
counters to TRACE_JSON.  `summarize` reduces the spans to per-layer call
counts, total and self time (span time minus the time its child spans
cover).
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

# span name -> (module, attribute paths); "Class.method" wraps the method.
LAYERS: dict[str, tuple[str, tuple[str, ...]]] = {
    "weight_space.sl2": ("weight_space", ("apply_e", "apply_f", "apply_h", "is_singular")),
    "weight_space.vector_ops": ("weight_space", tuple(
        f"WeightVector.{op}" for op in ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__eq__"))),
    "weight_space.shapovalov": ("weight_space", ("shapovalov",)),
    "projection.project": ("projection", ("project",)),
    "projection.oracle": ("projection", ("project_oracle", "oracle_decompose")),
    "operators.hamiltonian_apply": ("operators", ("hamiltonian_apply",)),
    "operators.hamiltonian_matrix": ("operators", ("hamiltonian_matrix",)),
    "operators.basis_action": ("operators", ("hamiltonian_basis_action", "evaluate_basis_action")),
    "operators.pairing": ("operators", ("hamiltonian_pairing", "PairingFunction.evaluate")),
    "symbolic.poly_add": ("symbolic", ("Polynomial.__add__",)),
    "symbolic.poly_mul": ("symbolic", ("Polynomial.__mul__", "Polynomial.__rmul__")),
    "symbolic.differentiate": ("symbolic", ("Polynomial.differentiate", "LogRationalExpr.differentiate")),
    "symbolic.derivative": ("symbolic", ("DerivativeCache.derivative",)),
    "symbolic.reduced": ("symbolic", ("LogRationalExpr.reduced",)),
    "symbolic.expr_equal": ("symbolic", ("expr_equal",)),
    "symbolic.evaluate": ("symbolic", ("LogRationalExpr.evaluate",)),
    "symbolic.dumps": ("symbolic", ("dumps_expr",)),
    "potentials.build_P": ("potentials", ("build_P",)),
    "potentials.build_Q": ("potentials", ("build_Q",)),
    "potentials.multisets": ("potentials", ("partial_multisets",)),
    "checks.relations": ("checks", ("check_relations",)),
    "checks.locality": ("checks", ("check_locality",)),
    "checks.shapovalov-oracle": ("checks", ("check_shapovalov_oracle",)),
    "checks.corollary": ("potentials", ("verify_corollary",)),
    "checks.hamiltonian-properties": ("checks", ("check_hamiltonian_properties",)),
    "checks.theorem1": ("potentials", ("verify_theorem_first",)),
    "checks.relation": ("potentials", ("verify_relation",)),
    "checks.theorem2": ("potentials", ("verify_theorem_second",)),
    "cli": ("cli", ("main",)),
}
SPAN_COLUMNS = (("span_name", "i"), ("parent", "i"), ("start", "q"), ("end", "q"))

# Time spent computing counters inside the traced process is put under
# this span so that it is not charged to the layer that called.
BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    """Flat in-memory span table plus exact counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        for column, code in SPAN_COLUMNS:
            setattr(self, column, array(code))
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}

    def intern(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def maximum(self, key: str, value: int) -> None:
        self.counters[key] = max(self.counters.get(key, 0), value)

    def wrap(self, name: str, fn, after=None):
        """Wrapper recording a span per call; `after(result)` runs under
        the bookkeeping span once the layer's span has closed."""
        nid = self.intern(name)
        book = self.intern(BOOKKEEPING)
        span_name, parent, start, end, stack = self.span_name, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter_ns

        def open_span(n: int) -> int:
            sid = len(span_name)
            span_name.append(n)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(sid)
            start.append(clock())
            return sid

        def close_span(sid: int) -> None:
            end[sid] = clock()
            stack.pop()

        def wrapper(*args, **kwargs):
            sid = open_span(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(sid)
            if after is not None:
                sid = open_span(book)
                try:
                    after(result)
                finally:
                    close_span(sid)
            return result

        return wrapper

    def write_spans(self, path: str) -> None:
        with open(path, "wb") as fh:
            for column, _ in SPAN_COLUMNS:
                getattr(self, column).tofile(fh)


def read_spans(path: str, count: int) -> dict[str, array]:
    """The span table written by `Tracer.write_spans`, column by column."""
    spans = {}
    with open(path, "rb") as fh:
        for column, code in SPAN_COLUMNS:
            spans[column] = array(code)
            spans[column].fromfile(fh, count)
    return spans


def summarize(names: list[str], spans: dict[str, array]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds and self seconds."""
    span_name, parent, start, end = (spans[c] for c, _ in SPAN_COLUMNS)
    count = len(span_name)
    child = [0] * count
    for sid in range(count):
        if parent[sid] >= 0:
            child[parent[sid]] += end[sid] - start[sid]
    out: dict[str, dict[str, float]] = {}
    for sid in range(count):
        dur = end[sid] - start[sid]
        agg = out.setdefault(names[span_name[sid]], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += dur / 1e9
        agg["self_s"] += (dur - child[sid]) / 1e9
    return out


def _coeff_bits(polys) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for p in polys for c in p.terms.values()), default=0)


def install(tracer: Tracer) -> None:
    """Replace every function named in LAYERS by its tracing wrapper."""

    def after_build_P(P):
        tracer.maximum("P_terms", len(P.terms))
        tracer.maximum("max_coeff_bits", _coeff_bits([P]))

    def after_build_Q(Q):
        tracer.maximum("Q_terms", sum(len(g.terms) for g in Q.logs.values()))
        tracer.maximum("max_coeff_bits", _coeff_bits(Q.logs.values()))

    def after_multisets(result):
        tracer.count("multisets", len(result))

    def after_dumps(text):
        tracer.count("dumps_bytes", len(text.encode("utf-8")))

    hooks = {
        "build_P": after_build_P,
        "build_Q": after_build_Q,
        "partial_multisets": after_multisets,
        "dumps_expr": after_dumps,
    }
    modules = [m for name, m in sys.modules.items()
               if name == "gaudin_potentials" or name.startswith("gaudin_potentials.")]
    for span, (module_name, attrs) in LAYERS.items():
        module = importlib.import_module(f"gaudin_potentials.{module_name}")
        for attr in attrs:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                fn = cls.__dict__[meth]
                if attr == "DerivativeCache.derivative":
                    fn = _cache_probe(tracer, fn)
                setattr(cls, meth, tracer.wrap(span, fn))
                continue
            fn = getattr(module, attr)
            wrapper = tracer.wrap(span, fn, hooks.get(attr))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)

    cache_cls = importlib.import_module("gaudin_potentials.symbolic").DerivativeCache
    original_init = cache_cls.__init__

    def counting_init(self, base):
        tracer.count("derivative_caches")
        original_init(self, base)

    cache_cls.__init__ = counting_init


def _cache_probe(tracer: Tracer, derivative):
    """Count requests, full hits (nothing new memoized) and new entries."""

    def probed(cache, variables):
        before = cache.cached_count()
        result = derivative(cache, variables)
        added = cache.cached_count() - before
        tracer.count("derivative_requests")
        tracer.count("derivative_new_entries", added)
        if added == 0:
            tracer.count("derivative_hits")
        return result

    return probed


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print("usage: trace_cli.py TRACE_JSON -- <gaudin-potentials arguments>", file=sys.stderr)
        return 2
    out_path, cli_args = sys.argv[1], sys.argv[3:]
    t0 = time.perf_counter()
    cli = importlib.import_module("gaudin_potentials.cli")
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    try:
        status = cli.main(cli_args)
    finally:
        counters = dict(tracer.counters)
        # every cache starts with one entry, the base expression
        counters["derivative_cache_entries"] = (
            counters.pop("derivative_new_entries", 0) + counters.pop("derivative_caches", 0))
        tracer.write_spans(out_path + ".spans")
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({
                "import_s": import_s,
                "names": tracer.names,
                "spans": len(tracer.span_name),
                "counters": counters,
            }, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
