"""Span tracing from outside the program.

``Tracer.install`` wraps public functions of ``cutcomplexes`` in place: every
module attribute, class attribute and ``SUITES`` entry that refers to one of
them is replaced by a wrapper that records a span (name, start, end, parent
span, round) and bumps work counters read off the arguments and the result.
Spans stay in memory; ``write`` dumps them when the run ends.  A layer's self
time is its spans' duration minus the part covered by their child spans.

Only traced runs install the wrappers; end-to-end figures come from untraced
runs.
"""

from __future__ import annotations

import json
import sys
import time


def _cache_empty(obj, slot):
    return getattr(obj, slot, None) is None


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, round]
        self.counts = {}  # round -> {counter name: value}
        self.stack = []
        self.round = 0
        self.active = True

    # -- recording -----------------------------------------------------------

    def count(self, name, value=1):
        bucket = self.counts.setdefault(self.round, {})
        bucket[name] = bucket.get(name, 0) + value

    def calls(self, name):
        return self.counts.get(self.round, {}).get(name, 0)

    def run(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        if not self.active:
            return fn(*args, **kwargs)
        index = len(self.spans)
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.round]
        self.spans.append(span)
        self.stack.append(index)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    def wrap(self, name, fn, before=None, after=None):
        """Wrapper recording ``name`` spans; ``before(args)`` returns a token
        handed to ``after(token, args, result)`` for the counters."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            token = before(args) if before else None
            result = tracer.run(name, fn, *args, **kwargs)
            if after:
                after(token, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------------

    def _replace(self, original, wrapper):
        """Point every reference to ``original`` inside the package at ``wrapper``."""
        for modname, module in list(sys.modules.items()):
            if modname == "cutcomplexes" or modname.startswith("cutcomplexes."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def _function(self, module, attr, name, before=None, after=None):
        original = getattr(module, attr)
        self._replace(original, self.wrap(name, original, before, after))

    def _method(self, cls, attr, name, before=None, after=None):
        setattr(cls, attr, self.wrap(name, getattr(cls, attr), before, after))

    def install(self):
        from cutcomplexes import cli, complexes, graphs, homology, posets, report, snf, verify

        count = self.count

        def alpha_after(empty, args, table):
            count("graphs.alpha_table.calls")
            if empty:
                count("graphs.alpha_table.subsets", len(table))

        self._method(
            graphs.Graph, "alpha_table", "graphs.alpha_table",
            before=lambda a: _cache_empty(a[0], "_alpha"), after=alpha_after,
        )

        def build_after(_, args, k):
            count("complexes.build.facets", len(k.facets))

        for attr in ("total_cut_complex", "bounded_independence_complex"):
            self._function(complexes, attr, "complexes.build", after=build_after)

        def simplices_after(empty, args, masks):
            if empty:
                count("complexes.simplices", len(masks))

        self._method(
            complexes.SimplicialComplex, "simplex_masks", "complexes.simplex_masks",
            before=lambda a: _cache_empty(a[0], "_simplices"), after=simplices_after,
        )
        self._function(complexes, "alexander_dual", "complexes.alexander_dual")
        self._function(complexes, "is_skeleton_full", "complexes.is_skeleton_full")
        self._function(complexes, "complex_from_json", "complexes.from_json")

        def chain_after(_, args, cc):
            count("homology.cells", sum(len(b) for b in cc.bases.values()))
            count(
                "homology.boundary_nnz",
                sum(len(col) for cols in cc.columns.values() for col in cols),
            )

        for attr in ("chain_complex", "relative_chain_complex"):
            self._function(homology, attr, "homology.chain_complex", after=chain_after)

        def homology_after(snf_before, args, profile):
            cc = args[0]
            snf_degrees = self.calls("snf.calls") - snf_before
            nonempty = sum(1 for q, basis in cc.bases.items() if q >= 0 and basis)
            count("homology.snf_degrees", snf_degrees)
            count("homology.shortcut_degrees", nonempty - snf_degrees)

        self._function(
            homology, "homology_of_chain", "homology.homology_of_chain",
            before=lambda a: self.calls("snf.calls"), after=homology_after,
        )

        def snf_after(_, args, result):
            matrix = args[0]
            rows = matrix.values() if isinstance(matrix, dict) else matrix
            factors, rank = result
            count("snf.calls")
            count(
                "snf.input_nnz",
                sum(len(r) if isinstance(r, dict) else sum(1 for x in r if x) for r in rows),
            )
            count("snf.rank", rank)
            count("snf.nonunit_factors", sum(1 for f in factors if f != 1))

        self._function(snf, "smith_normal_form", "snf.smith_normal_form", after=snf_after)
        self._function(posets, "order_complex", "posets.order_complex")

        def suite_after(_, args, rep):
            count("verify.entries", len(rep.entries))

        for suite, fn in list(verify.SUITES.items()):
            verify.SUITES[suite] = self.wrap(f"verify.suite.{suite}", fn, after=suite_after)

        original_main = cli.main

        def main(argv=None):
            name = f"cli.{argv[0]}" if argv else "cli.main"
            if not self.active:
                return original_main(argv)
            return self.run(name, original_main, argv)

        self._replace(original_main, main)
        self._method(report.VerificationReport, "to_json", "report.to_json")

    # -- results -------------------------------------------------------------------

    def per_round(self):
        """{round: {metric: value}}: self time in ms per span name, plus counters."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {r: dict(c) for r, c in self.counts.items()}
        for (name, start, end, _, rnd), child in zip(self.spans, covered):
            bucket = out.setdefault(rnd, {})
            key = f"{name}.ms"
            bucket[key] = bucket.get(key, 0.0) + (end - start - child) * 1000.0
        return out

    def write(self, path, header):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    **header,
                    "span_fields": ["name", "start_s", "end_s", "parent", "round"],
                    "spans": self.spans,
                    "per_round": self.per_round(),
                },
                fh,
            )
