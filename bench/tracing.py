"""Per-module spans and counts, recorded from outside the program.

`Tracer.install` wraps the public functions of each cspgap layer in place:
every module-level name bound to the original function is rebound to the
wrapper, so calls made through `from ... import` bindings (for example
`cspgap.search.gap_report` or `cspgap.witnesses.rho_product_lower`) are
recorded as well as calls through the home module.  `Tracer.restore` puts
the originals back.  Spans live in memory until `write_spans`.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import sys
from collections import Counter
from time import perf_counter

# (home module, function) pairs that get a span; the span is named
# "<module>.<function>".  Fraction arithmetic and the unwrapped helpers count
# in the self time of the wrapped caller.
SPANNED = (
    ("cli", "main"),
    ("serialize", "load_json"),
    ("serialize", "load_instance"),
    ("serialize", "load_family"),
    ("serialize", "save_json"),
    ("serialize", "canonical_dumps"),
    ("search", "search_gap"),
    ("search", "build_certificate"),
    ("search", "verify_certificate"),
    ("search", "certificate_digest"),
    ("search", "certificate_to_dict"),
    ("search", "certificate_from_dict"),
    ("basic_lp", "gap_report"),
    ("basic_lp", "solve_basic_lp"),
    ("basic_lp", "build_basic_lp"),
    ("basic_lp", "decode_primal"),
    ("lp", "solve"),
    ("lp", "check_feasible"),
    ("core", "brute_force_opt"),
    ("core", "rho_product_lower"),
    ("core", "rho_upper_empirical"),
    ("core", "width"),
    ("witnesses", "construct_yes_no"),
    ("witnesses", "no_sup_search"),
    ("witnesses", "onewise_support"),
    ("witnesses", "support_classification"),
)

LAYERS = ("cli", "serialize", "search", "basic_lp", "lp", "core", "witnesses")


def relabel_class(inst) -> tuple:
    """Canonical form of an instance under permutations of its variables."""
    best = None
    for perm in itertools.permutations(range(1, inst.n + 1)):
        key = tuple(sorted(
            (c.predicate, tuple(perm[v - 1] for v in c.variables), c.weight)
            for c in inst.constraints
        ))
        if best is None or key < best:
            best = key
    return best


class Tracer:
    """Spans `[name, start, end, parent, op]` plus raw samples for counts."""

    package = "cspgap"

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.patches = []
        self.solves = []        # (rows, cols, pivots, primal) per lp.solve
        self.assignments = 0    # sum of q**n over brute_force_opt calls
        self.kernel_evals = 0
        self.bytes_written = 0
        self.streams = []       # instances streamed, one list per search_gap call

    # -- installation ------------------------------------------------------

    def _modules(self):
        prefix = self.package + "."
        return [mod for name, mod in sorted(sys.modules.items())
                if mod is not None and (name == self.package or name.startswith(prefix))]

    def _rebind(self, original, replacement) -> None:
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self.patches.append((mod, attr, original))

    def install(self) -> None:
        pkg = sys.modules[self.package]
        hooks = {
            "lp.solve": self._after_solve,
            "core.brute_force_opt": self._after_brute_force,
            "serialize.save_json": self._after_save,
        }
        for module, func in SPANNED:
            name = f"{module}.{func}"
            original = getattr(getattr(pkg, module), func)
            self._rebind(original, self._span(name, original, hooks.get(name)))
        search = pkg.search
        self._rebind(search.enumerate_instances, self._stream(search.enumerate_instances))
        scorer = pkg.witnesses._KernelScorer
        score = scorer.score

        def counted_score(this, rows):
            self.kernel_evals += 1
            return score(this, rows)

        scorer.score = counted_score
        self.patches.append((scorer, "score", score))

    def restore(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1, tracer.op]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                tracer.stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _stream(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            seen = []
            tracer.streams.append(seen)
            for inst in fn(*args, **kwargs):
                seen.append(inst)
                yield inst

        return wrapper

    def _after_solve(self, args, solution) -> None:
        problem = args[0]
        self.solves.append((problem.num_rows, problem.num_variables,
                            solution.pivots, solution.primal))

    def _after_brute_force(self, args, result) -> None:
        inst = args[0]
        self.assignments += inst.family.q ** inst.n

    def _after_save(self, args, result) -> None:
        self.bytes_written += os.path.getsize(args[0])

    # -- results -----------------------------------------------------------

    def per_name(self) -> dict:
        """{span name: (calls, inclusive seconds, self seconds)}."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for (name, start, end, _, _), inner in zip(self.spans, child_time):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + end - start, own + end - start - inner)
        return out

    def metrics(self, wall: float, exits: Counter) -> dict:
        """Per-layer metric values; `wall` is the traced pass's op time and
        `exits` counts the exit codes of its CLI calls."""
        names = self.per_name()
        values = {}
        for module, func in SPANNED:
            name = f"{module}.{func}"
            calls, _, own = names.get(name, (0, 0.0, 0.0))
            values[f"{name}.calls"] = calls
            values[f"{name}.self_s"] = own
        for layer in LAYERS:
            own = sum(v[2] for k, v in names.items() if k.split(".")[0] == layer)
            values[f"layer.{layer}.self_share"] = own / wall
        values["lp.solve.share"] = names.get("lp.solve", (0, 0.0))[1] / wall

        rows = [s[0] for s in self.solves] or [0]
        cols = [s[1] for s in self.solves] or [0]
        pivots = sum(s[2] for s in self.solves)
        values["lp.pivots"] = pivots
        values["lp.pivots_per_solve"] = pivots / max(1, len(self.solves))
        values["lp.cells"] = sum(r * (c + r) for r, c, _, _ in self.solves)
        # Computed, not measured: the entries a dense pivot would touch.
        values["lp.dense_ops"] = sum(p * r * (c + r) for r, c, p, _ in self.solves)
        values["lp.primal_max_bits"] = max(
            [max(v.numerator.bit_length(), v.denominator.bit_length())
             for *_, primal in self.solves if primal for v in primal.values()] or [0])
        values["lp.rows.p50"] = statistics.median(rows)
        values["lp.rows.max"] = max(rows)
        values["lp.cols.p50"] = statistics.median(cols)
        values["lp.cols.max"] = max(cols)

        streamed = sum(len(s) for s in self.streams)
        repeats = 0
        for stream in self.streams:
            classes = set()
            for inst in stream:
                key = (inst.n, relabel_class(inst))
                repeats += key in classes
                classes.add(key)
        values["search.instances"] = streamed
        values["search.repeat_share"] = repeats / streamed if streamed else 0.0
        values["core.assignments"] = self.assignments
        values["witnesses.kernel_evals"] = self.kernel_evals
        values["serialize.bytes_written"] = self.bytes_written
        for code in (0, 1, 2):
            values[f"cli.exit{code}"] = exits[code]
        values["trace.spans"] = len(self.spans)
        return values

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps([name, start, end, parent, op]) + "\n")
