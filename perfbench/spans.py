"""
Span recorder for the traced run.

It works from outside the program: every binding of a public plumbtwist
function (names imported by other modules included) and a few methods are
replaced by wrappers that record a span (name, start, end, parent) in memory.
Category.compose and Matrix.det_nonzero are hot or nested inside timed spans,
so they are counted, not timed. Spans are turned into per-layer metrics per
pass; a layer's self time is its spans' durations minus the time covered by
their child spans.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

ORACLE = "complexes.oracle"

# (module, function, span name). Span names are layer.operation.
FUNCTIONS = (
    ("complexes", "hom_complex", "complexes.hom_complex"),
    ("complexes", "hf_ranks", "complexes.hf"),
    ("complexes", "validate", "complexes.validate"),
    ("complexes", "cone", "complexes.cone"),
    ("complexes", "minimize", "complexes.minimize"),
    ("complexes", "equivalent", ORACLE),
    ("twists", "twist", "twists.twist"),
    ("twists", "apply_braid", "twists.apply_braid"),
    ("normalizer", "normalize", "normalizer.normalize"),
    ("normalizer", "admissible", "normalizer.admissible"),
    ("normalizer", "reduction_step", "normalizer.step"),
    ("covers", "specialize", "covers.specialize"),
    ("covers", "decompose", "covers.decompose"),
    ("covers", "fibre_rank", "covers.fibre_rank"),
    ("serialize", "parse_complex", "serialize.parse"),
    ("serialize", "complex_to_dict", "serialize.dump"),
    ("serialize", "canonical_json", "serialize.dump"),
    ("cli", "main", "cli.run"),
    ("cli", "run", "cli.run"),
)

# (module, class, method, span name)
METHODS = (
    ("complexes", "HomComplex", "__init__", "complexes.hom_build"),
    ("complexes", "HomComplex", "cohomology_ranks", "complexes.ranks"),
    ("complexes", "HomComplex", "cocycle_representatives", "complexes.cocycle_reps"),
    ("linalg", "Matrix", "__init__", "linalg.matrix_build"),
    ("linalg", "Matrix", "rref", "linalg.rref"),
)


def _cells(m) -> int:
    return m.rows * m.cols


def _nonzeros(m) -> int:
    return sum(len(row) - row.count(0) for row in m.entries)


def _after_matrix_build(counts, args, result):
    counts["linalg.matrix_build_cells"] += _cells(args[0])


def _after_rref(counts, args, result):
    counts["linalg.rref_calls"] += 1
    counts["linalg.rref_cells"] += _cells(args[0])


def _after_hom_build(counts, args, result):
    hom = args[0]
    counts["complexes.hom_builds"] += 1
    counts["complexes.hom_gens"] += sum(len(gens) for gens in hom.components.values())
    counts["complexes.hom_nonzeros"] += sum(_nonzeros(m) for m in hom.differentials.values())
    counts["complexes.hom_cells"] += sum(_cells(m) for m in hom.differentials.values())


def _after_minimize(counts, args, result):
    counts["complexes.minimize_calls"] += 1
    counts["complexes.minimize_cancelled"] += len(args[0]) - len(result)


def _after_twist(counts, args, result):
    counts["twists.twist_calls"] += 1
    counts["twists.twist_out_len"] += len(result)


def _after_oracle(counts, args, result):
    counts["complexes.oracle_yes"] += result == "yes"


def _after_parse(counts, args, result):
    counts["serialize.bytes_in"] += len(args[0])


def _after_dump(counts, args, result):
    if isinstance(result, str):
        counts["serialize.bytes_out"] += len(result)


def _after_step(counts, args, result):
    counts["normalizer.steps"] += 1


AFTER = {
    "linalg.matrix_build": _after_matrix_build,
    "linalg.rref": _after_rref,
    "complexes.hom_build": _after_hom_build,
    "complexes.minimize": _after_minimize,
    "twists.twist": _after_twist,
    ORACLE: _after_oracle,
    "serialize.parse": _after_parse,
    "serialize.dump": _after_dump,
    "normalizer.step": _after_step,
}


class Recorder:
    """Spans and counters of one traced run, kept in memory until written out."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------

    def _timed(self, name, fn):
        after = AFTER.get(name)
        names, starts, ends, parents, stack = self.names, self.starts, self.ends, self.parents, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(self.counts, args, result)
            return result

        return wrapper

    def _counted_compose(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["category.compose_calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counted_in_oracle(self, counter: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if any(self.names[i] == ORACLE for i in self.stack):
                self.counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def run_pass(self, fn, *args) -> tuple[float, Counter, int, int]:
        """Run fn under a root 'pass' span; returns (wall, counters, first span, end span)."""
        self.counts.clear()
        first = len(self.names)
        self._timed("pass", fn)(*args)
        return self.ends[first] - self.starts[first], Counter(self.counts), first, len(self.names)

    # -- installing the wrappers --------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, package) -> None:
        """Wrap every binding of the traced functions in every loaded plumbtwist module."""
        mods = [m for name, m in sorted(sys.modules.items())
                if name == package.__name__ or name.startswith(package.__name__ + ".")]
        wrappers = {}
        for modname, attr, span in FUNCTIONS:
            mod = sys.modules.get(f"{package.__name__}.{modname}")
            if mod is None:
                continue
            original = getattr(mod, attr)
            wrapped = self._timed(span, original)
            if span == "complexes.cone":
                wrapped = self._counted_in_oracle("complexes.oracle_cones", wrapped)
            wrappers[id(original)] = (original, wrapped)
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])
        for modname, cls, meth, span in METHODS:
            owner = getattr(sys.modules[f"{package.__name__}.{modname}"], cls)
            self._patch(owner, meth, self._timed(span, getattr(owner, meth)))
        category = sys.modules[f"{package.__name__}.category"].Category
        self._patch(category, "compose", self._counted_compose(category.compose))
        matrix = sys.modules[f"{package.__name__}.linalg"].Matrix
        self._patch(matrix, "det_nonzero", self._counted_in_oracle("complexes.oracle_candidates", matrix.det_nonzero))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------------

    def self_times(self, first: int, end: int) -> list[float]:
        """Self time of each span in [first, end): duration minus its children's durations."""
        own = [self.ends[i] - self.starts[i] for i in range(first, end)]
        for i in range(first + 1, end):
            p = self.parents[i]
            if p >= first:
                own[p - first] -= self.ends[i] - self.starts[i]
        return own

    def layer_metrics(self, first: int, end: int, counts: Counter) -> dict[str, float]:
        """Per-layer metrics of the pass whose spans are [first, end)."""
        own = self.self_times(first, end)
        self_s: Counter = Counter()
        total_s: Counter = Counter()
        verify_s = 0.0
        for k, i in enumerate(range(first, end)):
            name = self.names[i]
            dur = self.ends[i] - self.starts[i]
            self_s[name] += own[k]
            total_s[name] += dur
            p = self.parents[i]
            if p >= 0 and self.names[p] == "normalizer.normalize" and name in ("twists.apply_braid", ORACLE):
                verify_s += dur
        candidates = counts["complexes.oracle_candidates"]
        cells = counts["complexes.hom_cells"]
        out = {
            "linalg.rref_s": self_s["linalg.rref"],
            "linalg.rref_calls": counts["linalg.rref_calls"],
            "linalg.rref_cells": counts["linalg.rref_cells"],
            "linalg.matrix_build_s": self_s["linalg.matrix_build"],
            "linalg.matrix_build_cells": counts["linalg.matrix_build_cells"],
            "complexes.hom_build_s": self_s["complexes.hom_build"],
            "complexes.hom_builds": counts["complexes.hom_builds"],
            "complexes.hom_gens": counts["complexes.hom_gens"],
            "complexes.hom_nonzeros": counts["complexes.hom_nonzeros"],
            "complexes.hom_density": counts["complexes.hom_nonzeros"] / cells if cells else 0.0,
            "category.compose_calls": counts["category.compose_calls"],
            "complexes.ranks_s": self_s["complexes.ranks"],
            "complexes.cocycle_reps_s": self_s["complexes.cocycle_reps"],
            "complexes.cone_s": self_s["complexes.cone"],
            "complexes.minimize_s": self_s["complexes.minimize"],
            "complexes.minimize_calls": counts["complexes.minimize_calls"],
            "complexes.minimize_cancelled": counts["complexes.minimize_cancelled"],
            "twists.twist_s": self_s["twists.twist"],
            "twists.twist_calls": counts["twists.twist_calls"],
            "twists.twist_out_len": counts["twists.twist_out_len"],
            "complexes.validate_s": self_s["complexes.validate"],
            "complexes.oracle_s": self_s[ORACLE],
            "complexes.oracle_candidates": candidates,
            "complexes.oracle_cones": counts["complexes.oracle_cones"],
            "complexes.oracle_hit_ratio": counts["complexes.oracle_yes"] / candidates if candidates else 0.0,
            # The normalizer and its phases contain other layers, so these are inclusive times.
            "normalizer.normalize_s": total_s["normalizer.normalize"],
            "normalizer.admissible_s": total_s["normalizer.admissible"],
            "normalizer.step_s": total_s["normalizer.step"],
            "normalizer.steps": counts["normalizer.steps"],
            "normalizer.verify_s": verify_s,
            "serialize.parse_s": self_s["serialize.parse"],
            "serialize.dump_s": self_s["serialize.dump"],
            "serialize.bytes_in": counts["serialize.bytes_in"],
            "serialize.bytes_out": counts["serialize.bytes_out"],
            "covers.specialize_s": self_s["covers.specialize"],
            "covers.decompose_s": self_s["covers.decompose"],
            "covers.fibre_rank_s": self_s["covers.fibre_rank"],
            "cli.run_s": self_s["cli.run"],
        }
        return out

    def write(self, path) -> None:
        """Write every span once, as [name, start, end, parent] with start/end in seconds."""
        table = sorted(set(self.names))
        index = {name: k for k, name in enumerate(table)}
        spans = [[index[n], s, e, p] for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": table, "fields": ["name", "start", "end", "parent"], "spans": spans}, fh)
