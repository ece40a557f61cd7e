"""Spans around paramck's layers, installed from outside the program.

Each wrapped function is replaced at the module attribute its caller looks
it up through (``paramck.parikh.milp`` is the scipy call as parikh.py sees
it), so nothing in the program changes.  Spans are kept in memory as
(name, parent index, start, end); a span's self time is its duration minus
that of its direct children.  Counts are taken from return values.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

# (module, attribute, span name, count function or None)
WRAPS = (
    ("paramck.cli", "main", "cli.main", None),
    ("paramck.cli", "parse_machine_file", "parse", None),
    ("paramck.cli", "validate", "parse", None),
    ("paramck.cli", "buchi_product", "parse", None),
    ("paramck.cli", "make_network", "parse", None),
    ("paramck.cli", "run_check", "api.run_check", None),
    ("paramck.cyclesearch", "reachable_abstract", "abstraction.reach",
     lambda r: {"abstraction.configs": len(r.order)}),
    ("paramck.cyclesearch", "build_cycle_fsa", "cyclesearch.cycle_fsa",
     lambda fsa: {"cyclesearch.cycle_fsas": 1,
                  "cyclesearch.cycle_fsa_edges": len(fsa.edges)}),
    ("paramck.cyclesearch", "realizability_system", "cyclesearch.system",
     None),
    ("paramck.cyclesearch", "concretize", "cyclesearch.concretize", None),
    ("paramck.cyclesearch", "replay", "explicit.replay", None),
    ("paramck.parikh", "parikh_fsa", "parikh.parikh_fsa", None),
    ("paramck.parikh", "parikh_cfg", "parikh.parikh_cfg", None),
    ("paramck.parikh", "reduce_grammar", "parikh.reduce_grammar", None),
    ("paramck.parikh", "solve", "parikh.solve", None),
    ("paramck.parikh", "milp", "parikh.highs_milp", None),
    ("paramck.parikh", "linprog", "parikh.highs_lp", None),
    ("paramck.parikh", "euler_witness", "parikh.euler", None),
    ("paramck.pushdown", "post_star", "pushdown.post_star",
     lambda pairs: {"pushdown.pivots": len(pairs)}),
    ("paramck.pushdown", "build_loop_grammar", "pushdown.loop_grammar",
     lambda g: {"pushdown.productions": len(g.productions)}),
    ("paramck.pushdown", "pop_relation", "pushdown.pop_relation", None),
    ("paramck.pushdown", "loop_system", "pushdown.loop_system", None),
    ("paramck.pushdown", "derive_word", "pushdown.derive_word", None),
    ("paramck.pushdown", "find_stem", "pushdown.find_stem", None),
    ("paramck.pushdown", "replay", "explicit.replay", None),
    ("paramck.reduction", "restrict", "reduction.restrict",
     lambda fsm: {"reduction.window_states": len(fsm.states)}),
)

# metric name -> (span name, "total" | "self" | "calls")
SPAN_METRICS = {
    "parse.s": ("parse", "total"),
    "cli.self_s": ("cli.main", "self"),
    "abstraction.reach_s": ("abstraction.reach", "total"),
    "cyclesearch.cycle_fsa_s": ("cyclesearch.cycle_fsa", "total"),
    "cyclesearch.system_s": ("cyclesearch.system", "total"),
    "cyclesearch.concretize_s": ("cyclesearch.concretize", "total"),
    "cyclesearch.concretize_calls": ("cyclesearch.concretize", "calls"),
    "parikh.parikh_fsa_s": ("parikh.parikh_fsa", "total"),
    "parikh.solve_s": ("parikh.solve", "total"),
    "parikh.solves": ("parikh.solve", "calls"),
    "parikh.solve_self_s": ("parikh.solve", "self"),
    "parikh.highs_milp_s": ("parikh.highs_milp", "total"),
    "parikh.highs_milp_calls": ("parikh.highs_milp", "calls"),
    "parikh.highs_lp_s": ("parikh.highs_lp", "total"),
    "parikh.highs_lp_calls": ("parikh.highs_lp", "calls"),
    "parikh.euler_s": ("parikh.euler", "total"),
    "explicit.replay_s": ("explicit.replay", "total"),
    "explicit.replays": ("explicit.replay", "calls"),
    "pushdown.post_star_s": ("pushdown.post_star", "total"),
    "pushdown.loop_grammar_s": ("pushdown.loop_grammar", "total"),
    "pushdown.pop_relation_s": ("pushdown.pop_relation", "total"),
    "pushdown.loop_system_s": ("pushdown.loop_system", "total"),
    "parikh.parikh_cfg_s": ("parikh.parikh_cfg", "total"),
    "parikh.reduce_grammar_s": ("parikh.reduce_grammar", "total"),
    "pushdown.derive_word_s": ("pushdown.derive_word", "total"),
    "pushdown.find_stem_s": ("pushdown.find_stem", "total"),
    "reduction.restrict_s": ("reduction.restrict", "total"),
}

COUNT_METRICS = ("abstraction.configs", "cyclesearch.cycle_fsas",
                 "cyclesearch.cycle_fsa_edges", "pushdown.pivots",
                 "pushdown.productions", "reduction.window_states")


class Tracer:
    """Installs the wrappers on construction; ``close`` restores the
    originals.  Spans are recorded only while ``active`` is true."""

    def __init__(self):
        self.active = False
        self.spans = []            # [name, parent index, start, end]
        self.counts = Counter()
        self._open = []            # indices of the spans now running
        self._undo = []
        for module_name, attr, name, count in WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name, count))
            self._undo.append((module, attr, original))

    def _wrap(self, fn, name, count):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = self._open[-1] if self._open else None
            span = [name, parent, time.perf_counter(), None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._open.pop()
            if count is not None:
                self.counts.update(count(result))
            return result
        return traced

    def close(self):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo = []

    def reset(self):
        self.spans = []
        self.counts = Counter()

    def metrics(self):
        """Per-layer metrics of the spans and counts recorded since the last
        reset, as name -> (value, unit): total and self seconds and call
        counts per span name, and the counts taken from return values."""
        total = Counter()
        child = Counter()
        calls = Counter()
        for i, (name, parent, start, end) in enumerate(self.spans):
            total[name] += end - start
            calls[name] += 1
            if parent is not None:
                child[parent] += end - start
        self_time = Counter()
        for i, (name, _, start, end) in enumerate(self.spans):
            self_time[name] += end - start - child[i]
        views = {"total": total, "self": self_time, "calls": calls}
        out = {metric: (views[view][span], "count" if view == "calls" else "s")
               for metric, (span, view) in SPAN_METRICS.items()}
        out.update({metric: (self.counts[metric], "count")
                    for metric in COUNT_METRICS})
        return out
