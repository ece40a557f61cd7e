"""Paper-fidelity oracles for the window restriction.

Runs of a single PDM, their effective stack height, and a desk-scale check
that the k-restriction (paramck.reduction.restrict) accepts exactly the
words of the effectively k-bounded run prefixes.  No checker uses them;
the tests compare the restriction against them.
"""

from __future__ import annotations

from dataclasses import dataclass

from paramck.machines import Pdm, stack_step
from paramck.reduction import restrict


@dataclass(frozen=True)
class RunPrefix:
    """A finite run of a single PDM from its initial configuration, given as
    the sequence of applied rules; an optional lasso marker (stem length,
    cycle length) declares the infinite run stem . cycle^omega."""

    machine: Pdm
    rules: tuple
    lasso: tuple | None = None


def run_configs(run, rules=None):
    """Configurations (state, stack) visited by the rule sequence; stacks are
    top-first tuples.  Raises ValueError if some rule does not apply."""
    if rules is None:
        rules = run.rules
    state = run.machine.initial
    stack = (run.machine.bottom,)
    out = [(state, stack)]
    for i, rule in enumerate(rules):
        if rule.src != state:
            raise ValueError(f"rule {i} expects state {rule.src!r}, run is at {state!r}")
        stack = stack_step(rule, stack)
        if stack is None:
            raise ValueError(f"rule {i} expects top {rule.top!r} and may not"
                             f" pop the bottom symbol")
        state = rule.dst
        out.append((state, stack))
    return out


def unrolled_rules(run, periods=None):
    """Rule sequence with the lasso cycle unrolled enough times for effective
    stack heights in the stem and first period to be exact."""
    if run.lasso is None:
        return run.rules
    stem_len, cycle_len = run.lasso
    if stem_len + cycle_len != len(run.rules) or cycle_len < 1:
        raise ValueError("lasso marker does not match the rule sequence")
    if periods is None:
        # the future height minimum stabilizes after at most one period per
        # unit of dip, and a period can dip at most its own length
        periods = cycle_len + 3
    stem = run.rules[:stem_len]
    cycle = run.rules[stem_len:]
    return stem + cycle * periods


def effective_stack_height(run, i):
    """Height of the active stack prefix at position i.

    The symbols that are dark (never exposed again) at position i are those
    strictly below the minimum stack height of the remaining run: the symbol
    at the minimum itself can still be read, everything under it cannot.
    Hence esh(i) = h(i) - min_{j >= i} h(j) + 1.  For a finite prefix the
    minimum ranges over the prefix; for a lasso, over the infinite unrolling.
    """
    rules = unrolled_rules(run)
    configs = run_configs(run, rules)
    if not 0 <= i < (len(run.rules) + 1 if run.lasso is None else len(configs)):
        raise ValueError(f"position {i} out of range")
    heights = [len(stack) for _, stack in configs]
    return heights[i] - min(heights[i:]) + 1


def _kbounded_words(pdm, k, L):
    """Words of length <= L labeled by run prefixes whose positions all have
    effective stack height <= k within the prefix.

    DFS over run prefixes; the stack is capped at k + L symbols, which no
    run of <= L steps can exceed anyway.  A prefix is k-bounded iff no height
    exceeds the minimum height of the remaining suffix by k or more, which we
    check against the best (highest) future minimum: extending a run never
    lowers a position's esh below its in-prefix value, so the in-prefix esh
    is the right notion for "some k-bounded continuation exists locally".
    """
    words = set()

    def heights_ok(heights):
        run_min = heights[-1]
        for h in reversed(heights):
            run_min = min(run_min, h)
            if h - run_min + 1 > k:
                return False
        return True

    def dfs(state, stack, word, heights):
        if heights_ok(heights):
            words.add(tuple(word))
        if len(word) == L:
            return
        for rule in pdm.rules:
            if rule.src != state or not stack or rule.top != stack[0]:
                continue
            if rule.effect[0] == "push":
                new_stack = (rule.effect[1],) + stack
                if len(new_stack) > k + L:
                    continue
            else:
                new_stack = stack[1:]
                if not new_stack:
                    continue
            word.append(rule.action)
            heights.append(len(new_stack))
            dfs(rule.dst, new_stack, word, heights)
            word.pop()
            heights.pop()

    dfs(pdm.initial, (pdm.bottom,), [], [1])
    return words


def _fsm_words(fsm, L):
    words = set()

    def dfs(state, word):
        words.add(tuple(word))
        if len(word) == L:
            return
        for src, act, dst in fsm.transitions:
            if src == state:
                word.append(act)
                dfs(dst, word)
                word.pop()

    dfs(fsm.initial, [])
    return words


def kbounded_agreement(pdm, k, L):
    """Desk-scale equivalence check: a word of length <= L admits an
    effectively k-bounded run prefix iff it labels a path of the
    k-restriction.  Returns ("holds", None) or ("counterexample", word)."""
    bounded = _kbounded_words(pdm, k, L)
    via_fsm = _fsm_words(restrict(pdm, k), L)
    for w in sorted(bounded ^ via_fsm, key=lambda w: (len(w), repr(w))):
        return ("counterexample", w)
    return ("holds", None)
