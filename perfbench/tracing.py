"""Spans around calls into exactcolor's public functions, recorded from outside.

install() replaces each traced function with a wrapper in every exactcolor
module namespace that holds it, so calls between modules are recorded too
(for example cactus_chi2 -> exactcolor.cactus.block_cut_tree).  Spans stay
in memory; the worker writes them out when its job ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

TRACED = {
    "graph_io": ("load_graph", "read_graph"),
    "graphs": ("build_graph", "block_cut_tree", "recognize", "is_chordal",
               "connected_components", "perfect_matchings", "contract_partition",
               "is_bipartite"),
    "closedform": ("chi_cycle", "chi_wheel", "chi_tree", "chi_complete"),
    "cactus": ("cactus_chi1", "cactus_chi2", "cactus_preprocess", "cactus_label",
               "cactus_extract_coloring"),
    "blockgraph": ("blockgraph_chi", "clique_factor"),
    "chromatic": ("chromatic_number", "max_clique"),
    "oracle": ("brute_chi", "brute_solve"),
    "coloring": ("feasibility_precheck",),
    "reductions": ("reduce_coloring_to_exact", "lift_solution"),
    "cli": ("cmd_solve",),
}

SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]

# counts taken from a traced function's result
_RESULT_COUNTS = {
    "graphs.perfect_matchings": ("graphs.perfect_matchings.matchings", len),
    "cactus.cactus_label": ("cactus.cactus_label.rejects", lambda r: int(not r.ok)),
}


class Tracer:
    """Spans are lists [name, start, end, parent index or -1, query id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.query = None
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._open
        count = _RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.query]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count:
                self.counts[count[0]] += count[1](result)
            return result

        return traced

    def summary(self) -> dict:
        calls = Counter(s[0] for s in self.spans)
        bct = Counter(s[4] for s in self.spans if s[0] == "graphs.block_cut_tree")
        return {
            "calls": dict(calls),
            "self_s": self_times(self.spans),
            "counts": dict(self.counts),
            "bct_calls": sum(bct.values()),
            "bct_queries": len(bct),
        }


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: duration minus the durations of direct children.

    Spans of one thread nest properly, so direct children never overlap and
    their durations can simply be summed.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child[i]
    return out


def install(tracer: Tracer) -> None:
    """Wrap every traced function wherever an exactcolor module imported it."""
    import exactcolor.cli  # noqa: F401  (loads every traced module)

    modules = [m for name, m in sys.modules.items()
               if name == "exactcolor" or name.startswith("exactcolor.")]
    for mod, names in TRACED.items():
        home = sys.modules[f"exactcolor.{mod}"]
        for fn_name in names:
            original = getattr(home, fn_name)
            wrapped = tracer.wrap(f"{mod}.{fn_name}", original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)
