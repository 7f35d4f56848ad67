"""Span tracing for the traced benchmark run.

``Tracer.install`` wraps the public functions through which winset's
modules call each other.  It edits nothing on disk: each wrapper replaces
the function in every loaded ``winset`` module that binds it, and
``uninstall`` puts the originals back.  A wrapper records one span
(name, start, end, parent) in flat arrays and, for some functions, adds to
a counter at the same boundary.  Per-layer metrics come from the spans
afterwards: a span's self time is its duration minus the durations of its
direct children, which on one thread lie inside it and apart.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import Counter
from typing import Callable

# (module, attribute, span name); "Class.method" patches the class
TARGETS = (
    ("winset.game", "normalize", "game.normalize"),
    ("winset.game", "winning_step", "game.winning_step"),
    ("winset.game", "winset_dfa", "game.winset_dfa"),
    ("winset.game", "ReversalDfa.step", "game.reversal.step"),
    ("winset.game", "ReversalDfa.to_dfa", "game.reversal.to_dfa"),
    ("winset.automata", "minimize", "automata.minimize"),
    ("winset.automata", "determinize", "automata.determinize"),
    ("winset.automata", "parse_dfa", "automata.parse"),
    ("winset.automata", "parse_nfa", "automata.parse"),
    ("winset.decision", "member", "decision.member"),
    ("winset.decision", "intersect_nonempty", "decision.intersect"),
    ("winset.enumeration", "max_winset_complexity", "enumeration"),
    ("winset.gadgets", "exact_ones_dfa", "gadgets.build"),
    ("winset.gadgets", "chain_dfa", "gadgets.build"),
    ("winset.gadgets", "lower_bound_dfa", "gadgets.build"),
    ("winset.circuits", "parse_circuit", "circuits.build"),
    ("winset.circuits", "circuit_value_instance", "circuits.build"),
    ("winset.circuits", "iterated_instance", "circuits.build"),
)


class Spans:
    """Spans in flat arrays; ``parent`` is an index into them, or -1."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.kind = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")

    def __len__(self) -> int:
        return len(self.kind)

    def intern(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def add(self, nid: int, start: float, end: float, parent: int) -> int:
        self.kind.append(nid)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        return len(self.kind) - 1

    def self_times(self) -> array:
        """Each span's duration minus its direct children's durations."""
        out = array("d", (e - s for s, e in zip(self.start, self.end)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= self.end[i] - self.start[i]
        return out

    def totals(self) -> tuple[Counter, Counter]:
        """Per span name: call count and summed self time."""
        calls, self_s = Counter(), Counter()
        for i, s in enumerate(self.self_times()):
            name = self.names[self.kind[i]]
            calls[name] += 1
            self_s[name] += s
        return calls, self_s

    def child_count(self, parent_name: str, child_name: str) -> int:
        if parent_name not in self.name_id or child_name not in self.name_id:
            return 0
        pid, cid = self.name_id[parent_name], self.name_id[child_name]
        return sum(
            1 for i in range(len(self))
            if self.kind[i] == cid and self.parent[i] >= 0 and self.kind[self.parent[i]] == pid
        )

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("name\tstart\tend\tparent\n")
            for i in range(len(self)):
                f.write(f"{self.names[self.kind[i]]}\t{self.start[i]!r}\t"
                        f"{self.end[i]!r}\t{self.parent[i]}\n")


class Tracer:
    """Installs span wrappers on winset and records into ``spans``."""

    def __init__(self):
        self.spans = Spans()
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # enumeration reports through its public callbacks
    def observe(self, size: int) -> None:
        self.counts["enumeration.hosts_evaluated"] += 1

    def progress(self, done: int, total: int) -> None:
        self.counts["enumeration.structures_kept"] += 1
        self.counts["enumeration.structures_total"] = total

    def span(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        nid = spans.intern(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = spans.add(nid, 0.0, 0.0, stack[-1] if stack else -1)
            stack.append(i)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.end[i] = clock()
                spans.start[i] = t0
                stack.pop()

        return wrapper

    def _counting(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` with the counters recorded at its boundary, if any."""
        counts = self.counts
        if name == "game.normalize":
            def normalize(host, g, *args, **kwargs):
                g = tuple(g)
                out = fn(host, g, *args, **kwargs)
                counts["game.normalize.members_in"] += len(g)
                counts["game.normalize.members_out"] += len(out)
                return out
            return normalize
        if name == "automata.minimize":
            def minimize(d, *args, **kwargs):
                out = fn(d, *args, **kwargs)
                counts["automata.minimize.states_in"] += d.state_count
                counts["automata.minimize.states_out"] += out.state_count
                return out
            return minimize
        if name == "game.reversal.step":
            def step(self, *args, **kwargs):
                counts["game.reversal.state_steps"] += self.host.state_count
                return fn(self, *args, **kwargs)
            return step
        if name == "decision.member":
            def member(host, w, *args, **kwargs):
                counts["decision.member.letters"] += len(w)
                return fn(host, w, *args, **kwargs)
            return member
        if name == "circuits.build" and fn.__name__.endswith("_instance"):
            def instance(*args, **kwargs):
                out = fn(*args, **kwargs)
                counts["circuits.host_states"] += out[0].state_count
                return out
            return instance
        return fn

    def install(self) -> None:
        for modname, attr, name in TARGETS:
            owner_name, _, fname = attr.rpartition(".")
            owner = sys.modules.get(modname)
            if owner is not None and owner_name:
                owner = getattr(owner, owner_name, None)
            orig = getattr(owner, fname, None)
            if orig is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapped = self.span(name, self._counting(name, orig))
            if owner_name:
                self._patch(owner, fname, wrapped)
                continue
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").split(".")[0] != "winset":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner, key: str, value) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)


def cache_stats(game) -> dict[str, float]:
    """Hit ratios and sizes of game's module-level caches, while they exist."""
    def info(name: str):
        fn = getattr(game, name, None)
        return fn.cache_info() if hasattr(fn, "cache_info") else None

    images = [i for i in (info("_a_images"), info("_b_image")) if i is not None]
    tables = info("_tables")
    hits = sum(i.hits for i in images)
    lookups = hits + sum(i.misses for i in images)
    return {
        "game.cache.images.hit_ratio": hits / lookups if lookups else 0.0,
        "game.cache.images.entries": sum(i.currsize for i in images),
        "game.cache.tables.hit_ratio":
            tables.hits / (tables.hits + tables.misses) if tables and tables.hits + tables.misses else 0.0,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, caches: dict[str, float], scale: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass, with self times multiplied
    by ``scale`` before anything is derived from them."""
    calls, raw_s = tracer.spans.totals()
    self_s = Counter({name: s * scale for name, s in raw_s.items()})
    c = tracer.counts
    step_s = self_s["game.reversal.step"]
    out = {
        "game.normalize.calls": calls["game.normalize"],
        "game.normalize.self_s": self_s["game.normalize"],
        "game.normalize.members_in": c["game.normalize.members_in"],
        "game.normalize.kept_ratio": _ratio(c["game.normalize.members_out"],
                                            c["game.normalize.members_in"]),
        "game.winning_step.calls": calls["game.winning_step"],
        "game.winning_step.self_s": self_s["game.winning_step"],
        "game.winset_dfa.calls": calls["game.winset_dfa"],
        "game.winset_dfa.self_s": self_s["game.winset_dfa"],
        "game.reversal.steps": calls["game.reversal.step"],
        "game.reversal.step_s": step_s,
        "game.reversal.ns_per_state_step": _ratio(step_s * 1e9, c["game.reversal.state_steps"]),
        "game.reversal.to_dfa.calls": calls["game.reversal.to_dfa"],
        "game.reversal.to_dfa.self_s": self_s["game.reversal.to_dfa"],
        **caches,
        "automata.minimize.calls": calls["automata.minimize"],
        "automata.minimize.self_s": self_s["automata.minimize"],
        "automata.minimize.states_in": c["automata.minimize.states_in"],
        "automata.minimize.kept_ratio": _ratio(c["automata.minimize.states_out"],
                                               c["automata.minimize.states_in"]),
        "automata.determinize.calls": calls["automata.determinize"],
        "automata.determinize.self_s": self_s["automata.determinize"],
        "automata.parse.self_s": self_s["automata.parse"],
        "decision.member.calls": calls["decision.member"],
        "decision.member.letters": c["decision.member.letters"],
        "decision.member.self_s": self_s["decision.member"],
        "decision.intersect.calls": calls["decision.intersect"],
        "decision.intersect.self_s": self_s["decision.intersect"],
        "decision.intersect.reversal_steps":
            tracer.spans.child_count("decision.intersect", "game.reversal.step"),
        "enumeration.self_s": self_s["enumeration"],
        "enumeration.structures_total": c["enumeration.structures_total"],
        "enumeration.structures_kept": c["enumeration.structures_kept"],
        "enumeration.hosts_evaluated": c["enumeration.hosts_evaluated"],
        "gadgets.build_s": self_s["gadgets.build"],
        "circuits.build_s": self_s["circuits.build"],
        "circuits.host_states": c["circuits.host_states"],
    }
    return {k: float(v) for k, v in out.items()}
