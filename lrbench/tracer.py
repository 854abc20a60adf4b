"""Span tracing of the lrlab layers, installed from outside the package.

``Tracer.install()`` wraps the public functions of every lrlab layer module
plus the constructors and methods in ``METHODS``, and rebinds each wrapper
in every loaded ``lrlab`` namespace that holds the original object.  Calls
made through ``from .nilmod import hom_dim`` or ``la.rref`` are therefore
traced as well.  Nothing inside the package changes; ``uninstall()``
restores every binding.

A span is one call: op id, parent span, name, start, end and two sizes
(``rref``: rows x cols in; ``hom_dim``: unknowns and equations).  Spans
live in flat arrays until ``write()``.  Functions in ``COUNT_ONLY`` are
called tens of times per op; they are counted but not timed, since timing
them would inflate the overhead, and their time stays in the caller's
self time.
"""

from __future__ import annotations

import array
import gzip
import importlib
import inspect
import json
import sys
import time

LAYERS = ("linalg", "nilmod", "tableaux", "partitions", "poles", "boxmoves",
          "witness", "oracle", "cli")

# (module, class, attribute, span name)
METHODS = (
    ("nilmod", "NilModule", "__init__", "nilmod.NilModule"),
    ("nilmod", "Embedding", "__init__", "nilmod.Embedding"),
    ("nilmod", "Embedding", "chain", "nilmod.Embedding.chain"),
)

COUNT_ONLY = {
    "linalg.as_mat", "linalg.rank", "linalg.row_space", "linalg.space_key",
    "linalg.in_space", "linalg.space_sum", "linalg.space_intersect",
    "linalg.null_space", "linalg.solution_space_dim",
    "nilmod.block_offsets",
    "tableaux.reading_word", "tableaux.is_horizontal_strip",
    "tableaux.is_vertical_strip", "tableaux.entry_counts", "tableaux.to_chain",
    "tableaux.validate", "tableaux.dominance_leq",
}


def _rref_size(M, p):
    return M.shape[0] * M.shape[1], 0


def _hom_size(E1, E2):
    d1, d2 = E1.B.dim, E2.B.dim
    if d1 == 0 or d2 == 0:
        return 0, 0
    # commutation rows plus one row per (generator of A1, functional killing A2)
    return d1 * d2, d1 * d2 + E1.span.shape[0] * (d2 - E2.span.shape[0])


SIZES = {"linalg.rref": _rref_size, "nilmod.hom_dim": _hom_size}


def _targets():
    """(span name, owner, attribute, original) for everything to wrap."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"lrlab.{layer}")
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                out.append((f"{layer}.{attr}", mod, attr, obj))
    for layer, cls_name, attr, name in METHODS:
        cls = getattr(importlib.import_module(f"lrlab.{layer}"), cls_name)
        out.append((name, cls, attr, cls.__dict__[attr]))
    return out


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.names: list[str] = []
        self.counts: dict[str, int] = {}
        self.op = array.array("q")
        self.parent = array.array("q")
        self.name = array.array("q")
        self.t0 = array.array("d")
        self.t1 = array.array("d")
        self.v1 = array.array("d")
        self.v2 = array.array("d")
        self.current_op = -1
        self._top = -1
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for name, owner, attr, fn in _targets():
            if name in COUNT_ONLY or inspect.isgeneratorfunction(fn):
                wrapper = self._counter(name, fn)
            else:
                wrapper = self._span(name, fn)
            wrappers[id(fn)] = (fn, wrapper)
            if isinstance(owner, type):
                self._rebind(owner, attr, wrapper)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "lrlab" or mod_name.startswith("lrlab.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._rebind(mod, attr, hit[1])

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _rebind(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _counter(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _span(self, name, fn):
        nid = self._name_id(name)
        size = SIZES.get(name)
        op, parent, names = self.op, self.parent, self.name
        t0, t1, v1, v2 = self.t0, self.t1, self.v1, self.v2
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(t0)
            op.append(tracer.current_op)
            parent.append(tracer._top)
            names.append(nid)
            a = b = 0
            if size is not None:
                try:
                    a, b = size(*args, **kwargs)
                except (AttributeError, IndexError, TypeError):
                    pass
            v1.append(a)
            v2.append(b)
            t1.append(0.0)
            outer = tracer._top
            tracer._top = idx
            t0.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                t1[idx] = clock()
                tracer._top = outer

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results --------------------------------------------------------
    def summary(self):
        """(stats, pairs): per name the totals of calls, self_s, v1 and v2,
        and the call count of every (name, parent name) pair.  Count-only
        functions report calls alone."""
        n = len(self.t0)
        child = [0.0] * n
        t0, t1, parent = self.t0, self.t1, self.parent
        for i in range(n):
            j = parent[i]
            if j >= 0:
                child[j] += t1[i] - t0[i]
        out: dict[str, dict[str, float]] = {}
        for name in self.names:
            out.setdefault(name, {"calls": 0, "self_s": 0.0, "v1": 0.0, "v2": 0.0})
        pairs: dict[tuple[str, str], int] = {}
        names, v1, v2 = self.names, self.v1, self.v2
        for i in range(n):
            name = names[self.name[i]]
            rec = out[name]
            rec["calls"] += 1
            rec["self_s"] += (t1[i] - t0[i]) - child[i]
            rec["v1"] += v1[i]
            rec["v2"] += v2[i]
            j = parent[i]
            key = (name, names[self.name[j]] if j >= 0 else "")
            pairs[key] = pairs.get(key, 0) + 1
        for name, c in self.counts.items():
            out[name] = {"calls": c, "self_s": 0.0, "v1": 0.0, "v2": 0.0}
        return out, pairs

    def dump(self) -> dict:
        """Raw spans and counts as plain lists (for a child process)."""
        return {
            "names": self.names, "counts": self.counts,
            "op": self.op.tolist(), "parent": self.parent.tolist(),
            "name": self.name.tolist(), "t0": self.t0.tolist(),
            "t1": self.t1.tolist(), "v1": self.v1.tolist(), "v2": self.v2.tolist(),
        }

    def merge(self, data: dict) -> None:
        """Append spans dumped by another process, remapping ids."""
        base = len(self.t0)
        remap = [self._intern(n) for n in data["names"]]
        self.op.extend(data["op"])
        self.parent.extend(j + base if j >= 0 else -1 for j in data["parent"])
        self.name.extend(remap[k] for k in data["name"])
        for field in ("t0", "t1", "v1", "v2"):
            getattr(self, field).extend(data[field])
        for name, c in data["counts"].items():
            self.counts[name] = self.counts.get(name, 0) + c

    def _intern(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            return self._name_id(name)

    def write(self, path) -> None:
        """All spans as gzip CSV: op, span, parent, name, start, end, v1, v2."""
        base = self.t0[0] if len(self.t0) else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("op,span,parent,name,start_s,end_s,v1,v2\n")
            for i in range(len(self.t0)):
                fh.write(f"{self.op[i]},{i},{self.parent[i]},{self.names[self.name[i]]},"
                         f"{self.t0[i] - base:.7f},{self.t1[i] - base:.7f},"
                         f"{self.v1[i]:g},{self.v2[i]:g}\n")
            fh.write("# counts " + json.dumps(self.counts, sort_keys=True) + "\n")
