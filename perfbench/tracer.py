"""Spans and counts around the program's layers, installed from outside.

The tracer replaces functions and methods of the imported ``nichols``
modules with wrappers; no file under ``src/`` changes.  A module-level
function is replaced in every module that binds it (``from .x import f``
copies the name), and in ``verify.CHECKS``, which holds the check functions
themselves.  Methods are replaced on their class, which every importer
shares.

Hot scalar operations (``CycloNumber`` multiplication and inversion, group
multiplication, state construction) are counted, not spanned: a span per
call would cost more memory than the work it measures.

A span is (name, start, end, parent); spans stay in memory and are written
out by ``dump`` when the traced process ends.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import Counter, defaultdict

MODULES = ("cyclotomic", "groups", "ydmodule", "linalg", "engine",
           "derivations", "groupoid", "verify", "cli")

# every public function of MODULES is spanned, except these: they are
# called too often to span, so they are counted instead
COUNT_ONLY_FUNCTIONS = {
    "derivations": {"element_is_zero", "add_elements", "scale_element"},
}

SPANNED_METHODS = {
    "engine.GradedNicholsState": ("extend_degree", "extend_to",
                                  "action_columns", "normal_form",
                                  "multiply", "derivative"),
    "linalg.IncrementalSpan": ("insert",),
    "ydmodule.YDModule": ("check_axioms", "braiding", "dual"),
}


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        # span: [name_id, start, end, parent_index]
        self.spans = []
        self._stack = [-1]
        self.counts = Counter()
        self.sums = defaultdict(float)
        self.tags = {}
        self.clock = time.perf_counter

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def spanned(self, name, fn, before=None, after=None):
        """Wrap fn in a span; before(args) -> ctx, after(idx, ctx, args, result)."""
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, self.clock

        def wrapper(*args, **kwargs):
            ctx = before(args) if before is not None else None
            idx = len(spans)
            span = [nid, 0.0, 0.0, stack[-1]]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(idx, ctx, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation

    def install(self, package):
        mods = {name: getattr(package, name) for name in MODULES}
        for mname, mod in mods.items():
            for fname, fn in list(vars(mod).items()):
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                key = f"{mname}.{fname}"
                if fname in COUNT_ONLY_FUNCTIONS.get(mname, ()):
                    wrapped = self.counted(key + "_calls", fn)
                else:
                    after = self._explore_after if key == \
                        "groupoid.explore_groupoid" else None
                    wrapped = self.spanned(key, fn, after=after)
                self._rebind(mods, fn, wrapped)
        verify = mods["verify"]
        verify.CHECKS[:] = [
            (name, location, self.spanned(f"verify.{name}", fn))
            for name, location, fn in verify.CHECKS]
        for qual, methods in SPANNED_METHODS.items():
            mname, cname = qual.split(".")
            cls = getattr(mods[mname], cname)
            for meth in methods:
                hooks = {}
                if qual == "engine.GradedNicholsState" and \
                        meth == "extend_degree":
                    hooks = {"before": self._extend_before,
                             "after": self._extend_after}
                elif meth == "insert":
                    hooks = {"before": self._insert_before,
                             "after": self._insert_after}
                setattr(cls, meth, self.spanned(f"{mname}.{meth}",
                                                getattr(cls, meth), **hooks))
        self._count_scalars(mods)

    @staticmethod
    def _rebind(mods, fn, wrapped):
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapped)

    def _count_scalars(self, mods):
        counts = self.counts
        cyclo = mods["cyclotomic"].CycloNumber
        mul, inv = cyclo.__mul__, cyclo.inv

        def cmul(a, b):
            counts["cyclotomic.mul_calls.n%d" % a.field.conductor] += 1
            return mul(a, b)

        def cinv(a):
            counts["cyclotomic.inv_calls.n%d" % a.field.conductor] += 1
            return inv(a)

        cyclo.__mul__ = cyclo.__rmul__ = cmul
        cyclo.inv = cinv
        group = mods["groups"].FiniteGroup
        group.mul = self.counted("groups.mul_calls", group.mul)
        state = mods["engine"].GradedNicholsState
        state.__init__ = self.counted("engine.states_built", state.__init__)

    # -- hooks

    def _extend_before(self, args):
        state = args[0]
        if state.finished:
            return None
        n = len(state.words)
        return n, state.module.dim * len(state.words[n - 1])

    def _extend_after(self, idx, ctx, args, result):
        if ctx is None:
            return
        n, candidates = ctx
        state = args[0]
        self.tags[idx] = n
        self.counts[f"engine.candidates.d{n}"] += candidates
        self.counts[f"engine.pivots.d{n}"] += len(state.words[n])

    def _insert_before(self, args):
        span, vec = args[0], args[1]
        nonzero = span.ops.nonzero
        return span.ncols, sum(1 for x in vec if nonzero(x))

    def _insert_after(self, idx, ctx, args, result):
        ncols, nnz = ctx
        self.counts["linalg.insert_pivots"] += result[0] == "pivot"
        self.sums["linalg.insert_cols"] += ncols
        if ncols:
            self.sums["linalg.insert_density_sum"] += nnz / ncols

    def _explore_after(self, idx, ctx, args, graph):
        self.counts["groupoid.nodes"] += len(graph.nodes)
        self.counts["groupoid.edges"] += len(graph.edges)

    # -- summaries

    def summary(self):
        """Per span name: calls, inclusive seconds (outermost calls of that
        name, so recursion is not counted twice) and self seconds."""
        spans, names = self.spans, self.names
        child = [0.0] * len(spans)
        for nid, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for idx, (nid, start, end, parent) in enumerate(spans):
            row = out.setdefault(names[nid], {"calls": 0, "inclusive_s": 0.0,
                                              "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += end - start - child[idx]
            if not self._inside_same(idx):
                row["inclusive_s"] += end - start
        return out

    def _inside_same(self, idx):
        spans = self.spans
        nid = spans[idx][0]
        parent = spans[idx][3]
        while parent >= 0:
            if spans[parent][0] == nid:
                return True
            parent = spans[parent][3]
        return False

    def per_degree(self):
        """extend_degree time split per degree into pass 2 (inserts inside
        it) and pass 1 (the rest of its self time)."""
        spans = self.spans
        insert_id = self._name_ids.get("linalg.insert")
        child_total = defaultdict(float)
        insert_total = defaultdict(float)
        for nid, start, end, parent in spans:
            if parent in self.tags:
                child_total[parent] += end - start
                if nid == insert_id:
                    insert_total[parent] += end - start
        out = defaultdict(lambda: {"extend_degree_s": 0.0, "pass1_s": 0.0,
                                   "pass2_s": 0.0})
        for idx, n in self.tags.items():
            _, start, end, _ = spans[idx]
            row = out[n]
            row["extend_degree_s"] += end - start
            row["pass2_s"] += insert_total[idx]
            row["pass1_s"] += end - start - child_total[idx]
        return dict(out)

    def dump(self, path, extra=None):
        t0 = self.spans[0][1] if self.spans else 0.0
        payload = {
            "names": self.names,
            "spans": [[nid, round(s - t0, 7), round(e - t0, 7), p]
                      for nid, s, e, p in self.spans],
            "counts": dict(self.counts),
            "sums": dict(self.sums),
            "layers": self.summary(),
            "per_degree": {str(k): v for k, v in self.per_degree().items()},
        }
        if extra:
            payload.update(extra)
        with open(path, "w") as fh:
            json.dump(payload, fh)


def install(package):
    """Trace the imported ``nichols`` package; returns the tracer."""
    tracer = Tracer()
    tracer.install(package)
    return tracer
