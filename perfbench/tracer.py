"""Layer tracer for flab, installed from outside the package.

``install`` wraps every public function of the eight layer modules, in each
flab namespace that bound it by name, and the methods of ``Subspace`` and
``Flat`` with a timing span.  Methods of ``PrimeField`` and ``ExtensionField``
get a bare call counter instead: they run millions of times per job, and the
gf microbench gives their per-call cost.

Spans form a calling-context tree.  Spans with the same job, parent span and
name are merged into one node that keeps their count, summed duration,
summed duration of wrapped callees, first start and last end, so a million
calls of one function from one caller cost one node.  Self time is a node's
duration minus the time its children cover.  A generator's span covers the
time spent inside each resumption; its node also counts the items yielded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("gf", "geometry", "furstenberg", "incidence", "entropy",
          "polymethod", "formats", "cli")
SPANNED_CLASSES = (("geometry", "Subspace"), ("geometry", "Flat"))
COUNTED_CLASSES = (("gf", "PrimeField"), ("gf", "ExtensionField"))


class Node:
    __slots__ = ("name", "parent", "job", "calls", "total", "child",
                 "first", "last", "yielded", "nbytes", "hits", "kids")

    def __init__(self, name, parent, job):
        self.name = name
        self.parent = parent
        self.job = job
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        self.first = None
        self.last = None
        self.yielded = 0
        self.nbytes = 0
        self.hits = 0
        self.kids = {}


class Tracer:
    """Span tree and call counters of one process."""

    def __init__(self):
        self.roots: list[Node] = []
        self.stack: list[Node] = [Node("idle", None, None)]
        self.counts: dict[str, list[int]] = {}
        self.job_counts: dict = {}

    def begin_job(self, job) -> None:
        root = Node("job", None, job)
        root.first = time.perf_counter()
        self.roots.append(root)
        self.stack[:] = [root]
        for cell in self.counts.values():
            cell[0] = 0

    def end_job(self) -> None:
        root = self.stack[0]
        root.last = time.perf_counter()
        root.calls = 1
        root.total = root.last - root.first
        self.job_counts[root.job] = {k: c[0] for k, c in self.counts.items()}
        self.stack[:] = [Node("idle", None, None)]

    def nodes(self) -> list[dict]:
        """Flatten the tree: one dict per node, parents before children."""
        out = []

        def walk(node, parent_id):
            nid = len(out)
            out.append({
                "id": nid, "parent": parent_id, "job": node.job,
                "name": node.name, "calls": node.calls,
                "total_s": node.total, "self_s": node.total - node.child,
                "first": node.first, "last": node.last,
                "yielded": node.yielded, "bytes": node.nbytes,
                "hits": node.hits,
            })
            for kid in node.kids.values():
                walk(kid, nid)
        for root in self.roots:
            walk(root, None)
        return out

    def dump(self) -> dict:
        return {"spans": self.nodes(), "gf_counts": self.job_counts}

    # -- wrappers ----------------------------------------------------------

    def _enter(self, name):
        parent = self.stack[-1]
        node = parent.kids.get(name)
        if node is None:
            node = parent.kids[name] = Node(name, parent, parent.job)
        self.stack.append(node)
        return parent, node

    def _leave(self, parent, node, t0, t1):
        self.stack.pop()
        dt = t1 - t0
        node.calls += 1
        node.total += dt
        parent.child += dt
        if node.first is None:
            node.first = t0
        node.last = t1

    def span(self, name, fn, hook=None):
        enter, leave, clock = self._enter, self._leave, time.perf_counter
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    parent, node = enter(name)
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        leave(parent, node, t0, clock())
                    node.yielded += 1
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent, node = enter(name)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(parent, node, t0, clock())
            if hook is not None:
                hook(node, args, result)
            return result
        return wrapper

    def counter(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper


def _count_bytes(node, args, result):
    node.nbytes += sum(len(a) for a in args if isinstance(a, str))


def _count_hits(node, args, result):
    if result[0]:
        node.hits += 1


HOOKS = {"furstenberg.is_furstenberg": _count_hits}


def install(tracer: Tracer) -> None:
    """Wrap the layer functions and methods of the imported flab package."""
    mods = {layer: importlib.import_module("flab." + layer)
            for layer in LAYERS}
    wrapped = {}
    for layer, mod in mods.items():
        for name, obj in vars(mod).items():
            if (name.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            qual = f"{layer}.{name}"
            hook = HOOKS.get(qual)
            if layer == "formats" and name.startswith("parse_"):
                hook = _count_bytes
            wrapped[obj] = tracer.span(qual, obj, hook)
    for modname, mod in list(sys.modules.items()):
        if modname != "flab" and not modname.startswith("flab."):
            continue
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, name, wrapped[obj])
    for layer, clsname in SPANNED_CLASSES + COUNTED_CLASSES:
        cls = getattr(mods[layer], clsname)
        make = (tracer.counter if (layer, clsname) in COUNTED_CLASSES
                else tracer.span)
        for name, attr in list(vars(cls).items()):
            if name.startswith("__"):
                continue
            qual = f"{layer}.{clsname}.{name}"
            if isinstance(attr, classmethod):
                setattr(cls, name, classmethod(make(qual, attr.__func__)))
            elif inspect.isfunction(attr):
                setattr(cls, name, make(qual, attr))


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one traced pass

ENUMERATORS = ("geometry.enumerate_subspaces", "geometry.enumerate_cosets",
               "geometry.enumerate_flats")


def layer_metrics(spans: list[dict], gf_counts: dict) -> dict:
    """Per-layer counts and self times; gf counts are summed over jobs."""
    by_id = {s["id"]: s for s in spans}

    def parent_name(s):
        p = by_id.get(s["parent"])
        return p["name"] if p else ""

    def total(key, names=None, prefix=None, under=None):
        acc = 0
        for s in spans:
            if names is not None and s["name"] not in names:
                continue
            if prefix is not None and not s["name"].startswith(prefix):
                continue
            if under is not None and not parent_name(s).startswith(under):
                continue
            acc += s[key]
        return acc

    counts: dict[str, int] = {}
    for per_job in gf_counts.values():
        for name, c in per_job.items():
            counts[name] = counts.get(name, 0) + c

    def gf(*ops):
        return sum(counts.get(f"gf.{cls}.{op}", 0)
                   for cls in ("PrimeField", "ExtensionField") for op in ops)

    verify = ["furstenberg.is_furstenberg"]
    candidates = total("calls", verify, under="furstenberg.search_extremal")
    hits = total("hits", verify, under="furstenberg.search_extremal")
    contains = ("geometry.Subspace.contains", "geometry.Flat.contains")
    parses = [s for s in spans if s["name"].startswith("formats.parse_")
              and not parent_name(s).startswith("formats.")]
    return {
        "gf.mul.calls": gf("mul"),
        "gf.addsub.calls": gf("add", "sub"),
        "gf.inv.calls": gf("inv"),
        "gf.pow.calls": gf("pow"),
        "geometry.reduce.calls": total(
            "calls", ["geometry.reduce_mod_subspace"]),
        "geometry.reduce.self_s": total(
            "self_s", ["geometry.reduce_mod_subspace"]),
        "geometry.contains.calls": total("calls", contains),
        "geometry.contains.self_s": total("self_s", contains),
        "geometry.rref.calls": total("calls", ["geometry.rref"]),
        "geometry.rref.self_s": total("self_s", ["geometry.rref"]),
        "geometry.enum.yielded": total("yielded", ENUMERATORS),
        "geometry.enum.self_s": total("self_s", ENUMERATORS),
        "furstenberg.verify.calls": total("calls", verify),
        "furstenberg.dirs_scanned": total(
            "yielded", ["geometry.enumerate_subspaces"],
            under="furstenberg."),
        "furstenberg.search.hit_ratio": hits / candidates if candidates
        else 0.0,
        "furstenberg.self_s": total("self_s", prefix="furstenberg."),
        "incidence.flats_enumerated": total(
            "yielded", ["geometry.enumerate_flats"], under="incidence."),
        "incidence.self_s": total("self_s", prefix="incidence."),
        "entropy.pushforward.calls": total(
            "calls", ["entropy.pushforward"]),
        "entropy.apply_map.calls": total("calls", ["entropy.apply_map"]),
        "entropy.self_s": total("self_s", prefix="entropy."),
        "polymethod.hasse.calls": total(
            "calls", ["polymethod.hasse_derivative"]),
        "polymethod.evaluate.calls": total(
            "calls", ["polymethod.evaluate"]),
        "polymethod.multiplicity.calls": total(
            "calls", ["polymethod.multiplicity"]),
        "polymethod.self_s": total("self_s", prefix="polymethod."),
        "formats.bytes_parsed": sum(s["bytes"] for s in parses),
        "formats.self_s": total("self_s", prefix="formats."),
        "cli.self_s": total("self_s", prefix="cli."),
    }
