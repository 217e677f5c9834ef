"""Per-layer tracing, installed from outside the program.

`Tracer.install` replaces every public function of the `cubic_mds`
modules with a timing wrapper, in the defining module and wherever
another module bound the same function with `from .x import y`.  It
also wraps the construction, `conductor`, `is_principal` and
`is_primitive` of `DirichletCharacter`, and the private
`mds._L23_eta` through which every `_L23_CACHE` lookup goes.  Nothing
in the program is edited; without `install` the program runs
untouched.

Spans are aggregated by calling context inside each operation: one
node per path of function names, holding the call count, the total
time and the self time (total minus the time of its child spans).
The nodes stay in memory and `write` puts them out when the run ends.
Work counters are read from the arguments at the same boundaries; the
time spent reading them is charged to no layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("arith", "sqcount", "forms", "euler", "lfunc", "mds", "verify")
PACKAGE = "cubic_mds"

# node layout: [calls, total_s, self_s, children by name, layer]
_CALLS, _TOTAL, _SELF, _CHILDREN, _LAYER = range(5)


def _node(layer: str) -> list:
    return [0, 0.0, 0.0, {}, layer]


def _nonzero_entries(chi) -> int:
    values = chi.values
    return len(values) - values.count(0)


class Tracer:
    def __init__(self) -> None:
        self.self_s = dict.fromkeys(LAYERS + ("bench",), 0.0)
        self.counts: dict[str, float] = {}
        self.ops: list[dict] = []
        self._root = _node("bench")
        # frame layout: [node, child_s]
        self._stack = [[self._root, 0.0]]

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------

    def _add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _wrap(self, fn, name: str, layer: str, hook=None):
        stack = self._stack
        self_s = self.self_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            if hook is not None:
                h0 = clock()
                hook(args, kwargs)
                parent[1] += clock() - h0
            children = parent[0][_CHILDREN]
            node = children.get(name)
            if node is None:
                node = children[name] = _node(layer)
            frame = [node, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                d = clock() - t0
                stack.pop()
                own = d - frame[1]
                node[_CALLS] += 1
                node[_TOTAL] += d
                node[_SELF] += own
                self_s[layer] += own
                parent[1] += d

        return functools.wraps(fn)(traced)

    def _wrap_generator(self, fn, name: str, layer: str):
        """Time each resumption of a generator; count what it yields."""
        step = self._wrap(next, name, layer)
        add = self._add
        sentinel = object()

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                item = step(it, sentinel)
                if item is sentinel:
                    return
                add(name + ".yielded", 1)
                yield item

        return functools.wraps(fn)(traced)

    def operation(self, label: str, layer: str, call):
        """Run `call()` as one operation span and keep its subtree."""
        op = self._wrap(call, label, layer)
        t0 = time.time()
        try:
            return op()
        finally:
            node = self._root[_CHILDREN].pop(label)
            self.ops.append({"op": label, "start": t0, "end": time.time(),
                             "span": _export(label, node)})

    # ------------------------------------------------------------------
    # counters read at the boundaries
    # ------------------------------------------------------------------

    def _hook_sieve(self, args, kwargs) -> None:
        m_cutoff = args[1] if len(args) > 1 else kwargs["m_cutoff"]
        self._add("sqcount.coefficient_sieve.terms", m_cutoff)

    def _hook_character(self, args, kwargs) -> None:
        modulus = args[1] if len(args) > 1 else kwargs["modulus"]
        self._add("lfunc.characters_built", 1)
        self._add("lfunc.table_entries", modulus)

    def _hook_conductor(self, args, kwargs) -> None:
        if args[0]._conductor is None:
            self._add("lfunc.conductor_scans", 1)

    def _hook_dirichlet_L(self, args, kwargs) -> None:
        chi = args[0] if args else kwargs["chi"]
        self._add("lfunc.hurwitz_points", _nonzero_entries(chi))

    def _hook_hurwitz(self, args, kwargs) -> None:
        self._add("lfunc.hurwitz_points", 1)

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}")
                   for layer in LAYERS}
        hooks = {
            "sqcount.coefficient_sieve": self._hook_sieve,
            "lfunc.dirichlet_L": self._hook_dirichlet_L,
            "lfunc.hurwitz_zeta": self._hook_hurwitz,
        }
        replaced = {}
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                if inspect.isgeneratorfunction(fn):
                    replaced[fn] = self._wrap_generator(fn, name, layer)
                else:
                    replaced[fn] = self._wrap(fn, name, layer, hooks.get(name))
        # Every lookup of `_L23_CACHE` goes through this private
        # function; a miss is its nested call to `L_removed_23`.
        l23 = modules["mds"]._L23_eta
        replaced[l23] = self._wrap(l23, "mds._L23_eta", "mds")
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                try:
                    wrapper = replaced.get(value)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapper is not None:
                    setattr(module, attr, wrapper)

        cls = modules["lfunc"].DirichletCharacter
        cls.__init__ = self._wrap(cls.__init__, "lfunc.DirichletCharacter",
                                  "lfunc", self._hook_character)
        for prop, hook in (("conductor", self._hook_conductor),
                           ("is_principal", None), ("is_primitive", None)):
            getter = getattr(cls, prop).fget
            setattr(cls, prop, property(self._wrap(
                getter, f"lfunc.DirichletCharacter.{prop}", "lfunc", hook)))

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def calls(self, name: str) -> int:
        """Calls of one function over every operation and context."""
        return sum(_count_calls(op["span"], name) for op in self.ops)

    def nested_calls(self, parent: str, name: str) -> int:
        """Calls of `name` made directly from a span of `parent`."""
        return sum(_count_nested(op["span"], parent, name) for op in self.ops)

    def write(self, path) -> None:
        record = {"self_s": self.self_s, "counts": self.counts, "ops": self.ops}
        with open(path, "w") as fh:
            json.dump(record, fh)


def _package_modules() -> list:
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _export(name: str, node: list) -> dict:
    return {
        "name": name,
        "layer": node[_LAYER],
        "calls": node[_CALLS],
        "total_s": node[_TOTAL],
        "self_s": node[_SELF],
        "children": [_export(k, v) for k, v in node[_CHILDREN].items()],
    }


def _count_calls(span: dict, name: str) -> int:
    own = span["calls"] if span["name"] == name else 0
    return own + sum(_count_calls(c, name) for c in span["children"])


def _count_nested(span: dict, parent: str, name: str) -> int:
    own = 0
    if span["name"] == parent:
        own = sum(c["calls"] for c in span["children"] if c["name"] == name)
    return own + sum(_count_nested(c, parent, name) for c in span["children"])


# ======================================================================
# per-layer metrics of one traced run
# ======================================================================

CRITERIA = range(1, 11)


def per_layer_metrics(tracer: Tracer, labels: list[str], op_s: list[float]) -> dict:
    """The per-layer metrics named in BENCHMARK.json.

    `verify.criterion_NN.s` is the traced wall time of that criterion
    (0 outside the `acceptance` workload); the hit ratio of `_L23_CACHE`
    is 0 when no lookup was made, and `mds.l23_cache.lookups` (the calls
    of `mds._L23_eta`) gives its base.
    """
    lookups = tracer.calls("mds._L23_eta")
    misses = tracer.nested_calls("mds._L23_eta", "lfunc.L_removed_23")
    metrics = {f"{layer}.self_s": tracer.self_s[layer]
               for layer in ("sqcount", "euler", "lfunc", "forms", "arith", "mds")}
    for name in ("sqcount.coefficient_sieve", "sqcount.count_roots",
                 "euler.local_factor_closed", "euler.local_factor_oracle",
                 "lfunc.dirichlet_L", "lfunc.L_squarefree_restricted",
                 "forms.count_forms", "arith.kronecker", "arith.factorize",
                 "mds.Z_n_oracle"):
        metrics[name + ".calls"] = tracer.calls(name)
    for name in ("sqcount.coefficient_sieve.terms", "lfunc.characters_built",
                 "lfunc.table_entries", "lfunc.conductor_scans",
                 "lfunc.hurwitz_points"):
        metrics[name] = tracer.counts.get(name, 0)
    metrics["forms.representatives"] = tracer.counts.get(
        "forms.enumerate_representatives.yielded", 0)
    metrics["mds.l23_cache.lookups"] = lookups
    metrics["mds.l23_cache.hit_ratio"] = (lookups - misses) / lookups if lookups else 0.0
    by_label = dict(zip(labels, op_s))
    for k in CRITERIA:
        metrics[f"verify.criterion_{k:02d}.s"] = by_label.get(f"criterion_{k:02d}", 0.0)
    return metrics
