"""Per-layer timing from outside the program.

Tracer.install() replaces each target function with a timing wrapper in
every orediamond module that holds it, because the modules import each
other's functions by name (``from .poly import gcd``), and replaces the
BiPoly/MPoly operator methods on the class, including aliases such as
``__radd__ = __add__``.  uninstall() puts the originals back.

Per layer it keeps: ``s`` inclusive seconds of the outermost calls,
``self_s`` seconds not spent in another wrapped call, ``calls`` entries
from outside the layer, and named counts that observers derive from the
arguments and results.  Spans close in a ``finally``, so a deadline that
interrupts a query leaves the books balanced.  A target that no longer
exists is listed in ``absent`` instead of failing the run.
"""

import functools
import importlib
import sys
import time


def _nilpotency(counts, args, result):
    counts["undecided"] += result.status == "unknown"


def _report(counts, args, result):
    counts["incomplete"] += not result.complete_up_to_bound
    counts["certs"] += len(result.certs)
    counts["pencils"] += len(result.pencils)


def _members(counts, args, result):
    counts["all"] += result.kind == "all"


def _factor(counts, args, result):
    counts["uncertified"] += not result.certified


def _hit(counts, args, result):
    counts["hits"] += result is not None


def _term_products(counts, args, result):
    a, b = args[0], args[1]
    counts["term_products"] += len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)


# layer, module, attribute ("Class.method" for methods), observer
TARGETS = (
    ("derivation.nilpotency", "orediamond.derivation", "locally_nilpotent_bounded", _nilpotency),
    ("derivation.shamsuddin", "orediamond.derivation", "shamsuddin_analyze", None),
    ("diamond.decide", "orediamond.diamond", "decide", None),
    ("diamond.audit", "orediamond.diamond", "singular_darboux_audit", None),
    ("darboux.search", "orediamond.darboux", "darboux_search", _report),
    ("darboux.members_through", "orediamond.darboux", "pencil_members_through", _members),
    ("multipoly.resultant", "orediamond.multipoly", "mpoly_resultant", None),
    ("multipoly.exact_divide", "orediamond.multipoly", "mpoly_exact_divide", None),
    ("linalg", "orediamond.linalg", "rref", None),
    ("linalg", "orediamond.linalg", "solve", None),
    ("linalg", "orediamond.linalg", "nullspace", None),
    ("poly.rational_roots", "orediamond.poly", "rational_roots", None),
    ("unifactor.factor", "orediamond.unifactor", "factor_univariate", _factor),
    ("groebner.buchberger", "orediamond.groebner", "buchberger", None),
    ("groebner.normal_form", "orediamond.groebner", "normal_form", None),
    ("poly.gcd", "orediamond.poly", "gcd", None),
    ("poly.exact_divide", "orediamond.poly", "exact_divide", _hit),
    ("poly.BiPoly.mul", "orediamond.poly", "BiPoly.__mul__", _term_products),
    ("poly.BiPoly.add", "orediamond.poly", "BiPoly.__add__", None),
    ("poly.BiPoly.add", "orediamond.poly", "BiPoly.__sub__", None),
    ("multipoly.MPoly.mul", "orediamond.multipoly", "MPoly.__mul__", _term_products),
    ("multipoly.MPoly.add", "orediamond.multipoly", "MPoly.__add__", None),
    ("multipoly.MPoly.add", "orediamond.multipoly", "MPoly.__sub__", None),
    ("ore.mul", "orediamond.ore", "mul", None),
    ("ore.witness", "orediamond.ore", "essential_witness", None),
    ("parse", "orediamond.parse", "parse_derivation", None),
    ("parse", "orediamond.parse", "parse_ore", None),
    ("parse", "orediamond.parse", "parse_polynomial", None),
    ("cli.run_command", "orediamond.cli", "run_command", None),
)


class _Counts(dict):
    def __missing__(self, key):
        return 0


class LayerStats:
    __slots__ = ("s", "self_s", "calls", "depth", "counts")

    def __init__(self):
        self.s = 0.0
        self.self_s = 0.0
        self.calls = 0
        self.depth = 0
        self.counts = _Counts()

    def snapshot(self):
        return {"s": self.s, "self_s": self.self_s, "calls": self.calls, **self.counts}


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.layers = {}
        self.absent = []
        self._stack = []
        self._patches = []  # (owner, name, original)

    def layer(self, name):
        return self.layers.setdefault(name, LayerStats())

    def snapshot(self):
        return {name: stats.snapshot() for name, stats in self.layers.items()}

    def _wrap(self, stats, fn, observe):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = stats.depth == 0
            if outer:
                stats.calls += 1
            stats.depth += 1
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - frame[0]
                stack.pop()
                stats.depth -= 1
                stats.self_s += elapsed - frame[1]
                if outer:
                    stats.s += elapsed
                if stack:
                    stack[-1][1] += elapsed
            if observe is not None:
                observe(stats.counts, args, result)
            return result

        return traced

    @staticmethod
    def _modules():
        return [m for name, m in list(sys.modules.items()) if name == "orediamond" or name.startswith("orediamond.")]

    def install(self):
        for layer, module_name, attr, observe in self.targets:
            stats = self.layer(layer)
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{attr}")
                continue
            cls_name, _, method = attr.rpartition(".")
            owner = getattr(module, cls_name, None) if cls_name else None
            original = getattr(owner if cls_name else module, method, None)
            if original is None or (cls_name and owner is None):
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(stats, original, observe)
            owners = [owner] if cls_name else self._modules()
            for holder in owners:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, name, wrapper)
                        self._patches.append((holder, name, original))

    def uninstall(self):
        for holder, name, original in reversed(self._patches):
            setattr(holder, name, original)
        self._patches.clear()
