"""Spans around cjde's public functions, patched in from outside the package.

`Tracer.install` replaces each traced function or method by a wrapper, in
the module or class that defines it and in every cjde module that imported
it by name.  A span is (name, start, end, parent); spans are kept in flat
arrays in memory and written out once, when the benchmark asks for it.
Self time is a span's duration minus the time of its child spans; inclusive
time counts only the outermost span of a name, so recursion is not counted
twice.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import sys
import time
from array import array
from typing import Dict, List, Tuple

# (module, attribute in the module, span name); a method is "Class.method".
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("gca", "Poly.__mul__", "gca.Poly.mul"),
    ("gca", "Poly.__rmul__", "gca.Poly.mul"),
    ("gca", "Poly.__add__", "gca.Poly.add"),
    ("gca", "Poly.partial", "gca.Poly.partial"),
    ("gca", "Poly.substitute", "gca.Poly.substitute"),
    ("gca", "Algebra.mul_monomials", "gca.Algebra.mul_monomials"),
    ("contact", "jacobi_bracket", "contact.jacobi_bracket"),
    ("contact", "project_P", "contact.project_P"),
    ("contact", "legendre_pullback", "contact.legendre_pullback"),
    ("cjalg", "build_theta", "cjalg.build_theta"),
    ("cjalg", "check_cj_axioms", "cjalg.check_cj_axioms"),
    ("cjalg", "derived_bracket_sections", "cjalg.derived_bracket_sections"),
    ("cjalg", "courant_tensor", "cjalg.courant_tensor"),
    ("cjalg", "m2_closed", "cjalg.m2_closed"),
    ("cjalg", "m3_closed", "cjalg.m3_closed"),
    ("cjalg", "mc_residual_form", "cjalg.mc_residual_form"),
    ("cjalg", "change_complement", "cjalg.change_complement"),
    ("vdata", "validate", "vdata.validate"),
    ("linfty", "TaylorCoderivation.coefficient", "linfty.coefficient"),
    ("linfty", "TaylorMorphism.coefficient", "linfty.coefficient"),
    ("linfty", "TaylorCoderivation.apply_word", "linfty.TaylorCoderivation.apply_word"),
    ("linfty", "TaylorMorphism.apply_word", "linfty.TaylorMorphism.apply_word"),
    ("linfty", "svec_add", "linfty.svec_add"),
    ("linfty", "check_codifferential", "linfty.check_codifferential"),
    ("linfty", "check_morphism", "linfty.check_morphism"),
    ("deform", "rref", "deform.rref"),
    ("deform", "cohomology", "deform.cohomology"),
    ("deform", "kuranishi", "deform.kuranishi"),
    ("deform", "extend_mc", "deform.extend_mc"),
    ("deform", "search_obstructed_instance", "deform.search_obstructed_instance"),
    ("instancefile", "load_instance", "instancefile.load_instance"),
    ("cli", "main", "cli.main"),
)

COEFFICIENT = "linfty.coefficient"


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._active = array("q")
        self._stack: List[int] = []
        self._coeff_keys: set = set()
        self._pinned: Dict[int, object] = {}
        self._patched: List[Tuple[object, str, object]] = []
        self.clear()

    def clear(self) -> None:
        """Forget the recorded spans; the wrappers stay installed."""
        self.span_name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")
        self._coeff_keys.clear()
        self._pinned.clear()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.outer.append(self._active[nid] == 0)
        self._active[nid] += 1
        self._stack.append(idx)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, nid: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._active[nid] -= 1

    @contextlib.contextmanager
    def span(self, name: str):
        nid = self._id(name)
        idx = self._open(nid)
        try:
            yield
        finally:
            self._close(idx, nid)

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        open_, close = self._open, self._close

        if name == COEFFICIENT:
            keys, pinned = self._coeff_keys, self._pinned

            @functools.wraps(fn)
            def wrapper(obj, k, word):
                # the structure map stays referenced, so its id is not reused
                pinned[id(obj)] = obj
                keys.add((id(obj), k, word))
                idx = open_(nid)
                try:
                    return fn(obj, k, word)
                finally:
                    close(idx, nid)
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx, nid)
        return wrapper

    def install(self) -> None:
        """Patch every target; cjde must be imported already."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name.startswith("cjde.") and mod is not None}
        for modname, attr, span_name in TARGETS:
            owner = modules[f"cjde.{modname}"]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            wrapped = self._wrap(span_name, original)
            targets = [(owner, leaf)]
            if not path:
                targets += [(mod, key) for mod in modules.values()
                            for key, value in vars(mod).items() if value is original]
            for obj, key in targets:
                self._patched.append((obj, key, original))
                setattr(obj, key, wrapped)

    def uninstall(self) -> None:
        """Put every patched attribute back."""
        while self._patched:
            obj, key, original = self._patched.pop()
            setattr(obj, key, original)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, self_s and incl_s over the recorded spans."""
        count = len(self.span_name)
        child = array("d", bytes(8 * count))
        for i in range(count - 1, -1, -1):   # children come after their parent
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "self_s": 0.0, "incl_s": 0.0} for name in self.names}
        for i in range(count):
            rec = out[self.names[self.span_name[i]]]
            dur = self.end[i] - self.start[i]
            rec["calls"] += 1
            rec["self_s"] += dur - child[i]
            if self.outer[i]:
                rec["incl_s"] += dur
        coeff = out.setdefault(COEFFICIENT, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        coeff["distinct_ratio"] = len(self._coeff_keys) / coeff["calls"] if coeff["calls"] else 0.0
        return out

    def write(self, path: str) -> None:
        """The recorded spans as gzip'd tab-separated lines: index name start end parent."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\n")
            for i in range(len(self.span_name)):
                fh.write(f"{i}\t{self.names[self.span_name[i]]}\t{self.start[i] - t0:.7f}\t"
                         f"{self.end[i] - t0:.7f}\t{self.parent[i]}\n")
