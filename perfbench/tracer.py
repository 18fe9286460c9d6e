"""Span tracer that wraps periodica's public API from outside the package.

``Tracer.install()`` replaces every public module-level function and every
public method of the classes each ``periodica`` module defines with a timing
wrapper, and re-binds each wrapped function in every ``periodica.*``
namespace that imported it (``hom_space`` in ``stablecat``, ``derivedper``,
``percomplex`` ...).  The four elimination kernels behind ``linalg`` are
wrapped on the backend module that ``linalg`` calls through.  No file of the
package changes.

Spans stay in memory as flat arrays (name, job, parent, start, end) and are
written by :meth:`Tracer.dump`.  Self time (a span's duration minus the time
its direct children cover) is accumulated as spans close, so
:meth:`Tracer.layer_metrics` needs no second pass.

A handful of leaf helpers run 10^5 to 10^6 times per job list for a
microsecond or two each (scalar arithmetic, element access, matrix
constructors, elementwise matrix and morphism arithmetic).  They get no span,
so their time counts toward the span that called them; ``Field.coerce`` is
counted without a span.
"""

from __future__ import annotations

import array
import functools
import gzip
import importlib
import json
import pkgutil
import sys
import types

# periodica module -> layer; the CLI, file formats and reports form one layer
LAYER_OF_MODULE = {
    "linalg": "linalg", "fields": "fields", "quiver": "quiver",
    "families": "families", "rep": "rep", "percomplex": "percomplex",
    "derivedper": "derivedper", "hochschild": "hochschild",
    "stablecat": "stablecat", "cli": "io", "formats": "io", "reports": "io",
    "randomcx": "randomcx", "reproduce": "reproduce",
}
LAYERS = sorted(set(LAYER_OF_MODULE.values()))
KERNELS = ("fp_rref", "q_rref", "fp_matmul", "q_matmul")

# Methods that keep their span although they are not public.
TRACED_DUNDERS = ("__init__", "__matmul__")

# Leaf helpers left without a span (see the module docstring).
UNTRACED = {
    "fields.Field.zero", "fields.Field.one", "fields.Field.coerce",
    "fields.Field.add", "fields.Field.sub", "fields.Field.mul",
    "fields.Field.neg", "fields.Field.inv", "fields.Field.div",
    "fields.Field.is_zero", "fields.Field.sign_pow", "fields.Field.to_str",
    "linalg.Mat.__init__", "linalg.Mat.from_rows", "linalg.Mat.zeros",
    "linalg.Mat.identity", "linalg.Mat.column", "linalg.Mat.get",
    "linalg.Mat.row_list", "linalg.Mat.col_list", "linalg.Mat.tolist",
    "linalg.Mat.is_zero", "linalg.Mat.scale", "linalg.Mat.transpose",
    "linalg.Mat.hstack", "linalg.Mat.vstack", "linalg.Mat.block",
    "linalg.Mat.take_cols",
    "quiver.Arrow.*", "quiver.Quiver.*", "quiver.FinDimAlgebra.e",
    "quiver.FinDimAlgebra.mult", "quiver.FinDimAlgebra.reduce_walk",
    "quiver.FinDimAlgebra.mult_vectors", "quiver.FinDimAlgebra.__init__",
    "rep.Rep.__init__", "rep.Rep.zero", "rep.Rep.dim_at", "rep.Rep.is_zero",
    "rep.Rep.rho", "rep.Rep.rho_basis",
    "rep.Morphism.__init__", "rep.Morphism.zero", "rep.Morphism.identity",
    "rep.Morphism.__matmul__", "rep.Morphism.scale", "rep.Morphism.is_zero",
    "rep.Morphism.flatten", "rep.pow_scalar",
    "percomplex.PeriodicComplex.*", "percomplex.BoundedComplex.*",
    "percomplex.GradedMorphism.*", "percomplex.HomPiece.*",
    "percomplex.PeriodicHomComplex.piece",
    "percomplex.BoundedHomComplex.piece",
}


def _untraced(qualname: str) -> bool:
    owner = qualname.rsplit(".", 1)[0]
    return qualname in UNTRACED or owner + ".*" in UNTRACED


class Tracer:
    """Wraps periodica once; spans are tagged with the current ``job`` and
    timed with ``clock``."""

    def __init__(self, clock):
        self.clock = clock
        self.job = -1                    # -1 while the inputs are built
        self.names = []                  # span name id -> qualified name
        self.layer_of = []               # span name id -> layer
        self.span_name = array.array("i")
        self.span_job = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.calls = []                  # per name id
        self.self_s = []
        self.total_s = []                # outermost calls only
        self._depth = []
        self._stack = []                 # [span index, time in child spans]
        self.counts = {"fields.coerce_calls": 0, "linalg.rref_cache_hits": 0,
                       "linalg.rref_cells": 0, "rep.find_iso_found": 0,
                       "quiver.algebra_dim_max": 0}

    # -- wrapping ---------------------------------------------------------------

    def _name_id(self, qualname: str, layer: str) -> int:
        self.names.append(qualname)
        self.layer_of.append(layer)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.total_s.append(0.0)
        self._depth.append(0)
        return len(self.names) - 1

    def _wrap(self, fn, qualname: str, layer: str):
        before, after = self._hooks(qualname)
        nid = self._name_id(qualname, layer)
        clock = self.clock
        stack = self._stack
        names, jobs = self.span_name, self.span_job
        parents, starts, ends = self.span_parent, self.span_start, self.span_end
        calls, self_s, total_s, depth = (self.calls, self.self_s,
                                         self.total_s, self._depth)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(starts)
            names.append(nid)
            jobs.append(self.job)
            parents.append(stack[-1][0] if stack else -1)
            ends.append(0.0)
            depth[nid] += 1
            frame = [idx, 0.0]
            stack.append(frame)
            start = clock()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                ends[idx] = end
                dur = end - start
                calls[nid] += 1
                self_s[nid] += dur - frame[1]
                depth[nid] -= 1
                if not depth[nid]:
                    total_s[nid] += dur
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(args, result)
            return result
        return traced

    def _hooks(self, qualname: str):
        counts = self.counts

        def rref_hit(args):
            if args[0]._rref is not None:
                counts["linalg.rref_cache_hits"] += 1

        def cells(args):
            counts["linalg.rref_cells"] += args[1] * args[2]

        def dim_max(args, alg):
            counts["quiver.algebra_dim_max"] = max(
                counts["quiver.algebra_dim_max"], alg.dim)

        def found(args, iso):
            if iso is not None:
                counts["rep.find_iso_found"] += 1

        return {
            "linalg.Mat.rref": (rref_hit, None),
            "linalg.kernel.fp_rref": (cells, None),
            "linalg.kernel.q_rref": (cells, None),
            "quiver.build_algebra": (None, dim_max),
            "rep.find_iso": (None, found),
        }.get(qualname, (None, None))

    def _wrap_class(self, cls, short: str, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in TRACED_DUNDERS:
                continue
            qualname = f"{short}.{cls.__name__}.{attr}"
            if _untraced(qualname):
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, qualname, layer))
            elif isinstance(raw, types.FunctionType):
                wrapped = self._wrap(raw, qualname, layer)
            else:                        # properties and plain attributes
                continue
            setattr(cls, attr, wrapped)

    def install(self) -> None:
        """Import every periodica module and wrap it in place."""
        import periodica
        from periodica import fields, linalg

        for info in pkgutil.iter_modules(periodica.__path__):
            if info.name in LAYER_OF_MODULE:
                importlib.import_module(f"periodica.{info.name}")
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "periodica" or name.startswith("periodica.")}
        replaced = {}                    # id(original function) -> wrapper
        for full, mod in modules.items():
            short = full.rpartition(".")[2]
            layer = LAYER_OF_MODULE.get(short)
            if layer is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != full:
                    continue
                qualname = f"{short}.{attr}"
                if isinstance(obj, type):
                    self._wrap_class(obj, short, layer)
                elif isinstance(obj, types.FunctionType) and not _untraced(qualname):
                    replaced[id(obj)] = self._wrap(obj, qualname, layer)
        for mod in modules.values():     # re-bind imported names everywhere
            for attr, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

        impl = linalg._impl              # the backend linalg calls through
        for name in KERNELS:
            setattr(impl, name, self._wrap(
                getattr(impl, name), f"linalg.kernel.{name}", "linalg"))

        coerce = fields.Field.coerce
        counts = self.counts

        def counted_coerce(field, x):
            counts["fields.coerce_calls"] += 1
            return coerce(field, x)
        fields.Field.coerce = counted_coerce

    # -- results ---------------------------------------------------------------

    def _stat(self, table, qualname: str):
        try:
            return table[self.names.index(qualname)]
        except ValueError:               # the name was never wrapped
            return 0

    def layer_metrics(self, traced_wall_s: float) -> dict:
        """Per-layer metrics; ``traced_wall_s`` is the traced time that the
        spans can cover (building the inputs plus running the jobs)."""
        layer_self = {layer: 0.0 for layer in LAYERS}
        for nid, layer in enumerate(self.layer_of):
            layer_self[layer] += self.self_s[nid]
        calls = functools.partial(self._stat, self.calls)
        self_s = functools.partial(self._stat, self.self_s)
        total = functools.partial(self._stat, self.total_s)
        counts = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        hom_complex = calls("percomplex.hom_complex")

        out = {f"{layer}.self_s": t for layer, t in layer_self.items()}
        out.update({
            "unattributed_s": traced_wall_s - sum(layer_self.values()),
            "linalg.rref_calls": calls("linalg.Mat.rref"),
            "linalg.rref_cache_hit_ratio": ratio(
                counts["linalg.rref_cache_hits"], calls("linalg.Mat.rref")),
            "linalg.rref_q_s": total("linalg.kernel.q_rref"),
            "linalg.rref_fp_s": total("linalg.kernel.fp_rref"),
            "linalg.rref_cells": counts["linalg.rref_cells"],
            "linalg.matmul_calls": calls("linalg.Mat.__matmul__"),
            "linalg.matmul_s": total("linalg.Mat.__matmul__"),
            "fields.coerce_calls": counts["fields.coerce_calls"],
            "quiver.build_algebra_calls": calls("quiver.build_algebra"),
            "quiver.build_algebra_self_s": self_s("quiver.build_algebra"),
            "quiver.validate_s": total("quiver.FinDimAlgebra.validate"),
            "quiver.algebra_dim_max": counts["quiver.algebra_dim_max"],
            "families.enveloping_calls": calls("families.enveloping"),
            "families.enveloping_s": total("families.enveloping"),
            "rep.hom_space_calls": calls("rep.hom_space"),
            "rep.hom_space_self_s": self_s("rep.hom_space"),
            "rep.find_iso_calls": calls("rep.find_iso"),
            "rep.find_iso_self_s": self_s("rep.find_iso"),
            "rep.find_iso_hit_ratio": ratio(counts["rep.find_iso_found"],
                                            calls("rep.find_iso")),
            "rep.projective_cover_self_s": self_s("rep.projective_cover"),
            "rep.minimal_resolution_s": total("rep.minimal_resolution"),
            "percomplex.homotopy_hom_calls": calls("percomplex.homotopy_hom"),
            "percomplex.homotopy_hom_self_s": self_s("percomplex.homotopy_hom"),
            "percomplex.fold_self_s": self_s("percomplex.fold"),
            "percomplex.hom_complex_hit_ratio": ratio(
                hom_complex - calls("percomplex.PeriodicHomComplex.__init__"),
                hom_complex),
            "derivedper.replacement_calls":
                calls("derivedper.DerivedContext.replacement"),
            "derivedper.replacement_self_s":
                self_s("derivedper.DerivedContext.replacement"),
            "hochschild.bimodule_resolution_s":
                total("hochschild.bimodule_resolution"),
            "hochschild.hh_graded_calls":
                calls("hochschild.LaurentSetup.hh_graded"),
            "stablecat.stable_hom_calls":
                calls("stablecat.StableContext.stable_hom"),
            "stablecat.stable_hom_self_s":
                self_s("stablecat.StableContext.stable_hom"),
            "stablecat.algebra_period_s": total("stablecat.algebra_period"),
        })
        return out

    def dump(self, path: str) -> None:
        """Write every span to a gzip file: one JSON header line naming the
        columns, then each column's raw ``array`` bytes in that order (read
        back with ``array(typecode).frombytes``).  ``job`` is -1 while the
        inputs are built; ``parent`` is a span index or -1."""
        cols = {"name": self.span_name, "job": self.span_job,
                "parent": self.span_parent, "start": self.span_start,
                "end": self.span_end}
        header = {"names": self.names, "layers": self.layer_of,
                  "spans": len(self.span_start),
                  "columns": [[key, col.typecode, col.itemsize]
                              for key, col in cols.items()]}
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col in cols.values():
                fh.write(col.tobytes())
