"""Per-layer spans recorded from outside the library by wrapping its functions.

``Tracer.install()`` replaces each traced function with a wrapper in every
``cyclogab`` module that binds it, so names imported with ``from ... import``
are counted too; it fails loudly when a traced name is missing.  Layer
functions get one span per call (name, start, end, parent).  Field operations
are far too frequent for that, so their call counts and self time are summed
into the innermost open span instead.  Spans stay in memory until
``write()``; ``layer_metrics()`` derives the per-layer metrics from them.

A span's self time is its duration minus the time covered by its child spans
and by the field operations called directly inside it.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time
from pathlib import Path

# (module, attribute, span name); "ExactMatrix.det" is split by matrix size.
SPANS = [
    ("cyclogab.linalg", "ExactMatrix.det", None),
    ("cyclogab.linalg", "ExactMatrix.rank", "linalg.rank"),
    ("cyclogab.linalg", "ExactMatrix.__matmul__", "linalg.matmul"),
    ("cyclogab.linalg", "bordered_minor_row", "linalg.bordered_minor_row"),
    ("cyclogab.supports", "check_condition", "supports.check_condition"),
    ("cyclogab.supports", "required_dimension", "supports.required_dimension"),
    ("cyclogab.supports", "complete_sets", "supports.complete_sets"),
    ("cyclogab.construction", "sample_points", "construction.sample_points"),
    ("cyclogab.construction", "moore_matrix", "construction.moore_matrix"),
    ("cyclogab.construction", "is_independent", "construction.is_independent"),
    ("cyclogab.construction", "construct", "construction.construct"),
    ("cyclogab.construction", "ConstructionResult.from_obj", "construction.result_from_obj"),
    ("cyclogab.certify", "certify_mrd", "certify.certify_mrd"),
    ("cyclogab.certify", "build_subcode", "certify.build_subcode"),
    ("cyclogab.certify", "verify_support", "certify.verify_support"),
    ("cyclogab.gmmds", "oracle_report", "gmmds.oracle_report"),
    ("cyclogab.gmmds", "det_is_nonzero", "gmmds.det_is_nonzero"),
    ("cyclogab.cli", "main", "cli.main"),
]
OPS = {
    "cyclotomic.mul": ("__mul__", "__rmul__"),
    "cyclotomic.addsub": ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__"),
    "cyclotomic.aut": ("aut",),
    "cyclotomic.inverse": ("inverse",),
}
SMALL_DET = 4  # largest matrix size of det_small
CERTIFY_ROOTS = ("certify.certify_mrd", "certify.build_subcode")

_TIMED = [*OPS, "linalg.det_small", "linalg.det_large"] + [name for _, _, name in SPANS if name]
# name -> (unit, better); the order is the order of BENCHMARK.json's per_layer.
LAYER_METRICS: dict[str, tuple[str, str]] = {}
for _name in _TIMED:
    LAYER_METRICS[f"{_name}.calls"] = ("count", "lower")
    LAYER_METRICS[f"{_name}.self_s"] = ("s", "lower")
LAYER_METRICS.update({
    "cyclotomic.generator_coeff_bits_max": ("bits", "lower"),
    "construction.draws": ("count", "lower"),
    "construction.draw_success_ratio": ("ratio", "higher"),
    "certify.checked_minors": ("count", "lower"),
    "certify.minors_per_s": ("1/s", "higher"),
    "cli.bytes_written": ("bytes", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
})

# span record fields
ID, PARENT, NAME, START, END, CHILD, OPSUM, META = range(8)


def _coeff_bits(result) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for e in result.generator.entries for c in e.coeffs), default=0)


def _meta(name: str, value) -> dict | None:
    if name in ("construction.construct", "construction.result_from_obj"):
        return {"ok": True, "bits": _coeff_bits(value)}
    if name == "certify.certify_mrd":
        return {"checked_minors": value.checked_minors}
    if name == "certify.build_subcode":
        return {"checked_minors": value.certificate.checked_minors}
    return None


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        # open frames: [id, parent, name, start, end, child time, ops, meta]
        self._frames: list[list] = [[0, None, "root", time.perf_counter(), None, 0.0, {}, None]]
        self._op_stack: list[float] = []
        self._ids = itertools.count(1)
        self._undo: list[tuple[object, str, object]] = []
        self.bytes_written = 0

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn):
        frames, spans, perf, ids = self._frames, self.spans, time.perf_counter, self._ids
        is_det = name is None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name
            if is_det:
                span = "linalg.det_small" if args[0].rows <= SMALL_DET else "linalg.det_large"
            frame = [next(ids), frames[-1][ID], span, perf(), None, 0.0, {}, None]
            frames.append(frame)
            try:
                value = fn(*args, **kwargs)
                frame[META] = _meta(span, value)
                return value
            finally:
                frame[END] = perf()
                frames.pop()
                frames[-1][CHILD] += frame[END] - frame[START]
                spans.append(frame)
        return wrapper

    def _op(self, name, fn):
        frames, stack, perf = self._frames, self._op_stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args):
            stack.append(0.0)
            start = perf()
            try:
                return fn(*args)
            finally:
                took = perf() - start
                agg = frames[-1][OPSUM].setdefault(name, [0, 0.0])
                agg[0] += 1
                agg[1] += took - stack.pop()
                if stack:
                    stack[-1] += took
                else:
                    frames[-1][CHILD] += took
        return wrapper

    # -- installation ---------------------------------------------------------

    def _replace_everywhere(self, original, wrapped) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "cyclogab" and not modname.startswith("cyclogab."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, key, value))
                    setattr(module, key, wrapped)

    def install(self) -> None:
        """Wrap every traced function; raises when a traced name is missing."""
        from cyclogab import cyclotomic

        for modname, attr, name in SPANS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = vars(cls)[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._span(name, raw.__func__))
                else:
                    wrapped = self._span(name, raw)
                self._undo.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
            else:
                original = getattr(owner, attr)
                self._replace_everywhere(original, self._span(name, original))
        cls = cyclotomic.CycloElement
        for name, methods in OPS.items():
            for meth in methods:
                raw = vars(cls)[meth]
                self._undo.append((cls, meth, raw))
                setattr(cls, meth, self._op(name, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    # -- results --------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals over every recorded span (overhead excluded)."""
        calls = {name: 0 for name in _TIMED}
        self_s = {name: 0.0 for name in _TIMED}
        by_id = {span[ID]: span for span in self.spans}
        bits = draws = successes = minors = 0
        certify_s = 0.0
        for span in self.spans:
            name = span[NAME]
            calls[name] += 1
            self_s[name] += span[END] - span[START] - span[CHILD]
            for op, (n, t) in span[OPSUM].items():
                calls[op] += n
                self_s[op] += t
            meta = span[META] or {}
            if name == "construction.sample_points":
                draws += 1
            if name == "construction.construct" and meta.get("ok"):
                successes += 1
            bits = max(bits, meta.get("bits", 0))
            if name in CERTIFY_ROOTS and not self._under(span, by_id, CERTIFY_ROOTS):
                minors += meta.get("checked_minors", 0)
                certify_s += span[END] - span[START]
            if name == "construction.construct" and self._under(span, by_id, CERTIFY_ROOTS):
                certify_s -= span[END] - span[START]
        for op, (n, t) in self._frames[0][OPSUM].items():
            calls[op] += n
            self_s[op] += t
        out: dict[str, float] = {}
        for name in _TIMED:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out.update({
            "cyclotomic.generator_coeff_bits_max": bits,
            "construction.draws": draws,
            "construction.draw_success_ratio": successes / draws if draws else 0.0,
            "certify.checked_minors": minors,
            "certify.minors_per_s": minors / certify_s if certify_s > 0 else 0.0,
            "cli.bytes_written": self.bytes_written,
        })
        return out

    @staticmethod
    def _under(span, by_id, names) -> bool:
        parent = by_id.get(span[PARENT])
        while parent is not None:
            if parent[NAME] in names:
                return True
            parent = by_id.get(parent[PARENT])
        return False

    def write(self, path: Path, header: dict) -> None:
        """Write the header and one JSON line per span, in completion order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for s in self.spans:
                fh.write(json.dumps({"id": s[ID], "parent": s[PARENT], "name": s[NAME],
                                     "start": s[START], "end": s[END],
                                     "self_s": s[END] - s[START] - s[CHILD],
                                     "ops": s[OPSUM], "meta": s[META]}, sort_keys=True) + "\n")
