"""Per-layer tracing of crsphere from outside the program.

``Tracer.install`` replaces each public callable named in ``LAYERS`` with
a wrapper that records one span per call: an id, the id of the enclosing
traced call, the request id, the callable's name, and start and end
times.  Self time is a span's duration minus the part its child spans
cover.  Spans are kept in memory and written out by ``write_spans`` when
the run ends.

A callable is rebound everywhere it is reachable: on its module or class,
in every crsphere module that imported it by name (``variation`` takes
``field_apply`` from ``frames``, ``spectral`` takes ``norm2`` from
``ring``), in module-level dispatch tables (``verify._RUNNERS``), and on
operator aliases bound at class creation (``__rmul__ = __mul__``).
``missed_references`` lists any place still holding an original.

Counts are taken at the same boundaries:

* ``ring.mul.term_pairs``: sum of |a|*|b| over polynomial products;
* ``ring.mul.terms_out``: terms in those products' results;
* ``variation.symmetry_checks_per_tensor``: ``validate_symmetry`` calls
  per distinct deformation tensor checked;
* ``oracle3.solves_per_input``: ``solve_structure`` calls per distinct
  deformation coefficient a request passes to ``deform_frame``.

Spans and counts are recorded only while ``active`` is set, so the
benchmark's own checks and warm-up are left out.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array

LAYERS = {
    "ring": ("SpherePoly.__mul__", "SpherePoly.__add__",
             "SpherePoly.integral", "SpherePoly.conjugate",
             "SpherePoly.to_grammar", "TSeries2.__mul__",
             "TSeries2.fractional_power", "parse_poly", "norm2"),
    "spectral": ("harmonic_decompose", "sublaplacian", "sublaplacian_energy",
                 "dirichlet_energy"),
    "frames": ("TensorField.lowered_form", "field_apply", "form_eval",
               "levi_pairing", "sharp_pairing", "bracket", "covariant_T",
               "covariant_Z", "tight_expand"),
    "variation": ("validate_symmetry", "j_hessian", "j_hessian_via_T",
                  "conformal_hessian", "yamabe_energy_series",
                  "DeformationTensor.from_tensor"),
    "oracle3": ("deform_frame", "solve_structure", "check_first_variation",
                "check_torsion_variation", "check_connection_variation",
                "second_derivative_check", "mode_weighted_norm"),
    "verify": ("run_ring_suite", "run_spectral_suite", "run_frames_suite",
               "run_variation_suite", "run_oracle3_suite", "monomial_pool",
               "Report.to_text"),
    "cli": ("parse_deformation_file", "main"),
}

CALLABLES = tuple(f"{layer}.{qual}" for layer, quals in LAYERS.items()
                  for qual in quals)

COUNTS = ("ring.mul.term_pairs", "ring.mul.terms_out",
          "ring.mul.pairs_per_term_out",
          "variation.symmetry_checks_per_tensor", "oracle3.solves_per_input")
_RATIOS = COUNTS[2:]

_MISSING = object()


def metric_unit(name: str) -> str:
    """Unit of a per-layer metric: seconds, a ratio, or a count."""
    if name.endswith("_s"):
        return "s"
    return "ratio" if name in _RATIOS else "count"


class Tracer:
    """Spans and counters for one traced run."""

    def __init__(self):
        self.active = False
        self.request = 0
        self._next_id = 0
        self._stack: list[list] = []      # [span id, time in child spans]
        self.calls = [0] * len(CALLABLES)
        self.self_s = [0.0] * len(CALLABLES)
        # one entry per span, in the order spans end
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_request = array("q")
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.term_pairs = 0
        self.terms_out = 0
        # strong references keep ids unique for the life of the run
        self.tensors: dict[int, object] = {}
        self.oracle_inputs: set = set()
        self._originals: dict[int, object] = {}

    # -- wrapping ------------------------------------------------------
    def _wrap(self, index: int, fn, hook=None):
        tracer = self
        stack = self._stack
        clock = time.perf_counter
        calls, self_s = self.calls, self.self_s
        ids, parents, requests = self.span_id, self.span_parent, self.span_request
        names, starts, ends = self.span_name, self.span_start, self.span_end

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(tracer, args, result)
                return result
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                calls[index] += 1
                self_s[index] += dur - frame[1]
                ids.append(sid)
                parents.append(parent)
                requests.append(tracer.request)
                names.append(index)
                starts.append(t0)
                ends.append(t1)

        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every callable in ``LAYERS`` and rebind each reference."""
        replace: dict[int, object] = {}
        for index, name in enumerate(CALLABLES):
            layer, qual = name.split(".", 1)
            owner = importlib.import_module(f"crsphere.{layer}")
            *path, attr = qual.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = owner.__dict__[attr]
            if isinstance(fn, staticmethod):
                fn = fn.__func__
            replace[id(fn)] = self._wrap(index, fn, _HOOKS.get(name))
            self._originals[id(fn)] = fn

        def swap(value):
            if isinstance(value, staticmethod):
                new = swap(value.__func__)
                return None if new is None else staticmethod(new)
            return replace[id(value)] if self._is_original(value) else None

        for container, key, value in _references():
            new = swap(value)
            if new is not None:
                if isinstance(container, dict):
                    container[key] = new
                else:
                    setattr(container, key, new)

    def _is_original(self, value) -> bool:
        return self._originals.get(id(value), _MISSING) is value

    def missed_references(self) -> list[str]:
        """Places in crsphere that still hold an unwrapped original."""
        missed = []
        for container, key, value in _references():
            if isinstance(value, staticmethod):
                value = value.__func__
            if self._is_original(value):
                missed.append(f"{getattr(container, '__name__', 'dict')}.{key}")
        return missed

    # -- results -------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """calls and self_s per callable, self_s per layer, and counts."""
        out: dict[str, float] = {}
        layer_s: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        for i, name in enumerate(CALLABLES):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.self_s"] = self.self_s[i]
            layer_s[name.split(".", 1)[0]] += self.self_s[i]
        for layer, s in layer_s.items():
            out[f"{layer}.self_s"] = s
        checks = self.calls[CALLABLES.index("variation.validate_symmetry")]
        solves = self.calls[CALLABLES.index("oracle3.solve_structure")]
        out["ring.mul.term_pairs"] = self.term_pairs
        out["ring.mul.terms_out"] = self.terms_out
        out["ring.mul.pairs_per_term_out"] = _ratio(self.term_pairs,
                                                    self.terms_out)
        out["variation.symmetry_checks_per_tensor"] = _ratio(
            checks, len(self.tensors))
        out["oracle3.solves_per_input"] = _ratio(solves,
                                                 len(self.oracle_inputs))
        return out

    def write_spans(self, path: str) -> None:
        """Write every span as a gzipped tab-separated line."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\trequest\tname\tstart_s\tend_s\n")
            for i in range(len(self.span_id)):
                fh.write(f"{self.span_id[i]}\t{self.span_parent[i]}\t"
                         f"{self.span_request[i]}\t"
                         f"{CALLABLES[self.span_name[i]]}\t"
                         f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _references():
    """(container, key, value) for every module global, class attribute
    and module-level dict entry in the loaded crsphere modules."""
    seen: set[int] = set()
    for modname, mod in list(sys.modules.items()):
        if modname != "crsphere" and not modname.startswith("crsphere."):
            continue
        for key, value in list(vars(mod).items()):
            yield mod, key, value
            if isinstance(value, dict) and id(value) not in seen:
                seen.add(id(value))
                for k, v in list(value.items()):
                    yield value, k, v
            if isinstance(value, type) and id(value) not in seen and \
                    value.__module__.startswith("crsphere"):
                seen.add(id(value))
                for k, v in list(vars(value).items()):
                    yield value, k, v


# -- counters taken at the span boundaries -----------------------------------

def _count_mul(tracer: Tracer, args, result) -> None:
    a, b = args
    if type(b) is type(a):          # poly * poly, not poly * scalar
        tracer.term_pairs += len(a.terms) * len(b.terms)
        tracer.terms_out += len(result.terms)


def _count_tensor(tracer: Tracer, args, result) -> None:
    tracer.tensors[id(args[0])] = args[0]


def _count_oracle_input(tracer: Tracer, args, result) -> None:
    tracer.oracle_inputs.add((tracer.request, args[0]))


_HOOKS = {
    "ring.SpherePoly.__mul__": _count_mul,
    "variation.validate_symmetry": _count_tensor,
    "oracle3.deform_frame": _count_oracle_input,
}
