"""Outside-in tracer: times the library's layers without editing the library.

``Tracer.install`` replaces every public function of each ``weakapprox``
module (and the three ``StepFunction`` evaluation methods) with a wrapper
that records a span, and rebinds that wrapper under every name any loaded
``weakapprox`` module holds for the function.  ``qnorm_table``, for
example, is reached through ``cf``, ``measure``, ``exponents``, ``cli`` and
the package itself; all five names must point at the one wrapper, or calls
through the missed names escape the trace.  ``uninstall`` puts every
original binding back.

A layer is a module.  A span's self time is its duration minus the
durations of its direct children; since the process runs one thread, spans
nest strictly and the layer self times of a pass add up to the time spent
under the outermost spans.

Counts are derived from return values after the wrapped call returns.  The
time spent deriving them is taken out of the span clock, so the trace
timeline does not charge the tracer's own bookkeeping to the caller.
"""

from __future__ import annotations

import functools
import inspect
import time

#: Modules of the package traced as layers, in pipeline order.
LAYERS = (
    "construct",
    "cf",
    "intmath",
    "measure",
    "exponents",
    "lattice",
    "lemma",
    "bounds",
    "svgplot",
    "cli",
)

#: Methods traced on top of module-level functions: (module, class, method).
METHODS = (
    ("measure", "StepFunction", "value"),
    ("measure", "StepFunction", "left_limit"),
    ("measure", "StepFunction", "piece_index"),
)

_ORIGINAL = "__perfbench_original__"


def decimal_digits(n: int) -> int:
    """Decimal digit count of |n| from its bit length (same rule as the guard)."""
    return int(abs(n).bit_length() * 0.30103) + 1 if n else 1


def prefix_digits(tail) -> int:
    """Digits of the last convergent denominator q_N of a prefix's tail."""
    q_prev, q = 0, 1
    for a in tail:
        q, q_prev = a * q + q_prev, q
    return decimal_digits(q)


def _pair_digits(result) -> int:
    """Largest q_N digits of a construction: one prefix or a pair."""
    prefixes = result if isinstance(result, tuple) else (result,)
    return max(prefix_digits(pq.tail) for pq in prefixes)


def _total(key: str, size):
    def count(counts: dict, result) -> None:
        counts[key] = counts.get(key, 0) + size(result)
    return count


def _maximum(key: str, size):
    def count(counts: dict, result) -> None:
        counts[key] = max(counts.get(key, 0), size(result))
    return count


def _pieces(f) -> int:
    return len(f.breakpoints)


def _samples(estimate) -> int:
    return len(estimate.samples)


#: Count derivations from return values, keyed by traced name.
COUNTERS = {
    "construct.construct_thm1": (_maximum("construct.max_digits", _pair_digits),),
    "construct.construct_thm2": (_maximum("construct.max_digits", _pair_digits),),
    "construct.construct_thm3": (_maximum("construct.max_digits", _pair_digits),),
    "cf.qnorm_table": (_total("cf.rows", len),
                       _maximum("cf.max_digits", lambda rows: decimal_digits(rows[-1].q))),
    "cf.convergents": (_maximum("cf.max_digits", lambda conv: decimal_digits(conv[-1].q)),),
    "intmath.decimal_str": (_total("intmath.decimal_str.digits", len),),
    "measure.psi_step": (_total("measure.pieces", _pieces),),
    "measure.upsilon_step": (_total("measure.pieces", _pieces),),
    "measure.min_step": (_total("measure.pieces", _pieces),),
    "exponents.ordinary_exponent": (_total("exponents.samples", _samples),),
    "exponents.uniform_exponent": (_total("exponents.samples", _samples),),
    "lattice.minimum_profile": (_total("lattice.records", len),),
    "lemma.find_witnesses": (_total("lemma.witnesses", len),),
    "lemma.verify_witness": (_total("lemma.verified", bool),),
}


def public_functions(module) -> list[tuple[str, object]]:
    """(name, function) for each public function defined in ``module`` itself."""
    return [
        (name, obj)
        for name, obj in sorted(vars(module).items())
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    ]


class Tracer:
    """Span recorder over the modules of one loaded ``weakapprox`` package."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int]] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._paused = 0.0
        self._restore: list[tuple[object, str, object]] = []

    # -- install / uninstall -------------------------------------------------

    @property
    def installed(self) -> bool:
        return bool(self._restore)

    def install(self, modules: dict[str, object]) -> None:
        """Wrap and rebind; ``modules`` maps module name to loaded module.

        Every loaded module of the package is scanned for names bound to a
        wrapped function, so re-exports and ``from x import f`` bindings
        are rebound too.  A function is wrapped at most once, and a
        function that already carries a wrapper marker is refused.
        """
        if self.installed:
            raise RuntimeError("tracer already installed")
        functions = [
            (f"{layer}.{name}", fn)
            for layer in LAYERS
            for name, fn in public_functions(modules[f"weakapprox.{layer}"])
        ]
        methods = []
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(modules[f"weakapprox.{mod_name}"], cls_name)
            methods.append((f"{mod_name}.{cls_name}.{meth}", vars(cls)[meth], cls, meth))
        for qualname, fn in functions + [m[:2] for m in methods]:
            if hasattr(fn, _ORIGINAL):
                raise RuntimeError(f"{qualname} is already wrapped")

        wrappers = {id(fn): self._wrap(fn, qualname) for qualname, fn in functions}
        for qualname, fn, cls, meth in methods:
            self._restore.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(fn, qualname))
        for module in modules.values():
            for name, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and getattr(wrapper, _ORIGINAL) is obj:
                    self._restore.append((module, name, obj))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        """Put every original binding back, in reverse order of replacement."""
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def _wrap(self, fn, qualname: str):
        name_id = len(self.names)
        self.names.append(qualname)
        spans, stack = self.spans, self._stack
        counters = COUNTERS.get(qualname, ())
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append((name_id, 0.0, 0.0, parent))
            stack.append(index)
            start = clock() - self._paused
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock() - self._paused
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            if counters:
                t0 = clock()
                for count in counters:
                    count(self.counts, result)
                self._paused += clock() - t0
            return result

        setattr(wrapper, _ORIGINAL, fn)
        return wrapper

    # -- recording -----------------------------------------------------------

    def clock(self) -> float:
        """The span clock: wall clock minus time spent deriving counts."""
        return time.perf_counter() - self._paused

    def self_times(self) -> dict[str, float]:
        """Self time per traced name over all recorded spans."""
        return self_times(self.names, self.spans)

    def calls(self) -> dict[str, int]:
        """Number of spans per traced name."""
        out: dict[str, int] = {}
        for name_id, _, _, _ in self.spans:
            name = self.names[name_id]
            out[name] = out.get(name, 0) + 1
        return out


def self_times(names: list[str], spans) -> dict[str, float]:
    """Self time per name: each span's duration minus its direct children's.

    ``spans`` holds (name index, start, end, parent index) tuples with
    parent -1 for an outermost span.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    out: dict[str, float] = {}
    for (name_id, _, _, _), t in zip(spans, own):
        name = names[name_id]
        out[name] = out.get(name, 0.0) + t
    return out


def layer_of(name: str) -> str:
    """The layer (module) a traced name belongs to."""
    return name.split(".", 1)[0]
