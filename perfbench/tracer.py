"""Layer tracing from outside the program.

Wraps public functions of the ``igq.*`` modules in the traced child and
rebinds every imported copy of each one, so that a call made through
``presentations.buchberger`` is seen exactly like one made through
``groebner.buchberger``.  Nothing under ``src/`` is edited.

Three kinds of wrapper, chosen per function by how often it is called:

* ``span``  -- one span per call (name, start, end, parent span id, run id),
  kept in memory and written out when the run ends, plus the aggregates;
* ``agg``   -- counters and time sums only, for functions called tens or
  hundreds of thousands of times per run;
* ``count`` -- a call counter only, for the ``poly`` primitives and
  ``TermOrder.key``; their time stays in the caller's self time.

Self time of a call is its duration minus the time covered by the timed
(``span`` and ``agg``) calls it made directly.
"""

from __future__ import annotations

import itertools
import json
import sys
from time import perf_counter

# Functions an optimisation of this program is likely to move, by module.
# Each entry is a function name; hot ones are aggregated instead of spanned.
SPAN, AGG, COUNT = "span", "agg", "count"
TARGETS = {
    "cli": {"main": SPAN},
    "groebner": {
        "buchberger": SPAN,
        "spoly": AGG,
        "normal_form": AGG,
        "saturate": SPAN,
        "colon": SPAN,
        "intersect": SPAN,
        "eliminate": SPAN,
        "minimal_polynomial": SPAN,
        "divide_exact": AGG,
        "quotient_dimension": AGG,
    },
    "poly": {"monomial_lcm": COUNT, "monomial_div": COUNT},
    "presentations": {
        "build_presentation": SPAN,
        "presentation_basis": SPAN,
        "verify_homomorphism": SPAN,
        "decompose_spectrum": SPAN,
        "offorigin_ideal": SPAN,
        "count_offorigin_by_substitution": SPAN,
    },
    "univariate": {"univ_gcd": AGG, "distinct_root_count": SPAN},
    "linalg": {"rank": AGG},
    "deformation": {"verify_lemma_presentation": SPAN, "regularity_corank": SPAN},
    "unfolding": {"match_quantum_factor": SPAN},
    "bbw": {
        "bundle_cohomology": AGG,
        "bbw_gl": AGG,
        "bbw_sp": AGG,
        "ext_bundles": AGG,
        "verify_collection": SPAN,
        "ext_f_pair": SPAN,
        "check_f_orthogonality": SPAN,
    },
    "report": {"emit_json": SPAN},
}

# Memo dicts whose growth tells a miss from a hit, keyed by traced function.
MEMO_CACHES = {
    "presentations.presentation_basis": ("presentations", "_basis_cache"),
    "bbw.bundle_cohomology": ("bbw", "_bbw_cache"),
}

ORDER_KEY = "poly.order_key"  # TermOrder.key, summed over every subclass


class Stats:
    __slots__ = ("calls", "total_s", "self_s", "hits", "basis_len", "max_coeff_bits")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.hits = 0
        self.basis_len = 0
        self.max_coeff_bits = 0

    def as_dict(self) -> dict:
        d = {s: getattr(self, s) for s in self.__slots__}
        d["hit_ratio"] = self.hits / self.calls if self.calls else 0.0
        return d


def _coeff_bits(gb) -> int:
    return max(
        (
            max(c.numerator.bit_length(), c.denominator.bit_length())
            for g in gb.elements
            for _, c in g.terms
        ),
        default=0,
    )


class Tracer:
    """Installs the wrappers and collects spans and per-function stats."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.stats = {}
        self.spans = []  # (span id, name, start, end, parent span id, run id)
        self.missing = []  # targets the program no longer defines
        self._frames = []  # open timed calls: [child time, span id]
        self._span_ids = itertools.count(1)
        self._counters = {}

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "igq" or name.startswith("igq.")]
        for mod_name, funcs in TARGETS.items():
            module = sys.modules.get("igq." + mod_name)
            for fn_name, kind in funcs.items():
                name = "%s.%s" % (mod_name, fn_name)
                original = getattr(module, fn_name, None) if module else None
                if not callable(original):
                    self.missing.append(name)
                    continue
                wrapper = self._wrap(name, original, kind)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
        self._wrap_order_keys()

    def _wrap_order_keys(self) -> None:
        base = getattr(sys.modules.get("igq.poly"), "TermOrder", None)
        if base is None:
            self.missing.append(ORDER_KEY)
            return
        classes, todo = [], list(base.__subclasses__())
        while todo:
            cls = todo.pop()
            classes.append(cls)
            todo.extend(cls.__subclasses__())
        for cls in classes:
            if "key" in vars(cls):
                setattr(cls, "key", self._wrap(ORDER_KEY, vars(cls)["key"], COUNT))

    def _wrap(self, name, fn, kind):
        if kind == COUNT:
            counter = self._counters.setdefault(name, itertools.count())
            tick = counter.__next__

            def counted(*args, **kwargs):
                tick()
                return fn(*args, **kwargs)

            return counted

        stats = self.stats.setdefault(name, Stats())
        frames = self._frames
        spans = self.spans if kind == SPAN else None
        cache = None
        if name in MEMO_CACHES:
            mod, attr = MEMO_CACHES[name]
            cache = getattr(sys.modules["igq." + mod], attr, None)
        is_basis = name == "groebner.buchberger"
        next_id = self._span_ids.__next__
        run_id = self.run_id

        def timed(*args, **kwargs):
            parent = frames[-1][1] if frames else 0
            frame = [0.0, next_id() if spans is not None else parent]
            frames.append(frame)
            size = len(cache) if cache is not None else 0
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                frames.pop()
                duration = end - start
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - frame[0]
                if frames:
                    frames[-1][0] += duration
                if spans is not None:
                    spans.append((frame[1], name, start, end, parent, run_id))
            if cache is not None and len(cache) == size:
                stats.hits += 1
            if is_basis:
                stats.basis_len += len(result)
                stats.max_coeff_bits = max(stats.max_coeff_bits, _coeff_bits(result))
            return result

        return timed

    # -- results --------------------------------------------------------

    def layer_stats(self) -> dict:
        out = {name: s.as_dict() for name, s in self.stats.items()}
        for name, counter in self._counters.items():
            s = Stats()
            s.calls = next(counter)  # a fresh count() starts at 0
            out[name] = s.as_dict()
        return out

    def write_spans(self, path: str) -> None:
        fields = ("id", "name", "start", "end", "parent", "run_id")
        with open(path, "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")
