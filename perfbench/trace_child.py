"""Run one foldlab CLI job with timing spans around each layer's entry points.

Usage: python3 trace_child.py SUMMARY_JSON ARGS...

ARGS are those of ``python -m foldlab.cli`` (``run job.ini ...``).  The job
runs exactly as untraced, with the same exit code and report, and the span
totals are written to SUMMARY_JSON.  The program is not edited: each entry
point below is replaced, in every ``foldlab`` namespace that bound it, by a
wrapper that records a span.  A layer's self time is its spans' time minus
the time of the spans they enclose, so the self times add up to the root
span, ``cli.run_command``.
"""

import sys
import time

_t0 = time.perf_counter()
import foldlab.cli  # noqa: E402  (timed: this is cli.import_s)

IMPORT_S = time.perf_counter() - _t0

import functools  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
from collections import defaultdict  # noqa: E402

# layer (= foldlab module) -> coarse entry points; a dotted name is a method.
ENTRY_POINTS = {
    "intlat": ("smith_normal_form", "coinvariants", "cokernel", "CoinvariantLattice"),
    "rootdata": ("build_preset", "RootDatum", "WeylGroup.generate", "cartan_type_of"),
    "action": ("PinnedAction", "PinnedAction.component_permutations"),
    "folding": (
        "equivalence_classes",
        "folded_root_datum",
        "fixed_weyl",
        "center_structure",
        "isogeny_injectivity_check",
    ),
    "criteria": ("decide", "fiber_report"),
    "chevalley": ("base_constants", "verify_jacobi", "equivariant_signs", "check_equivariance"),
    "matrixlab": ("GF", "count_fixed", "bruhat_predicted_count", "tangent_dim"),
    "presets": ("load_preset",),
    "cli": ("run_command",),
}

# Entry point -> metric taking the time of its outermost spans.
TIMED = {
    "build_preset": "rootdata.build_s",
    "RootDatum": "rootdata.build_s",
    "WeylGroup.generate": "rootdata.weyl_s",
    "fixed_weyl": "folding.fixed_weyl_s",
    "base_constants": "chevalley.constants_s",
    "verify_jacobi": "chevalley.jacobi_s",
    "equivariant_signs": "chevalley.signs_s",
    "GF": "matrixlab.gf_build_s",
    "bruhat_predicted_count": "matrixlab.predict_s",
    "tangent_dim": "matrixlab.tangent_s",
}

# Entry point -> metric counting its calls.
CALLS = {
    "smith_normal_form": "intlat.snf_calls",
    "CoinvariantLattice": "intlat.coinvariant_lattices",
    "PinnedAction": "action.closures",
    "PinnedAction.component_permutations": "action.component_perm_calls",
    "equivalence_classes": "folding.class_calls",
    "load_preset": "presets.loads",
}

# Entry points whose arguments feed a metric.
NEEDS_ARGUMENTS = ("count_fixed", "verify_jacobi")


class Tracer:
    def __init__(self):
        self.values = defaultdict(float)  # metric -> seconds or count
        self.self_s = defaultdict(float)  # layer -> self seconds
        self.root_s = 0.0
        self._open = []  # enclosed-span seconds of each open span
        self._depth = defaultdict(int)  # timed metric or entry point -> open spans

    def _timed_metric(self, name, bound):
        if name == "count_fixed":
            # The automatic method is a full scan at q <= 4 and a backtrack above.
            small = bound.arguments["q"] <= 4
            return "matrixlab.count_small_q_s" if small else "matrixlab.count_large_q_s"
        return TIMED.get(name)

    def _on_return(self, name, bound, result):
        if name == "WeylGroup.generate":
            self.values["rootdata.weyl_elements"] += result.order
            if self._depth["fixed_weyl"]:
                self.values["weyl_closed_in_fixed"] += result.order
        elif name == "fixed_weyl":
            self.values["fixed_weyl_order"] += result.order
        elif name == "verify_jacobi":
            datum = bound.arguments["sc"].datum
            m = datum.nroots + datum.rank
            self.values["chevalley.jacobi_triples"] += m * (m - 1) * (m - 2) // 6

    def wrap(self, func, layer, name):
        signature = inspect.signature(func) if name in NEEDS_ARGUMENTS else None

        @functools.wraps(func)
        def span(*args, **kwargs):
            bound = signature.bind(*args, **kwargs) if signature else None
            metric = self._timed_metric(name, bound)
            self._open.append(0.0)
            self._depth[name] += 1
            if metric:
                self._depth[metric] += 1
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                self._depth[name] -= 1
                if metric:
                    self._depth[metric] -= 1
                enclosed = self._open.pop()
                self.self_s[layer] += dur - enclosed
                if self._open:
                    self._open[-1] += dur
                else:
                    self.root_s += dur
                if metric and not self._depth[metric]:
                    self.values[metric] += dur
                if name in CALLS:
                    self.values[CALLS[name]] += 1
            self._on_return(name, bound, result)
            return result

        return span

    def install(self):
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "foldlab"]
        for layer, names in ENTRY_POINTS.items():
            module = sys.modules[f"foldlab.{layer}"]
            for name in names:
                owner_name, _, attr = name.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        setattr(owner, attr, classmethod(self.wrap(raw.__func__, layer, name)))
                    else:
                        setattr(owner, attr, self.wrap(raw, layer, name))
                    continue
                original = getattr(module, name)
                if isinstance(original, type):
                    original.__init__ = self.wrap(original.__init__, layer, name)
                    continue
                wrapped = self.wrap(original, layer, name)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)

    def summary(self) -> dict:
        return {
            "import_s": IMPORT_S,
            "root_s": self.root_s,
            "self_s": dict(self.self_s),
            "values": dict(self.values),
        }


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return foldlab.cli.main(argv)
    finally:
        with open(summary_path, "w") as handle:
            json.dump(tracer.summary(), handle)


if __name__ == "__main__":
    sys.exit(main())
