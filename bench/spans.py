"""Spans around calls into iwacalc's layers, for the traced run.

`Tracer.install()` replaces each target function or method with a wrapper
that records a span: name, start, end and parent span.  A module-level
function is replaced in every iwacalc module that imported it, and in
module-level dicts that hold it (the CLI's task table).  A target that no
longer exists is listed in `absent` and skipped.

A span's self time is its duration minus the time covered by its child
spans; a layer's self time is the sum over its spans.  The binomial and
digit helpers of `padic` run millions of times per pass, so their calls
are not stored one by one: each span keeps a count and summed duration of
its `padic` children ("rollups"), which is all that self time and call
counts need.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

MODULES = ("padic", "groups", "series", "operators", "linalg", "control",
           "moore", "cli")

# (layer, dotted name inside iwacalc.<layer>); "prefix*" takes every
# module-level function whose name starts with the prefix.
TARGETS = [
    ("padic", "binom_mod_p"), ("padic", "multi_binom_mod_p"),
    ("padic", "padic_make"), ("padic", "comb_mod"),
    ("groups", "UnitriangularModel.mul"), ("groups", "AbelianModel.mul"),
    ("groups", "UnitriangularModel.inv"), ("groups", "AbelianModel.inv"),
    ("groups", "UnitriangularModel.pow"), ("groups", "AbelianModel.pow"),
    ("groups", "GroupModel.element"), ("groups", "load_abelian"),
    ("groups", "load_unitriangular"), ("groups", "load_model"),
    ("groups", "subgroup_from_exponents"),
    ("groups", "Automorphism.linear_on_log"), ("groups", "Automorphism.apply"),
    ("series", "TruncationSpec.__init__"), ("series", "TruncatedSeries.__mul__"),
    ("series", "TruncatedSeries.__add__"), ("series", "TruncatedSeries.pow"),
    ("series", "group_embed"), ("series", "aut_extend"),
    ("series", "aut_images_table"), ("series", "parse_series"),
    ("series", "format_series"), ("series", "relative_normal_form"),
    ("operators", "operator_matrix"), ("operators", "divided_power_matrix"),
    ("operators", "divided_power"), ("operators", "lmul_matrix"),
    ("operators", "OperatorMatrix.__matmul__"),
    ("operators", "OperatorMatrix.__add__"),
    ("operators", "OperatorMatrix.__sub__"), ("operators", "OperatorMatrix.power"),
    ("operators", "OperatorMatrix.apply"), ("operators", "OperatorMatrix.__eq__"),
    ("operators", "coset_idempotent"), ("operators", "reconstruct_aut"),
    ("operators", "mahler_coeff_aut"), ("operators", "operator_degree"),
    ("linalg", "RowSpace.add"), ("linalg", "rref"), ("linalg", "reduce_against"),
    ("linalg", "intersect_coordinate_subspace"), ("linalg", "mat_pow"),
    ("control", "ideal_span"), ("control", "control_witnesses"),
    ("control", "controller_approx"), ("control", "dagger_approx"),
    ("control", "zalesskii_check"), ("control", "completely_prime_probe"),
    ("control", "induced_filtration"), ("control", "CentralPrimeSpec.tau"),
    ("moore", "moore_det_check"), ("moore", "zeta_convergence"),
    ("moore", "zeta_eval"), ("moore", "ZetaExperiment.__init__"),
    ("moore", "abelian_matrix_log"), ("moore", "matrix_det"),
    ("moore", "matrix_adjugate"),
    ("cli", "main"), ("cli", "run_config"), ("cli", "parse_config"),
    ("cli", "build_context"), ("cli", "_task_*"),
]

ROLLUP_LAYERS = ("padic",)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.truthy: list[int] = []
        # one entry per stored span: [name id, parent, start, end, rollups]
        self.spans: list[list] = []
        self._stack: list[list] = [[-1, 0.0, {}]]   # [span, child time, rollups]
        self._undo: list[tuple] = []
        self.absent: list[str] = []
        self.origin = time.perf_counter()

    # -- installation -------------------------------------------------------

    def install(self, namespaces=(), targets=TARGETS) -> None:
        """Wrap the targets; `namespaces` are further modules (the
        benchmark's own) whose imported references are replaced too."""
        mods = {m: importlib.import_module(f"iwacalc.{m}") for m in MODULES}
        scan = [importlib.import_module("iwacalc"), *mods.values(), *namespaces]
        for layer, dotted in targets:
            mod = mods[layer]
            if dotted.endswith("*"):
                found = [n for n, v in vars(mod).items()
                         if n.startswith(dotted[:-1]) and callable(v)
                         and getattr(v, "__module__", None) == mod.__name__]
                if not found:
                    self.absent.append(f"{layer}.{dotted}")
                for n in sorted(found):
                    self._wrap_function(scan, layer, mod, n)
            elif "." in dotted:
                cls_name, attr = dotted.split(".", 1)
                cls = getattr(mod, cls_name, None)
                if cls is None or attr not in vars(cls):
                    self.absent.append(f"{layer}.{dotted}")
                    continue
                raw = vars(cls)[attr]
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(
                        self._wrapper(f"{layer}.{dotted}", layer, raw.__func__))
                else:
                    wrapped = self._wrapper(f"{layer}.{dotted}", layer, raw)
                setattr(cls, attr, wrapped)
                self._undo.append((cls, attr, raw))
            elif callable(getattr(mod, dotted, None)):
                self._wrap_function(scan, layer, mod, dotted)
            else:
                self.absent.append(f"{layer}.{dotted}")

    def _wrap_function(self, scan, layer, mod, name) -> None:
        fn = getattr(mod, name)
        wrapped = self._wrapper(f"{layer}.{name}", layer, fn)
        for m in scan:
            for key, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, key, wrapped)
                    self._undo.append((m, key, fn))
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in value.items():
                        if v is fn:
                            value[k] = wrapped
                            self._undo.append((value, k, fn))

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = fn
            else:
                setattr(owner, key, fn)
        self._undo.clear()

    # -- recording ----------------------------------------------------------

    def _wrapper(self, name: str, layer: str, fn):
        nid = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.truthy.append(0)
        stack, spans, calls, self_s = self._stack, self.spans, self.calls, self.self_s
        truthy = self.truthy
        clock = time.perf_counter

        if layer in ROLLUP_LAYERS:
            @functools.wraps(fn)
            def rolled(*args, **kwargs):
                frame = [None, 0.0, None]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    stack.pop()
                    parent = stack[-1]
                    parent[1] += dur
                    calls[nid] += 1
                    self_s[nid] += dur - frame[1]
                    if parent[2] is not None:
                        hit = parent[2].get(nid)
                        if hit is None:
                            parent[2][nid] = [1, dur]
                        else:
                            hit[0] += 1
                            hit[1] += dur
            return rolled

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            parent = stack[-1][0]
            sid = len(spans)
            span = [nid, parent, 0.0, 0.0, {}]
            spans.append(span)
            frame = [sid, 0.0, span[4]]
            stack.append(frame)
            t0 = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = bool(result) if isinstance(result, bool) else False
                return result
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stack[-1][1] += dur
                span[2], span[3] = t0, t1
                calls[nid] += 1
                self_s[nid] += dur - frame[1]
                truthy[nid] += ok
        return spanned

    # -- results ------------------------------------------------------------

    def count(self, name: str) -> int:
        return sum(c for n, c in zip(self.names, self.calls) if n == name)

    def layer_self_s(self, layer: str) -> float:
        return sum(s for l, s in zip(self.layers, self.self_s) if l == layer)

    def truthy_count(self, name: str) -> int:
        return sum(t for n, t in zip(self.names, self.truthy) if n == name)

    def write(self, path: str) -> None:
        """One JSON line of metadata, then one line per span:
        [name, parent span or -1, start, end, {rolled-up name: [calls, s]}],
        times in seconds from the tracer's creation."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "absent": self.absent,
                                 "calls": dict(zip(self.names, self.calls))}) + "\n")
            for nid, parent, t0, t1, roll in self.spans:
                rolled = {self.names[k]: [n, round(s, 7)] for k, (n, s) in roll.items()}
                fh.write(json.dumps([self.names[nid], parent,
                                     round(t0 - self.origin, 7),
                                     round(t1 - self.origin, 7), rolled]) + "\n")


def per_layer_metrics(tr: Tracer, scale: float) -> dict:
    """The benchmark's per-layer metrics; `scale` converts seconds to
    reference seconds."""
    adds = tr.count("linalg.RowSpace.add")
    grew = tr.truthy_count("linalg.RowSpace.add")
    values = {
        "padic.binom_calls": (tr.count("padic.binom_mod_p"), "count"),
        "padic.self_s": (tr.layer_self_s("padic") * scale, "s"),
        "groups.mul_calls": (tr.count("groups.UnitriangularModel.mul")
                             + tr.count("groups.AbelianModel.mul"), "count"),
        "groups.self_s": (tr.layer_self_s("groups") * scale, "s"),
        "series.mul_calls": (tr.count("series.TruncatedSeries.__mul__"), "count"),
        "series.self_s": (tr.layer_self_s("series") * scale, "s"),
        "series.truncation_s": (
            sum(s for n, s in zip(tr.names, tr.self_s)
                if n == "series.TruncationSpec.__init__") * scale, "s"),
        "operators.matrix_calls": (tr.count("operators.operator_matrix"), "count"),
        "operators.matmul_calls": (tr.count("operators.OperatorMatrix.__matmul__"),
                                   "count"),
        "operators.self_s": (tr.layer_self_s("operators") * scale, "s"),
        "linalg.rowspace_adds": (adds, "count"),
        "linalg.rowspace_grew": (grew, "count"),
        "linalg.accept_ratio": (grew / adds if adds else 0.0, "ratio"),
        "linalg.self_s": (tr.layer_self_s("linalg") * scale, "s"),
        "control.self_s": (tr.layer_self_s("control") * scale, "s"),
        "moore.self_s": (tr.layer_self_s("moore") * scale, "s"),
        "cli.self_s": (tr.layer_self_s("cli") * scale, "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
