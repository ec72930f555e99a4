"""Span recorder for the traced run.

``Tracer`` replaces selected matint functions, wherever a matint module binds
them, with wrappers that record one span (name, start, end, parent) per
outermost call; a recursive call inside an open span of the same function
records nothing. Spans live in flat arrays until the run ends. The
untraced run never installs it.

Per-layer metrics are self times: a span's duration minus the spans directly
under it. Spans are timed with the clock the harness times calls and
batches with (corrected CPU time, see clock.py), so the self times of a
batch add up to its end-to-end time. Functions not listed here are not
wrapped, so their time stays in the self time of the nearest wrapped caller
(for example ``check_problem`` inside ``transform.verify_s``,
``collapse_interpretation`` inside ``cli.self_s``).
"""

from __future__ import annotations

import sys
from array import array

# (module, function) -> metric prefix; several functions may share one.
FUNCTIONS = {
    ("matint.cli", "main"): "cli.self",
    ("matint.trs", "parse_trs"): "trs.parse",
    ("matint.trs", "dependency_pairs"): "trs.dps",
    ("matint.interp", "parse_interpretation"): "interp.parse",
    ("matint.interp", "format_interpretation"): "interp.format",
    ("matint.interp", "eval_term"): "interp.eval_term",
    ("matint.interp", "check_value"): "interp.check_value",
    ("matint.interp", "check_entrywise"): "interp.check_entrywise",
    ("matint.interp", "sample_falsify"): "interp.sample",
    ("matint.encoding", "required_products"): "encoding.required_products",
    ("matint.encoding", "is_compatible"): "encoding.compat",
    ("matint.encoding", "validate"): "encoding.validate",
    ("matint.constraints", "generate_arith_constraints"): "constraints.gen",
    ("matint.constraints", "eval_valuation"): "constraints.eval",
    ("matint.transform", "interp_to_blocks"): "transform.lift",
    ("matint.transform", "interp_to_bits"): "transform.lift",
    ("matint.transform", "expand_rational"): "transform.expand",
    ("matint.transform", "valuation_interpretation"): "transform.expand",
    ("matint.transform", "rho_preserved"): "transform.rho_check",
    ("matint.transform", "expansion_rho_preserved"): "transform.rho_check",
    ("matint.transform", "verify_transform"): "transform.verify",
}
MUL = "matrix.mul"

TIME_METRICS = sorted({p for p in FUNCTIONS.values()} | {MUL})
COUNT_METRICS = ("interp.eval_term_calls", "matrix.mul_calls", "matrix.max_dim",
                 "interp.sample_trials", "encoding.required_count",
                 "constraints.max_word_len", "transform.peak_dim")


def _dim_of(result) -> int:
    """Dimension of a returned interpretation (or of the first item of a tuple)."""
    if isinstance(result, tuple):
        result = result[0]
    return result.shape.dim


class Tracer:
    def __init__(self, clock):
        self.clock = clock                  # () -> seconds
        self.names: list[str] = []          # span name table, indexed by name id
        self.name = array("i")              # per span: name id
        self.parent = array("i")            # per span: parent span index, -1 at top
        self.start = array("d")
        self.end = array("d")
        self.counters = dict.fromkeys(COUNT_METRICS, 0)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # --- installation ---

    def __enter__(self):
        import matint.matrix
        for (module, func), metric in FUNCTIONS.items():
            original = getattr(sys.modules[module], func)
            wrapper = self._wrap(original, metric, self._hook(func))
            for mod in [m for n, m in sys.modules.items() if n.split(".")[0] == "matint"]:
                if getattr(mod, func, None) is original:
                    self._patch(mod, func, wrapper)
        mat = matint.matrix.Mat
        self._patch(mat, "__mul__", self._wrap(mat.__mul__, MUL, self._mul_hook))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn, metric, hook):
        name_id = len(self.names)
        self.names.append(metric)
        active = [False]
        stack, now = self._stack, self.clock
        names, parents, starts, ends = self.name, self.parent, self.start, self.end

        def wrapper(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            active[0] = True
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = now()
                stack.pop()
                active[0] = False
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    # --- counters read from arguments and results ---

    def _hook(self, func):
        c = self.counters
        if func == "sample_falsify":
            def hook(args, kwargs, result):
                c["interp.sample_trials"] += kwargs.get("trials", 1000)
        elif func == "required_products":
            def hook(args, kwargs, result):
                c["encoding.required_count"] += len(result)
        elif func == "generate_arith_constraints":
            def hook(args, kwargs, result):
                longest = max((len(w) for con in result for w in (*con.lhs, *con.rhs)),
                              default=0)
                c["constraints.max_word_len"] = max(c["constraints.max_word_len"], longest)
        elif func in ("interp_to_blocks", "interp_to_bits", "expand_rational"):
            def hook(args, kwargs, result):
                c["transform.peak_dim"] = max(c["transform.peak_dim"], _dim_of(result))
        else:
            hook = None
        return hook

    def _mul_hook(self, args, kwargs, result):
        a, b = args
        dims = (a.rows, a.cols, b.cols) if hasattr(b, "cols") else (a.rows, a.cols)
        self.counters["matrix.max_dim"] = max(self.counters["matrix.max_dim"], *dims)

    # --- results ---

    def metrics(self) -> dict[str, float]:
        """Self time per metric prefix (``<prefix>_s``) plus the counters."""
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {f"{m}_s": 0.0 for m in TIME_METRICS}
        calls = {MUL: 0, "interp.eval_term": 0}
        for i in range(n):
            metric = self.names[self.name[i]]
            out[f"{metric}_s"] += self.end[i] - self.start[i] - child[i]
            if metric in calls:
                calls[metric] += 1
        out.update(self.counters)
        out["interp.eval_term_calls"] = calls["interp.eval_term"]
        out["matrix.mul_calls"] = calls[MUL]
        return out

    def write(self, path):
        """One line per span: index, name, parent index, start, end (corrected CPU seconds)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tparent\tstart\tend\n")
            for i in range(len(self.name)):
                fh.write(f"{i}\t{self.names[self.name[i]]}\t{self.parent[i]}\t"
                         f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n")
