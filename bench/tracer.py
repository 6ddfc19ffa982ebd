"""Span tracer that wraps hodgelab's public functions from outside the package.

Each wrapped function records a span (name, parent, start, end) while it
runs.  Spans are kept in memory for one request and reduced by ``flush``:
the self time of a span is its duration minus the part of its interval that
its child spans cover.  Nothing under ``src/`` is modified; the tracer
rebinds every name a wrapped function is bound to in the ``hodgelab.*``
module namespaces and classes, and ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# layer (module) -> wrapped functions, as qualified names inside the module.
# "ComplexStructure" stands for the class constructor.
LAYERS = {
    "exterior": ("wedge", "contract_index", "contract", "inner", "hodge_star", "adjoint_wedge"),
    "hermitian": (
        "ComplexStructure", "curly_j", "j_pullback", "bidegree_project", "bb_j",
        "lambda_basis", "bb_j_matrix",
    ),
    "lefschetz": ("lefschetz_lstar", "p_k", "primitive_basis", "alpha_from_holomorphic"),
    "tensor_maps": (
        "FormValuedMap.from_tensor", "FormValuedMap.conjugated_by_bbj", "split_type",
        "antisymmetrize", "bidegree_eigen_residual", "tensor_type_dims", "a_restricted_rank",
        "a_kernel_tensors", "van_kernel_dimension", "admissible_torsion_basis",
        "bracket_bullet_in_span",
    ),
    "linalg": ("exact_rank", "exact_nullspace"),
    "harmonic": (
        "spectral", "form_endo", "endo_form", "stab_expand", "moment_recover",
        "compatible_patch_dim6", "symplectic_candidate",
    ),
    "frames": (
        "FrameTriple.random", "transition_p", "star_triple", "obstruction_kernel", "r_matrix",
    ),
    "jsonio": ("form_from_dict", "skew_endo_from_dict", "spectral_to_dict"),
    "campaigns": ("run_campaign",),
    "cli": ("main",),
    "rng": ("random_form",),
}

# cached constructors: a call is a build when spans or Form allocations
# happen beneath it, i.e. when the cache missed
BUILD_TRACKED = ("hermitian.lambda_basis", "hermitian.bb_j_matrix", "lefschetz.primitive_basis")
ELIMINATIONS = ("linalg.exact_rank", "linalg.exact_nullspace")
ELIMINATION_STATS = ("rows", "cols", "nnz")
FORM_ALLOCS = "exterior.Form.allocs"


def function_keys() -> list[str]:
    return [f"{layer}.{name}" for layer, names in LAYERS.items() for name in names]


def metric_names() -> list[str]:
    """Every per-layer metric name, in report order (117 names)."""
    out = []
    for layer, names in LAYERS.items():
        for name in names:
            key = f"{layer}.{name}"
            out += [f"{key}.calls", f"{key}.self_s"]
            if key in BUILD_TRACKED:
                out.append(f"{key}.builds")
            if key in ELIMINATIONS:
                out += [f"{key}.{stat}" for stat in ELIMINATION_STATS]
        if layer == "exterior":
            out.append(FORM_ALLOCS)
        out.append(f"{layer}.self_s")
    return out


def self_times(parents, starts, ends) -> list[float]:
    """Self time of every span: its duration minus the union of its children's
    intervals clipped to its own.  ``parents[i]`` is -1 for a root span."""
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, (lo, hi) in enumerate(zip(starts, ends)):
        covered = 0.0
        reach = lo
        for c in sorted(children.get(i, ()), key=starts.__getitem__):
            a, b = max(starts[c], reach), min(ends[c], hi)
            if b > a:
                covered += b - a
                reach = b
        out.append((hi - lo) - covered)
    return out


def _matrix_stats(matrix, ncols):
    """(rows, cols, nnz) of a dense or dict-row matrix argument to linalg."""
    rows = len(matrix)
    nnz = 0
    width = 0
    for row in matrix:
        if isinstance(row, dict):
            nnz += sum(1 for v in row.values() if v != 0)
            width = max(width, 1 + max(row, default=-1))
        else:
            nnz += sum(1 for v in row if v != 0)
            width = max(width, len(row))
    return rows, ncols if ncols is not None else width, nnz


def hodgelab_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "hodgelab" or name.startswith("hodgelab."))]


class Tracer:
    """Records spans around hodgelab's public functions while installed."""

    def __init__(self):
        self._keys = function_keys()
        self._index = {k: i for i, k in enumerate(self._keys)}
        self._patches: list = []
        self._reset_spans()
        self.reset()

    # -- span recording -----------------------------------------------

    def _reset_spans(self):
        self._names: list[int] = []
        self._parents: list[int] = []
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._current = -1

    def reset(self):
        """Zero the aggregated metrics (spans already flushed are dropped)."""
        self.calls = [0] * len(self._keys)
        self.self_s = [0.0] * len(self._keys)
        self.builds = defaultdict(int)
        self.elimination = defaultdict(int)
        self.form_allocs = 0

    def _wrap(self, fn, key):
        idx = self._index[key]
        build = key in BUILD_TRACKED
        elimination = key in ELIMINATIONS
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if elimination:
                ncols = kwargs.get("ncols", args[1] if len(args) > 1 else None)
                for stat, value in zip(ELIMINATION_STATS, _matrix_stats(args[0], ncols)):
                    tracer.elimination[f"{key}.{stat}"] += value
            span = len(tracer._starts)
            tracer._names.append(idx)
            tracer._parents.append(tracer._current)
            tracer._ends.append(0.0)
            allocs = tracer.form_allocs
            tracer._current = span
            tracer._starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._ends[span] = clock()
                tracer._current = tracer._parents[span]
                if build and (len(tracer._starts) > span + 1 or tracer.form_allocs != allocs):
                    tracer.builds[key] += 1

        return wrapper

    def flush(self):
        """Reduce the spans recorded so far (one request) into the aggregates."""
        if self._current != -1:
            raise RuntimeError("flush called inside an open span")
        for name, own in zip(self._names, self_times(self._parents, self._starts, self._ends)):
            self.calls[name] += 1
            self.self_s[name] += own
        self._reset_spans()

    def metrics(self) -> dict:
        """Per-layer metrics over everything flushed since the last reset."""
        out = {}
        for layer, names in LAYERS.items():
            layer_self = 0.0
            for name in names:
                key = f"{layer}.{name}"
                i = self._index[key]
                out[f"{key}.calls"] = self.calls[i]
                out[f"{key}.self_s"] = self.self_s[i]
                layer_self += self.self_s[i]
                if key in BUILD_TRACKED:
                    out[f"{key}.builds"] = self.builds[key]
                if key in ELIMINATIONS:
                    for stat in ELIMINATION_STATS:
                        out[f"{key}.{stat}"] = self.elimination[f"{key}.{stat}"]
            if layer == "exterior":
                out[FORM_ALLOCS] = self.form_allocs
            out[f"{layer}.self_s"] = layer_self
        return out

    # -- installation ---------------------------------------------------

    def install(self):
        """Wrap every binding of the listed functions in hodgelab's namespaces."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer in LAYERS:
            importlib.import_module(f"hodgelab.{layer}")
        modules = hodgelab_modules()
        for layer, names in LAYERS.items():
            home = sys.modules[f"hodgelab.{layer}"]
            for name in names:
                key = f"{layer}.{name}"
                if "." in name:
                    cls_name, attr = name.split(".")
                    self._patch_method(getattr(home, cls_name), attr, key)
                elif isinstance(getattr(home, name), type):
                    self._patch_method(getattr(home, name), "__init__", key)
                else:
                    original = getattr(home, name)
                    wrapper = self._wrap(original, key)
                    for module in modules:
                        for binding, value in list(vars(module).items()):
                            if value is original:
                                self._patches.append((module, binding, value))
                                setattr(module, binding, wrapper)
        form = sys.modules["hodgelab.exterior"].Form
        original_init = form.__dict__["__init__"]

        def counting_init(obj, *args, **kwargs):
            self.form_allocs += 1
            original_init(obj, *args, **kwargs)

        self._patches.append((form, "__init__", original_init))
        form.__init__ = counting_init

    def _patch_method(self, cls, attr, key):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement = classmethod(self._wrap(raw.__func__, key))
        else:
            replacement = self._wrap(raw, key)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, replacement)

    def uninstall(self):
        """Restore every binding that ``install`` replaced."""
        for owner, binding, value in reversed(self._patches):
            setattr(owner, binding, value)
        self._patches = []
