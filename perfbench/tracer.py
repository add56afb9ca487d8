"""Span tracer that instruments the appauth package from outside.

`instrument` replaces public functions and methods of the loaded appauth
modules with wrappers that record spans (name, start, end, parent) and
counters. A function is found by name in every appauth module that holds
it, and every module attribute that refers to it is replaced, so the
pipeline's own calls go through the wrapper wherever it imported the
function from. A name the package no longer has is skipped and listed in
`Tracer.missing`; its metrics then read 0.

Counting work done in the hooks (unique windows, record counts) happens
after a span has closed, so it lands in the caller's self time and shows
up in the traced-minus-untraced overhead, not in the layer it describes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, n]
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self.med_peak_bytes = 0
        self._med_largest = 0
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._windows: dict[tuple, list[np.ndarray]] = defaultdict(list)

    @contextmanager
    def span(self, name: str, n: int = 0):
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, n]
        self.spans.append(rec)
        self._stack.append(idx)
        self._active[name] += 1
        rec[1] = perf_counter()
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._active[name] -= 1
            self._stack.pop()

    def wrap(self, name: str, fn, after=None, window_arg: int | None = None, memory: bool = False):
        """Wrapper recording one span per outermost call of `fn`.

        `after(args, result)` runs once the span has closed. `window_arg`
        names the positional argument holding a (W, n) window batch, whose
        n labels the span and whose rows feed the unique-window count.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._active[name]:  # recursion: the outer span covers it
                return fn(*args, **kwargs)
            n = 0
            if window_arg is not None:
                windows = np.asarray(args[window_arg])
                n = int(windows.shape[-1])
            measure = memory and tracer._largest_call(args[0], windows)
            if measure:
                tracemalloc.start()
            try:
                with tracer.span(name, n):
                    result = fn(*args, **kwargs)
            finally:
                if measure:
                    tracer.med_peak_bytes = max(
                        tracer.med_peak_bytes, tracemalloc.get_traced_memory()[1]
                    )
                    tracemalloc.stop()
            try:
                if window_arg is not None:
                    tracer._count_windows(name, args[0], windows)
                if after is not None:
                    after(args, result)
            except (AttributeError, TypeError, ValueError) as exc:
                # The package changed a return type the counter reads:
                # keep the run going and say which counter was lost.
                tracer.missing.append(f"{name}: {exc!r}")
            return result

        return wrapper

    def _largest_call(self, model, windows: np.ndarray) -> bool:
        """True when this `med` call has the largest windows x T so far.

        `med` memory grows with windows x T, so only those calls run under
        tracemalloc, which slows `med` on small batches several times over.
        """
        size = int(np.atleast_2d(windows).shape[0]) * int(np.asarray(model.train_indices).size)
        if size <= self._med_largest:
            return False
        self._med_largest = size
        return True

    def _count_windows(self, name: str, model, windows: np.ndarray) -> None:
        mat = np.ascontiguousarray(np.atleast_2d(windows), dtype=np.int64)
        w, n = mat.shape
        self.counters[f"windows.n{n}"] += w
        self.counters[f"{name}.windows"] += w
        if name == "models.med.score":
            self.counters["med.cells"] += w * n * int(np.asarray(model.train_indices).size)
        self._windows[(name, id(model), n)].append(mat.view(np.dtype((np.void, 8 * n))).ravel())

    def unique_windows(self) -> dict[int, int]:
        """Distinct windows per window length, counted per (method, model)."""
        out: dict[int, int] = defaultdict(int)
        for (_, _, n), parts in self._windows.items():
            out[n] += int(np.unique(np.concatenate(parts)).size)
        return dict(out)

    def summary(self) -> dict:
        """Per-name outermost totals, self times and call counts."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        by_n: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, n) in enumerate(self.spans):
            dur = end - start
            total[name] += dur
            calls[name] += 1
            self_s[name] += dur - child[i]
            if n:
                by_n[f"{name}.n{n}"] += dur
        return {
            "total_s": dict(total),
            "self_s": dict(self_s),
            "calls": dict(calls),
            "by_n_s": dict(by_n),
            "counters": dict(self.counters),
            "unique_windows": {str(k): v for k, v in self.unique_windows().items()},
            "med_peak_mb": self.med_peak_bytes / 2**20,
            "missing": self.missing,
        }


def _appauth_modules() -> list:
    import appauth

    for info in pkgutil.walk_packages(appauth.__path__, "appauth."):
        importlib.import_module(info.name)
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "appauth"]


def _patch_function(tracer: Tracer, modules, attr: str, name: str, **kw) -> None:
    originals = {
        id(getattr(m, attr)): getattr(m, attr)
        for m in modules
        if inspect.isfunction(getattr(m, attr, None))
    }
    if not originals:
        tracer.missing.append(attr)
    for fn in originals.values():
        wrapped = tracer.wrap(name, fn, **kw)
        for m in modules:
            if getattr(m, attr, None) is fn:
                setattr(m, attr, wrapped)


def _patch_method(tracer: Tracer, modules, cls_name: str, attr: str, name: str, **kw) -> None:
    classes = {id(c): c for m in modules if inspect.isclass(c := getattr(m, cls_name, None))}
    fns = [(c, c.__dict__.get(attr)) for c in classes.values()]
    fns = [(c, fn) for c, fn in fns if inspect.isfunction(fn)]
    if not fns:
        tracer.missing.append(f"{cls_name}.{attr}")
    for cls, fn in fns:
        setattr(cls, attr, tracer.wrap(name, fn, **kw))


def instrument(tracer: Tracer) -> None:
    """Wrap the layer boundaries of every loaded appauth module."""
    modules = _appauth_modules()
    c = tracer.counters

    def parsed(args, result):
        _, report = result
        c["ingest.rows"] += report.rows_total
        c["ingest.rows_failed"] += len(report.errors)

    def resampled(args, result):
        c["ingest.samples"] += sum(len(s.samples) for s in result)

    def encoded(args, result):
        c["encode.symbols"] += len(result)

    def prepared(args, result):
        c["evaluation.users_kept"] += len(result)
        c["evaluation.users_dropped"] += len(args[0]) - len(result)

    def scored(args, result):
        c["evaluation.records"] += sum(len(v) for v in result.values())

    def trained(args, result):
        params, trace = result
        c["hmm.em_iterations"] += trace.iterations
        c["hmm.em_steps"] += trace.iterations * int(np.asarray(args[0]).size)

    functions = [
        ("parse_event_log", "ingest.parse", {"after": parsed}),
        ("group_by_user", "ingest.group", {}),
        ("sessionize", "ingest.sessionize", {}),
        ("resample_sessions", "ingest.resample", {"after": resampled}),
        ("split_sessions", "ingest.split", {}),
        ("encode_sessions", "encode.encode", {"after": encoded}),
        ("prepare_cohort", "evaluation.prepare", {"after": prepared}),
        ("prepare_user", "evaluation.prepare_user", {}),
        ("evaluate_methods", "evaluation.protocol", {"after": scored}),
        ("train_hmm_bases", "evaluation.train_bases", {}),
        ("train_cohort_models", "evaluation.train_models", {}),
        ("equal_error_rate", "evaluation.eer", {}),
        ("eer_threshold", "evaluation.eer", {}),
        ("roc_curve", "evaluation.eer", {}),
        ("confusion_counts", "evaluation.confusion", {}),
        ("baum_welch", "models.hmm.baum_welch", {"after": trained}),
        ("train_user_model", "models.fit", {}),
        ("make_cohort", "simulate.make_cohort", {}),
        ("inject_intrusion", "simulate.inject", {}),
        ("cmd_eval", "cli.eval", {}),
        ("write_eer_grid_csv", "cli.write", {}),
        ("write_scores_csv", "cli.write", {}),
        ("write_roc_csv", "cli.write", {}),
        ("write_manifest", "cli.write", {}),
    ]
    for attr, name, kw in functions:
        _patch_function(tracer, modules, attr, name, **kw)

    methods = [
        ("Vocabulary", "project", "encode.project", {}),
        ("MedModel", "score_windows", "models.med.score", {"window_arg": 1, "memory": True}),
        ("MsHmmModel", "score_windows", "models.mshmm.score", {"window_arg": 1}),
        ("LaplaceHmmModel", "score_windows", "models.hmm.score", {"window_arg": 1}),
        ("MarkovChainModel", "score_windows", "models.mc.score", {"window_arg": 1}),
        ("BinaryUnknownModel", "score_windows", "models.binary.score", {"window_arg": 1}),
        ("BinaryUnforeseenModel", "score_windows", "models.binary.score", {"window_arg": 1}),
    ]
    for cls_name, attr, name, kw in methods:
        _patch_method(tracer, modules, cls_name, attr, name, **kw)
