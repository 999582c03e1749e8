"""Spans and counters recorded from outside the package.

The tracer wraps public functions of the `selfsim` modules. A name bound by
`from .x import f` is a separate global in every importing module, so each
wrapper is installed in every `selfsim` module that holds the original
function object; calls through any of those globals are then recorded.
Modules are reached through `importlib`, because `selfsim.histogram` is the
re-exported function, not the submodule.

Each span records its total time, its self time (total minus the time of
spans nested in it) and its time per parent span, so that binning time
splits between `histogram`, `convolve_hist` and `histogram_project`.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from collections import defaultdict


def _histogram_counts(tr, args, kwargs, hist):
    ifs = args[0] if args else kwargs["ifs"]
    words = ifs.m ** hist.depth_used
    tr.count["histogram.words"] += words
    tr.count["histogram.cells"] += hist.num_cells
    # Computed: one float per coordinate plus one weight per word.
    tr.count["histogram.word_mb"] += words * 8 * (ifs.ambient_dim + 1) / 1e6
    tr.count["histogram.gap_sum"] += hist.total_upper() - hist.total_lower()
    tr.count["histogram.calls"] += 1


def _convolve_counts(tr, args, kwargs, hist):
    h1, h2 = args[0], args[1]
    pairs = h1.num_cells * h2.num_cells
    tr.count["transforms.convolve_hist.pairs"] += pairs
    # Computed: pair_lo, pair_hi, low_w and up_w, one float64 per pair each.
    tr.count["transforms.convolve_hist.pair_mb"] += pairs * 4 * 8 / 1e6


def _table_counts(tr, args, kwargs, table):
    tr.count["dimension.levels"] += len(table.levels)


def _estimate_counts(tr, args, kwargs, est):
    tr.peak("dimension.residual_max", est.residual)


def _ft_counts(tr, args, kwargs, result):
    tr.count["fourier.ft_eval.calls"] += 1
    tr.peak("fourier.err_max", result[1])


def _sequence_counts(tr, args, kwargs, rep):
    tr.count["ekscan.sequences"] += sum(rep.counts)


def _badness_counts(tr, args, kwargs, rep):
    tr.count["ekscan.grid_points"] += rep.spec.t_grid * rep.spec.N


# (module, function, hook run on the result). The span is named
# "<module>.<function>".
WRAPPED = (
    ("ifs", "ifs_from_json", None),
    ("histogram", "histogram", _histogram_counts),
    ("histogram", "bin_weighted_intervals", None),
    ("histogram", "moment_sums", None),
    ("histogram", "entropy_sum", None),
    ("transforms", "load_measure_spec", None),
    ("transforms", "convolve_hist", _convolve_counts),
    ("transforms", "histogram_project", None),
    ("dimension", "table_from_histograms", _table_counts),
    ("dimension", "estimate_Dq", _estimate_counts),
    ("dimension", "estimate_D1", _estimate_counts),
    ("fourier", "ft_eval", _ft_counts),
    ("fourier", "decay_fit", None),
    ("ekscan", "ek_count_sequences", _sequence_counts),
    ("ekscan", "ek_badness", _badness_counts),
    ("ekscan", "ek_sweep", None),
)


class Tracer:
    """In-memory span and counter store for one traced pass."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.by_parent = defaultdict(float)
        self.count = defaultdict(float)
        self._stack = []
        self._installed = []

    def peak(self, name: str, value: float) -> None:
        self.count[name] = max(self.count[name], float(value))

    def _close(self, name: str, frame: list, dt: float) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.total[name] += dt
        self.self_time[name] += dt - frame[1]
        self.by_parent[(name, parent[0] if parent else None)] += dt
        if parent is not None:
            parent[1] += dt

    @contextlib.contextmanager
    def span(self, name: str):
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, frame, time.perf_counter() - t0)

    def _wrap(self, name, fn, hook):
        # Inline rather than through span(): ft_eval runs ~80k times a pass.
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, frame, time.perf_counter() - t0)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Replace every binding of each wrapped function in selfsim.*."""
        for mod_name, attr, hook in WRAPPED:
            module = importlib.import_module(f"selfsim.{mod_name}")
            original = getattr(module, attr)
            wrapper = self._wrap(f"{mod_name}.{attr}", original, hook)
            for name, mod in list(sys.modules.items()):
                if (name == "selfsim" or name.startswith("selfsim.")) and \
                        mod.__dict__.get(attr) is original:
                    setattr(mod, attr, wrapper)
                    self._installed.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
