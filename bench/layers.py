"""Per-layer timing of `semaug`, recorded from outside the program.

`Tracer.install()` replaces each traced function with a timing wrapper
wherever its callers look it up: every `semaug.*` module attribute bound
to the function object, or the class attribute for a method.  Each call
is a span; a span's self time is its duration minus the durations of the
traced spans it encloses.  `Tracer.uninstall()` puts the originals back,
so untraced units run the program exactly as shipped.
"""

from __future__ import annotations

import importlib
import sys
import time

# (metric prefix, module, attribute path) for every traced function.
FUNCTIONS = [
    ("cli.entry", "semaug.cli", "entry"),
    ("config.resolve", "semaug.config", "resolve"),
    ("config.write_config", "semaug.config", "write_config"),
    ("data.generate", "semaug.data", "generate"),
    ("data.write_dataset", "semaug.data", "write_dataset"),
    ("data.read_dataset", "semaug.data", "read_dataset"),
    ("data.write_embeddings", "semaug.data", "write_embeddings"),
    ("data.read_embeddings", "semaug.data", "read_embeddings"),
    ("embedder.TinyEmbedder.forward", "semaug.embedder", "TinyEmbedder.forward"),
    ("embedder.TinyEmbedder.backward", "semaug.embedder", "TinyEmbedder.backward"),
    ("losses.softmax_ce", "semaug.losses", "softmax_ce"),
    ("losses.isda_bound", "semaug.losses", "isda_bound"),
    ("losses.am_softmax", "semaug.losses", "am_softmax"),
    ("losses.daam_softmax", "semaug.losses", "daam_softmax"),
    ("losses.dasa_bound", "semaug.losses", "dasa_bound"),
    ("losses.loss_gradient_check", "semaug.losses", "loss_gradient_check"),
    ("covariance.CovarianceBank.update", "semaug.covariance", "CovarianceBank.update"),
    ("covariance.quadratic_forms", "semaug.covariance", "quadratic_forms"),
    ("covariance.apply_cov", "semaug.covariance", "apply_cov"),
    ("covariance.sampler_factor", "semaug.covariance", "sampler_factor"),
    ("covariance.save_bank", "semaug.covariance", "save_bank"),
    ("trainer.SgdNesterov.step", "semaug.trainer", "SgdNesterov.step"),
    ("trainer.save_model", "semaug.trainer", "save_model"),
    ("trainer.save_metrics", "semaug.trainer", "save_metrics"),
    ("metrics.build_trials", "semaug.metrics", "build_trials"),
    ("metrics.score_trials", "semaug.metrics", "score_trials"),
    ("metrics.compute_eer", "semaug.metrics", "compute_eer"),
    ("metrics.compute_min_dcf", "semaug.metrics", "compute_min_dcf"),
    ("metrics.write_trials", "semaug.metrics", "write_trials"),
    ("metrics.read_trials", "semaug.metrics", "read_trials"),
    ("metrics.write_scores", "semaug.metrics", "write_scores"),
    ("montecarlo.mc_expected_ce", "semaug.montecarlo", "mc_expected_ce"),
    ("montecarlo.mc_expected_margin", "semaug.montecarlo", "mc_expected_margin"),
    ("montecarlo.sample_augmented", "semaug.montecarlo", "sample_augmented"),
    ("suites.jensen_suite", "semaug.suites", "jensen_suite"),
    ("suites.gradcheck_suite", "semaug.suites", "gradcheck_suite"),
    ("suites.composed_gradcheck", "semaug.suites", "composed_gradcheck"),
]
# Traced for their self time only: the training loop's own time per
# sample visit is reported instead of per-call figures.
SPAN_ONLY = [("trainer.train", "semaug.trainer", "train")]
MC_SPANS = ("montecarlo.mc_expected_ce", "montecarlo.mc_expected_margin")

# Per-layer metrics: name -> (unit, better).
PER_LAYER = {}
for _name, _, _ in FUNCTIONS:
    PER_LAYER[f"{_name}.us"] = ("us", "lower")
    PER_LAYER[f"{_name}.calls"] = ("count", "lower")
PER_LAYER.update({
    "trainer.train.self_us_per_visit": ("us", "lower"),
    "montecarlo.draws_per_s": ("1/s", "higher"),
    "covariance.bank_mb": ("MB", "lower"),
    "covariance.quadratic_forms.mflop": ("Mflop", "lower"),
    "trace.overhead_pct": ("%", "lower"),
})


class _Stat:
    __slots__ = ("calls", "self_s", "incl_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0


class Tracer:
    """Span timer for FUNCTIONS and SPAN_ONLY; ``clock`` returns seconds."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {name: _Stat() for name, _, _ in FUNCTIONS + SPAN_ONLY}
        self.stack = []         # [child seconds] per open span
        self.patches = []       # (owner, attribute, original)
        self.absent = []
        self.draws = 0          # rows returned by sample_augmented
        self.qf_madds = 0       # multiply-adds implied by quadratic_forms shapes
        self.bank_bytes = 0     # largest bank passed to save_bank

    def _wrap(self, name, fn):
        stat = self.stats[name]
        stack = self.stack
        clock = self.clock
        observe = {"montecarlo.sample_augmented": self._count_draws,
                   "covariance.quadratic_forms": self._count_madds,
                   "covariance.save_bank": self._size_bank}.get(name)

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                stat.calls += 1
                stat.incl_s += dur
                stat.self_s += dur - child
                if stack:
                    stack[-1] += dur
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _count_draws(self, args, result):
        self.draws += 1 if result.ndim == 1 else result.shape[0]

    def _count_madds(self, args, result):
        stats, weights = args[0], args[1]
        dim = weights.shape[1]
        self.qf_madds += weights.shape[0] * dim * (dim if stats.cov.ndim == 2 else 1)

    def _size_bank(self, args, result):
        bank = args[0]
        cov_len = bank.dim * bank.dim if bank.mode == "full" else bank.dim
        self.bank_bytes = max(self.bank_bytes, 8 * bank.num_classes * (bank.dim + cov_len))

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "semaug" or n.startswith("semaug.")) and m is not None]
        for name, modname, attr in FUNCTIONS + SPAN_ONLY:
            try:
                owner = importlib.import_module(modname)
                parts = attr.split(".")
                for p in parts[:-1]:
                    owner = getattr(owner, p)
                orig = getattr(owner, parts[-1])
            except (ImportError, AttributeError):
                if name not in self.absent:
                    self.absent.append(name)
                continue
            wrapper = self._wrap(name, orig)
            if len(parts) > 1:
                sites = [owner]     # a method: its class is the one lookup site
            else:
                sites = [m for m in modules if getattr(m, parts[-1], None) is orig]
            for site in sites:
                self.patches.append((site, parts[-1], orig))
                setattr(site, parts[-1], wrapper)

    def uninstall(self) -> None:
        for site, attr, orig in reversed(self.patches):
            setattr(site, attr, orig)
        self.patches.clear()

    def metrics(self, units: int, visits: int) -> dict:
        """Per-layer metrics over ``units`` traced units holding ``visits``
        training-sample visits."""
        out = {}
        for name, _, _ in FUNCTIONS:
            st = self.stats[name]
            out[f"{name}.us"] = 1e6 * st.self_s / st.calls if st.calls else 0.0
            out[f"{name}.calls"] = st.calls / units
        train = self.stats["trainer.train"]
        out["trainer.train.self_us_per_visit"] = 1e6 * train.self_s / visits if visits else 0.0
        mc_s = sum(self.stats[n].incl_s for n in MC_SPANS)
        out["montecarlo.draws_per_s"] = self.draws / mc_s if mc_s else 0.0
        out["covariance.bank_mb"] = self.bank_bytes / 1e6
        qf_calls = self.stats["covariance.quadratic_forms"].calls
        out["covariance.quadratic_forms.mflop"] = self.qf_madds / qf_calls / 1e6 if qf_calls else 0.0
        return out
