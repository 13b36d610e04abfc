"""In-memory tracing of one pipeline run, built only from benchmark files.

``Tracer.install()`` replaces public functions at the places where
``surgebma.cli`` and ``surgebma.priors`` look them up (module attributes,
plus the load/save methods of the ensemble class) and restores them on exit.
Stage and per-structure calls become spans with a parent id; per-eval calls
of the density closures are aggregated into counts and log-binned
histograms instead of one span each. A span's self time is its duration
minus the time covered by its child spans and by the density evals made
while it was the innermost open span, the tracer's bookkeeping of each eval
included.

Tracing costs time, so nothing measured here feeds an end-to-end metric.
"""

from __future__ import annotations

import contextlib
import functools
import math
import time
from collections import Counter, defaultdict

LEVELS = ("ST", "NS1", "NS2", "NS3")

# (metric name, unit, better); every traced run reports all of them, so a
# layer that a workload bypasses reads 0. models.logpost_* cover the
# log-posterior evals of the sampler and the bridge; the MLE objective's
# log-likelihood evals are priors.loglik_us, so a change in how many evals
# Nelder-Mead makes does not shift the log-posterior quantiles.
PER_LAYER = [
    ("preprocess.read_hourly_csv_s", "s", "lower"),
    ("preprocess.rows_per_s", "rows/s", "higher"),
    ("preprocess.preprocess_station_s", "s", "lower"),
    ("preprocess.events", "count", "higher"),
    ("config.build_covariates_s", "s", "lower"),
    ("config.build_covariates_calls", "count", "lower"),
    *((f"priors.mle_fit_s.{lv}", "s", "lower") for lv in LEVELS),
    ("priors.mle_objective_evals", "count", "lower"),
    *((f"priors.loglik_us.{lv}.p50", "us", "lower") for lv in LEVELS),
    ("priors.fit_all_priors_s", "s", "lower"),
    *((f"models.logpost_us.{lv}.{q}", "us", "lower") for lv in LEVELS for q in ("p50", "p99")),
    ("models.logpost_evals", "count", "lower"),
    ("models.logpost_neginf_frac", "ratio", "lower"),
    ("sampler.run_chains_s", "s", "lower"),
    *((f"sampler.iter_us.{lv}", "us", "lower") for lv in LEVELS),
    ("sampler.step_self_us", "us", "lower"),
    ("sampler.pool_and_thin_s", "s", "lower"),
    ("sampler.acceptance", "ratio", "higher"),
    ("sampler.max_psrf", "ratio", "lower"),
    ("evidence.bridge_s", "s", "lower"),
    ("evidence.bridge_self_s", "s", "lower"),
    ("evidence.logq_evals", "count", "lower"),
    ("evidence.bridge_iterations", "count", "lower"),
    ("hazard.ensemble_return_levels_s", "s", "lower"),
    ("hazard.bma_mixture_s", "s", "lower"),
    ("hazard.hazard_report_s", "s", "lower"),
    ("hazard.flagged_draws", "count", "lower"),
    ("hazard.clamped_draws", "count", "lower"),
    ("cli.inputs_load_s", "s", "lower"),
    ("cli.inputs_load_calls", "count", "lower"),
    ("cli.ensemble_load_s", "s", "lower"),
    ("cli.ensemble_save_s", "s", "lower"),
    ("cli.project_self_s", "s", "lower"),
    ("cli.calibrate_attributed_frac", "ratio", "higher"),
    ("cli.artifact_bytes", "bytes", "lower"),
    ("cli.tracing_overhead_s", "s", "lower"),
]


class Histogram:
    """Log-binned durations: 16 bins per doubling, so a quantile is within 2.2%."""

    BINS_PER_OCTAVE = 16

    def __init__(self):
        self.bins: Counter = Counter()
        self.n = 0
        self.total = 0.0

    def add(self, seconds: float) -> None:
        self.n += 1
        self.total += seconds
        self.bins[math.floor(math.log2(max(seconds, 1e-9)) * self.BINS_PER_OCTAVE)] += 1

    def quantile(self, q: float) -> float:
        """Geometric centre of the bin holding the q-quantile; 0 when empty."""
        if not self.n:
            return 0.0
        rank = q * (self.n - 1)
        seen = 0
        for b in sorted(self.bins):
            seen += self.bins[b]
            if seen > rank:
                return 2.0 ** ((b + 0.5) / self.BINS_PER_OCTAVE)
        raise AssertionError("unreachable: rank below total count")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []  # finished spans, in end order
        self._open: list[dict] = []
        self._next_id = 0
        self.evals: dict[tuple[str, str], Histogram] = defaultdict(Histogram)  # (source, level)
        self.neginf: Counter = Counter()  # evals returning -inf, by source
        self.rows_read = 0
        self.events = 0
        self.flagged = 0
        self.clamped = 0
        self.bridge_iterations = 0
        self.diagnostics: list[dict] = []  # pooled-ensemble diagnostics per structure

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": self._next_id,
            "parent": self._open[-1]["id"] if self._open else None,
            "name": name,
            **attrs,
            "start": time.perf_counter(),
            "covered": 0.0,
        }
        self._next_id += 1
        self._open.append(rec)
        try:
            yield rec
        finally:
            self._open.pop()
            rec["end"] = time.perf_counter()
            duration = rec["end"] - rec["start"]
            rec["self_s"] = duration - rec.pop("covered")
            rec["duration_s"] = duration
            if self._open:
                self._open[-1]["covered"] += duration
            self.spans.append(rec)

    def record_eval(self, source: str, level: str, seconds: float, value: float) -> None:
        self.evals[(source, level)].add(seconds)
        if value == -math.inf:
            self.neginf[source] += 1

    def cover(self, seconds: float) -> None:
        """Take ``seconds`` out of the innermost open span's self time."""
        if self._open:
            self._open[-1]["covered"] += seconds

    # -- installation --------------------------------------------------------

    def _spanned(self, name, fn, attrs=None, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, **(attrs(*args, **kwargs) if attrs else {})):
                out = fn(*args, **kwargs)
            if on_result is not None:
                on_result(out)
            return out

        return wrapper

    def _density_factory(self, source, factory):
        @functools.wraps(factory)
        def make(structure, *args, **kwargs):
            density = factory(structure, *args, **kwargs)
            level = structure.level.value
            clock = time.perf_counter

            def traced(x):
                t0 = clock()
                value = density(x)
                t1 = clock()
                self.record_eval(source, level, t1 - t0, value)
                # the bookkeeping is tracer cost, not the enclosing span's
                self.cover(clock() - t0)
                return value

            return traced

        return make

    @contextlib.contextmanager
    def install(self):
        from surgebma import cli, priors

        def by_structure(structure, *a, **k):
            return {"structure": structure.id, "level": structure.level.value}

        def by_ensemble(ensemble, *a, **k):
            return {"structure": ensemble.structure.id}

        def on_return_levels(rl):
            self.flagged += rl.n_flagged
            self.clamped += rl.n_clamped

        def on_pooled(ensemble):
            self.diagnostics.append(ensemble.diagnostics)

        def add_rows(series):
            self.rows_read += series.levels.size

        def add_events(data):
            self.events += data.n_events

        def add_iterations(estimate):
            self.bridge_iterations += estimate.iterations_used

        def run_chains_attrs(structure, logpost, start, config):
            return {
                "structure": structure.id,
                "level": structure.level.value,
                "iterations": config.n_chains * config.n_iterations,
            }

        stage_fns = {
            "cmd_preprocess": "preprocess",
            "cmd_fit_priors": "fit-priors",
            "cmd_calibrate": "calibrate",
            "cmd_evidence": "evidence",
            "cmd_project": "project",
            "cmd_report": "report",
        }
        patches = [(cli, attr, self._spanned(f"stage.{stage}", getattr(cli, attr)))
                   for attr, stage in stage_fns.items()]
        patches += [
            (cli, "_calibrate_one", self._spanned(
                "cli.calibrate_one", cli._calibrate_one, lambda config, sid: {"structure": sid})),
            (cli, "_load_inputs", self._spanned("cli.inputs_load", cli._load_inputs)),
            (cli, "read_hourly_csv", self._spanned(
                "preprocess.read_hourly_csv", cli.read_hourly_csv, on_result=add_rows)),
            (cli, "preprocess_station", self._spanned(
                "preprocess.preprocess_station", cli.preprocess_station, on_result=add_events)),
            (cli, "build_covariates", self._spanned("config.build_covariates", cli.build_covariates)),
            (cli, "mle_fit", self._spanned("priors.mle_fit", cli.mle_fit, by_structure)),
            (cli, "fit_all_priors", self._spanned("priors.fit_all_priors", cli.fit_all_priors)),
            (cli, "run_chains", self._spanned("sampler.run_chains", cli.run_chains, run_chains_attrs)),
            (cli, "pool_and_thin", self._spanned(
                "sampler.pool_and_thin", cli.pool_and_thin, on_result=on_pooled)),
            (cli, "bridge_evidence", self._spanned(
                "evidence.bridge", cli.bridge_evidence, by_ensemble, add_iterations)),
            (cli, "ensemble_return_levels", self._spanned(
                "hazard.ensemble_return_levels", cli.ensemble_return_levels, by_ensemble,
                on_return_levels)),
            (cli, "bma_mixture", self._spanned("hazard.bma_mixture", cli.bma_mixture)),
            (cli, "hazard_report", self._spanned("hazard.hazard_report", cli.hazard_report)),
            (cli, "make_logpost", self._density_factory("sampler", cli.make_logpost)),
            (cli, "make_logpost_on_active", self._density_factory(
                "evidence", cli.make_logpost_on_active)),
            (priors, "make_loglik", self._density_factory("priors", priors.make_loglik)),
        ]
        ensemble_cls = cli.PosteriorEnsemble
        load = ensemble_cls.__dict__["load"].__func__
        save = ensemble_cls.save
        patches += [
            (ensemble_cls, "load", classmethod(self._spanned(
                "cli.ensemble_load", load, lambda cls, path, structure, *a, **k: {
                    "structure": structure.id}))),
            (ensemble_cls, "save", self._spanned("cli.ensemble_save", save, by_ensemble)),
        ]
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, new in patches:
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, old in saved:
                setattr(owner, attr, old)

    # -- summary -------------------------------------------------------------

    def _named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def _total(self, name: str, key: str = "duration_s") -> float:
        return sum((s[key] for s in self._named(name)), 0.0)

    def per_layer(self, artifact_bytes: int, tracing_overhead_s: float) -> dict[str, float]:
        """Every PER_LAYER metric from the spans and aggregates of one run."""
        m: dict[str, float] = {}
        read_s = self._total("preprocess.read_hourly_csv")
        m["preprocess.read_hourly_csv_s"] = read_s
        m["preprocess.rows_per_s"] = self.rows_read / read_s if read_s else 0.0
        m["preprocess.preprocess_station_s"] = self._total("preprocess.preprocess_station")
        m["preprocess.events"] = self.events
        m["config.build_covariates_s"] = self._total("config.build_covariates")
        m["config.build_covariates_calls"] = len(self._named("config.build_covariates"))

        mle = self._named("priors.mle_fit")
        for lv in LEVELS:
            m[f"priors.mle_fit_s.{lv}"] = sum(s["duration_s"] for s in mle if s["level"] == lv)
        m["priors.mle_objective_evals"] = sum(
            h.n for (src, _), h in self.evals.items() if src == "priors")
        for lv in LEVELS:
            m[f"priors.loglik_us.{lv}.p50"] = self._merged(("priors",), lv).quantile(0.5) * 1e6
        m["priors.fit_all_priors_s"] = self._total("priors.fit_all_priors")

        logpost_sources = ("sampler", "evidence")
        n_evals = 0
        for lv in LEVELS:
            merged = self._merged(logpost_sources, lv)
            n_evals += merged.n
            m[f"models.logpost_us.{lv}.p50"] = merged.quantile(0.5) * 1e6
            m[f"models.logpost_us.{lv}.p99"] = merged.quantile(0.99) * 1e6
        m["models.logpost_evals"] = n_evals
        neginf = sum(self.neginf[src] for src in logpost_sources)
        m["models.logpost_neginf_frac"] = neginf / n_evals if n_evals else 0.0

        chains = self._named("sampler.run_chains")
        iterations = sum(s["iterations"] for s in chains)
        m["sampler.run_chains_s"] = sum(s["duration_s"] for s in chains)
        for lv in LEVELS:
            mine = [s for s in chains if s["level"] == lv]
            its = sum(s["iterations"] for s in mine)
            m[f"sampler.iter_us.{lv}"] = (
                sum(s["duration_s"] for s in mine) / its * 1e6 if its else 0.0)
        m["sampler.step_self_us"] = (
            sum(s["self_s"] for s in chains) / iterations * 1e6 if iterations else 0.0)
        m["sampler.pool_and_thin_s"] = self._total("sampler.pool_and_thin")
        acc = [a for d in self.diagnostics for a in d["acceptance"]]
        m["sampler.acceptance"] = sum(acc) / len(acc) if acc else 0.0
        m["sampler.max_psrf"] = max(
            (r for d in self.diagnostics for r in d["psrf"].values()), default=0.0)

        m["evidence.bridge_s"] = self._total("evidence.bridge")
        m["evidence.bridge_self_s"] = self._total("evidence.bridge", "self_s")
        m["evidence.logq_evals"] = sum(
            h.n for (src, _), h in self.evals.items() if src == "evidence")
        m["evidence.bridge_iterations"] = self.bridge_iterations

        m["hazard.ensemble_return_levels_s"] = self._total("hazard.ensemble_return_levels")
        m["hazard.bma_mixture_s"] = self._total("hazard.bma_mixture")
        m["hazard.hazard_report_s"] = self._total("hazard.hazard_report")
        m["hazard.flagged_draws"] = self.flagged
        m["hazard.clamped_draws"] = self.clamped

        m["cli.inputs_load_s"] = self._total("cli.inputs_load")
        m["cli.inputs_load_calls"] = len(self._named("cli.inputs_load"))
        m["cli.ensemble_load_s"] = self._total("cli.ensemble_load")
        m["cli.ensemble_save_s"] = self._total("cli.ensemble_save")
        m["cli.project_self_s"] = self._total("stage.project", "self_s")
        calibrate_s = self._total("stage.calibrate")
        attributed = (
            sum(s["duration_s"] for s in mle if self._inside(s, "stage.calibrate"))
            + m["sampler.run_chains_s"] + m["sampler.pool_and_thin_s"])
        m["cli.calibrate_attributed_frac"] = attributed / calibrate_s if calibrate_s else 0.0
        m["cli.artifact_bytes"] = artifact_bytes
        m["cli.tracing_overhead_s"] = tracing_overhead_s
        missing = {name for name, _, _ in PER_LAYER} ^ set(m)
        if missing:
            raise AssertionError(f"per-layer metrics out of sync: {sorted(missing)}")
        return m

    def _merged(self, sources: tuple, level: str) -> Histogram:
        merged = Histogram()
        for (src, lv), h in self.evals.items():
            if src in sources and lv == level:
                merged.bins.update(h.bins)
                merged.n += h.n
        return merged

    def _inside(self, span: dict, ancestor: str) -> bool:
        by_id = {s["id"]: s for s in self.spans}
        parent = span["parent"]
        while parent is not None:
            if by_id[parent]["name"] == ancestor:
                return True
            parent = by_id[parent]["parent"]
        return False

    def export(self) -> dict:
        """Spans relative to the first span's start, plus the eval histograms."""
        t0 = min((s["start"] for s in self.spans), default=0.0)
        spans = [
            {**{k: v for k, v in s.items() if k not in ("start", "end")},
             "start_s": s["start"] - t0, "end_s": s["end"] - t0}
            for s in sorted(self.spans, key=lambda s: s["id"])
        ]
        evals = {
            f"{src}.{lv}": {"n": h.n, "total_s": h.total,
                            "p50_us": h.quantile(0.5) * 1e6, "p99_us": h.quantile(0.99) * 1e6}
            for (src, lv), h in sorted(self.evals.items())
        }
        return {"spans": spans, "evals": evals}
