"""Spans around seqscan's module boundaries, recorded from outside.

seqscan's modules import each other by name (``from seqscan.models import
sample``), so a function is wrapped in the namespace where its caller looks
it up, not where it is defined. Every wrapped call is one span; spans are
aggregated in memory as they close (calls, total time, time covered by
child spans), so a layer's self time is its spans' duration minus their
children's. Nothing under ``src/`` is edited; the wrappers are removed when
the tracer is closed.
"""

from __future__ import annotations

import importlib
import time

LAYERS = ("harness", "engine", "policy", "models", "sprt", "belief", "composite")

# (namespace the caller looks the name up in, attribute, layer it belongs to).
# A dotted attribute names a method on a class of that namespace.
SPANS = (
    ("seqscan.cli", "main", "cli"),
    ("seqscan.cli", "parse_config", "harness"),
    ("seqscan.cli", "run_experiment", "harness"),
    ("seqscan.cli", "emit_csv", "harness"),
    ("seqscan.harness", "run_episode", "engine"),
    ("seqscan.harness", "lower_bound_oracle", "engine"),
    ("seqscan.harness", "finite_kl", "models"),
    ("seqscan.harness", "expected_sample_sizes", "sprt"),
    ("seqscan.engine", "apply_switching_delay", "engine"),
    ("seqscan.engine", "select_cl", "policy"),
    ("seqscan.engine", "ol_order", "policy"),
    ("seqscan.engine", "exploration_schedule", "policy"),
    ("seqscan.engine", "PolicyState.fresh", "policy"),
    ("seqscan.engine", "PolicyState.declare", "policy"),
    ("seqscan.engine", "sample", "models"),
    ("seqscan.engine", "log_density", "models"),
    ("seqscan.engine", "finite_kl", "models"),
    ("seqscan.engine", "update_llr", "sprt"),
    ("seqscan.engine", "check_stop", "sprt"),
    ("seqscan.engine", "expected_sample_sizes", "sprt"),
    ("seqscan.engine", "wald_boundaries", "sprt"),
    ("seqscan.engine", "bayes_update", "belief"),
    ("seqscan.engine", "expected_detection_time", "belief"),
    ("seqscan.engine", "index", "belief"),
    ("seqscan.engine", "init_state", "composite"),
    ("seqscan.engine", "composite_boundaries", "composite"),
    ("seqscan.engine", "ingest", "composite"),
    ("seqscan.engine", "estimated_belief_update", "composite"),
    ("seqscan.engine", "check_stop_composite", "composite"),
    ("seqscan.engine", "estimated_expected_sample_size", "composite"),
    ("seqscan.engine", "glr_statistic", "composite"),
    ("seqscan.composite", "log_density", "models"),
    ("seqscan.composite", "finite_kl", "models"),
    ("seqscan.composite", "ParameterGrid.indices", "composite"),
    ("seqscan.policy", "round_robin_next_multi", "policy"),
)


class Tracer:
    """Installs the SPANS wrappers on entry and removes them on exit.

    ``stats`` maps ``"<layer>.<function>"`` to ``[calls, total_s, child_s]``;
    the same function looked up from two namespaces shares one entry.
    """

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self.missing: list[str] = []
        self._stack = [0.0]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, key: str, fn):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - start
                child = stack.pop()
                stack[-1] += span
                stat[0] += 1
                stat[1] += span
                stat[2] += child

        return traced

    def __enter__(self) -> "Tracer":
        for module_name, attr, layer in SPANS:
            owner = importlib.import_module(module_name)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            # a later refactor may remove a name; its time then shows up in
            # the caller's self time, and the run lists what was skipped
            raw = vars(owner).get(name) if owner is not None else None
            if raw is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            key = f"{layer}.{name}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(key, raw.__func__))
            else:
                wrapped = self._wrap(key, raw)
            setattr(owner, name, wrapped)
            self._undo.append((owner, name, raw))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, name, raw = self._undo.pop()
            setattr(owner, name, raw)

    def snapshot(self) -> dict[str, tuple[int, float, float]]:
        return {k: (v[0], v[1], v[2]) for k, v in self.stats.items()}


class EpisodeClock:
    """Times every call to ``seqscan.harness.run_episode`` from outside and
    counts the observations each returned episode made."""

    def __init__(self) -> None:
        self.episode_ms: list[float] = []
        self.observations = 0
        self._harness = None
        self._raw = None

    def __enter__(self) -> "EpisodeClock":
        harness = importlib.import_module("seqscan.harness")
        raw = harness.run_episode
        clock = time.perf_counter
        episode_ms = self.episode_ms

        def timed(*args, **kwargs):
            start = clock()
            result = raw(*args, **kwargs)
            episode_ms.append((clock() - start) * 1e3)
            self.observations += sum(result.samples)
            return result

        harness.run_episode = timed
        self._harness, self._raw = harness, raw
        return self

    def __exit__(self, *exc) -> None:
        self._harness.run_episode = self._raw

    def reset(self) -> None:
        self.episode_ms.clear()
        self.observations = 0
