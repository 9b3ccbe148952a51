"""Run telemetry: low-overhead structured observability for every layer.

The paper's contribution is an *adaptive* mechanism, and the ROADMAP
asks for observability on every hot path; this package is the bridge
between the two.  It produces one JSONL stream per observed run
(``results/obs/<run_id>.jsonl``) combining:

* **executor spans** — per-cell wall-clock intervals (``prewarm``,
  ``dispatch``, ``cell``, ``simulate``, ``store_put``) and cell events
  (``hit``/``fail``/``store-fail``) recorded by
  :func:`repro.runtime.execute` and its pool workers
  (:mod:`repro.obs.spans`, :mod:`repro.obs.sink`);
* **backoff telemetry** — the adaptive machinery (threshold raises and
  walk-downs, daemon-interval stretches and resets, relocation
  disable/re-enable, thrash events) as a per-cell time series with
  barrier phase markers, via a kind-filtered
  :class:`~repro.sim.events.EventBus` subscription that keeps the
  run on the replay kernel (:mod:`repro.obs.backoff`).

Enable with ``--obs`` on ``repro run``/``repro matrix``; inspect with
``repro obs summary|timeline|export``.
The measured cost of an observed ``matrix_micro`` is gated at <=10%
(``benchmarks/test_perf_regression.py``).  See ``docs/observability.md``.
"""

from .backoff import BackoffTelemetry
from .report import (backoff_specs, export_records, render_summary,
                     render_timeline, summarize)
from .sink import (DEFAULT_OBS_DIR, ObsSink, default_obs_dir, list_runs,
                   new_run_id, read_records, resolve_run_path)
from .spans import (SpanRecorder, get_default_obs, set_default_obs, use_obs,
                    worker_recorder)

__all__ = [
    "DEFAULT_OBS_DIR",
    "BackoffTelemetry",
    "ObsSink",
    "SpanRecorder",
    "backoff_specs",
    "default_obs_dir",
    "export_records",
    "get_default_obs",
    "list_runs",
    "new_run_id",
    "read_records",
    "render_summary",
    "render_timeline",
    "resolve_run_path",
    "set_default_obs",
    "summarize",
    "use_obs",
    "worker_recorder",
]
