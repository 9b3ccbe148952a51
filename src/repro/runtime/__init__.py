"""Run orchestration: canonical specs, result store, batch executor.

The layer between the simulator core and every harness consumer:

* :class:`RunSpec` — one evaluation-matrix cell as a frozen value with
  a stable content hash;
* :class:`RunStore` — content-addressed on-disk cache of results
  (``results/store/<hash>.json``);
* :class:`TraceStore` — content-addressed on-disk cache of generated
  workload traces (``results/traces/<app>-<hash>.trace``) with a
  per-process memo on top (:func:`fetch_traces`);
* :func:`execute` — store-aware execution of any set of cells with
  dedupe, per-cell fault isolation, retry and resume,
  plus warm pool workers and cost-aware (LPT) dispatch
  (:mod:`repro.runtime.costs`).  :func:`execute` is the one path from
  cells to stored results: it settles (stores, reports) each cell as
  it finishes, so a dead pool worker loses only the cells it had not
  returned; with ``max_workers=1`` it runs inline.  Its write-back,
  :func:`store_result`, is the one the job server (:mod:`repro.serve`)
  uses too.

See ``docs/runtime.md`` for hashing and cache-invalidation rules.
"""

from .costs import ARCH_WEIGHTS, lpt_order, spec_cost, submit_chunksize
from .executor import execute, log_progress, run_spec, store_result
from .spec import SPEC_VERSION, RunFailure, RunSpec, canonical_arch
from .store import (STORE_VERSION, RunStore, get_default_refresh,
                    get_default_store, set_default_store, use_store)
from .tracecache import (TRACE_STORE_VERSION, TraceStore, clear_trace_memo,
                         fetch_traces, get_default_trace_store,
                         set_default_trace_store, trace_key, use_trace_store)

__all__ = [
    "ARCH_WEIGHTS",
    "SPEC_VERSION",
    "STORE_VERSION",
    "TRACE_STORE_VERSION",
    "RunFailure",
    "RunSpec",
    "RunStore",
    "TraceStore",
    "canonical_arch",
    "clear_trace_memo",
    "execute",
    "fetch_traces",
    "get_default_refresh",
    "get_default_store",
    "get_default_trace_store",
    "log_progress",
    "lpt_order",
    "run_spec",
    "set_default_store",
    "set_default_trace_store",
    "spec_cost",
    "store_result",
    "submit_chunksize",
    "trace_key",
    "use_store",
    "use_trace_store",
]
