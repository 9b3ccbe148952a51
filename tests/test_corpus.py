"""Regression corpus replay.

Every subdirectory of ``tests/corpus/`` is a deterministic replay
bundle (see ``tests/corpus/regenerate.py``).  Replaying one must
reproduce *exactly* the violations recorded at capture time -- a
mismatch means either a regression (a clean case now violates) or a
silent behaviour change (a captured failure shifted or vanished), and
both deserve a deliberate corpus regeneration, not a green build.
"""

import json
import os

import pytest

import repro.sim.soatrace as soatrace
from repro.check import ReproBundle, config_from_dict, config_to_dict
from repro.sim.config import SystemConfig

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")
# Only directories that actually hold a bundle: tooling byproducts like
# __pycache__ (regenerate.py gets imported/compiled) are not entries.
ENTRIES = sorted(
    name for name in os.listdir(CORPUS)
    if os.path.isfile(os.path.join(CORPUS, name, "bundle.json")))


# Replay every bundle on both replay loops.  The bundles are recorded at
# ``event`` granularity, whose sweeps read the machine in the middle of
# an access, so replay() sends them to the reference loop under the
# default dispatch too: the vector leg proves that fallback is
# loss-free, and the reference leg, where ``run_vector`` answers
# ``None`` as it does on a host where no kernel loads, proves the
# reference loop reproduces the recorded violations.
_LOOPS = [
    pytest.param(True, id="reference"),
    pytest.param(False, id="vector"),
]


@pytest.mark.parametrize("reference", _LOOPS)
@pytest.mark.parametrize("entry", ENTRIES)
def test_replay_reproduces_recorded_violations(entry, reference, monkeypatch):
    if reference:
        monkeypatch.setattr(soatrace, "run_vector", lambda engine: None)
    bundle = ReproBundle.load(os.path.join(CORPUS, entry))
    result, checker = bundle.replay()
    assert ([v.as_dict() for v in checker.violations]
            == [v.as_dict() for v in bundle.violations])
    assert result.invariant_violations == len(bundle.violations)


def test_corpus_has_entries():
    # Guard against the parametrised test silently collecting nothing.
    assert len(ENTRIES) >= 3
    assert "ascoma-skip-invalidate" in ENTRIES


def test_seeded_entry_is_minimal_and_contextualised():
    bundle = ReproBundle.load(os.path.join(CORPUS, "ascoma-skip-invalidate"))
    assert sum(len(t.kinds) for t in bundle.workload.traces) < 50
    assert bundle.violations
    first = bundle.violations[0]
    assert first.invariant == "cache-reachability"
    assert first.node >= 0 and first.page >= 0 and first.clock >= 0


#: Config keys the committed bundles carry for fields since retired.
RETIRED = {"tlb_entries": 128}
RETIRED_KERNEL = {"tlb_refill": 40}


@pytest.mark.parametrize("entry", ENTRIES)
def test_bundles_load_with_retired_keys_ignored(entry):
    """The corpus files stay as committed: their configs still carry
    the retired keys, which load as if absent, and every other key
    round-trips."""
    path = os.path.join(CORPUS, entry)
    with open(os.path.join(path, "bundle.json")) as f:
        saved = json.load(f)["config"]
    kernel = dict(saved.pop("kernel"))
    assert {key: saved.pop(key) for key in RETIRED} == RETIRED
    assert {key: kernel.pop(key) for key in RETIRED_KERNEL} == RETIRED_KERNEL
    assert (config_to_dict(ReproBundle.load(path).config)
            == {**saved, "kernel": kernel})


def test_unknown_config_key_still_raises():
    data = config_to_dict(SystemConfig())
    with pytest.raises(TypeError):
        config_from_dict({**data, "l2_entries": 128})
    with pytest.raises(TypeError):
        config_from_dict({**data, "kernel": {**data["kernel"], "l2_refill": 40}})
