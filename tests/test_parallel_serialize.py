"""Tests for matrix execution over the executor and for the config and
result dict round-trips."""

import json
import math

from repro.harness.experiment import run_app
from repro.harness.parallel import matrix_specs
from repro.kernel.costs import KernelCosts
from repro.runtime import RunSpec, execute
from repro.sim.config import SystemConfig, config_from_dict, config_to_dict
from repro.sim.stats import RunResult

SCALE = 0.2


class TestSerializeConfig:
    def test_roundtrip_default(self):
        cfg = SystemConfig()
        again = config_from_dict(config_to_dict(cfg))
        assert again == cfg

    def test_roundtrip_custom(self):
        cfg = SystemConfig(n_nodes=4, memory_pressure=0.9, l1_ways=2,
                           kernel=KernelCosts(page_remap=1234))
        again = config_from_dict(config_to_dict(cfg))
        assert again == cfg
        assert again.kernel.page_remap == 1234

    def test_dict_is_json_compatible(self):
        json.dumps(config_to_dict(SystemConfig()))


class TestSerializeResults:
    def test_result_roundtrip(self):
        result = run_app("fft", "ASCOMA", 0.5, scale=SCALE)
        again = RunResult.from_dict(result.to_dict())
        assert again.architecture == result.architecture
        assert again.aggregate().as_dict() == result.aggregate().as_dict()
        assert again.execution_time() == result.execution_time()


class TestParallel:
    def test_run_cell_matches_run_app(self):
        a = RunSpec("fft", "CCNUMA", 0.5, SCALE).execute()
        b = run_app("fft", "CCNUMA", 0.5, scale=SCALE)
        assert a.aggregate().as_dict() == b.aggregate().as_dict()

    def test_inline_path(self):
        specs = [RunSpec("fft", "CCNUMA", 0.5, SCALE),
                 RunSpec("fft", "ASCOMA", 0.5, SCALE)]
        results = execute(specs, max_workers=1)
        assert set(results) == set(specs)

    def test_parallel_matches_inline(self):
        specs = [RunSpec("fft", "CCNUMA", 0.5, SCALE),
                 RunSpec("fft", "ASCOMA", 0.5, SCALE),
                 RunSpec("fft", "SCOMA", 0.9, SCALE)]
        inline = execute(specs, max_workers=1)
        fanned = execute(specs, max_workers=2)
        for spec in specs:
            assert (inline[spec].aggregate().as_dict()
                    == fanned[spec].aggregate().as_dict())

    def test_matrix_parallel_shape(self):
        out = execute(matrix_specs(("fft",), SCALE), max_workers=2)
        # CC-NUMA is pressure-insensitive: one cell per app.
        assert [spec.arch for spec in out].count("CCNUMA") == 1
        assert any(spec.arch == "ASCOMA" for spec in out)

    def test_matrix_results_are_finite(self):
        out = execute(matrix_specs(("fft",), SCALE), max_workers=2)
        for result in out.values():
            total = result.aggregate().total_cycles()
            assert total > 0 and math.isfinite(total)

    def test_matrix_parallel_plumbs_quantum(self):
        """--quantum must reach every spec of the matrix."""
        specs = matrix_specs(("fft",), SCALE, quantum=512)
        assert specs and all(spec.quantum == 512 for spec in specs)
