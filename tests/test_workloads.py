"""Tests for the six application trace generators."""

from pathlib import Path

import numpy as np
import pytest

from repro.mem.address import AddressMap
from repro.sim.trace import EV_BARRIER, EV_READ, EV_WRITE
from repro.workloads import (WORKLOADS, SampleSpec, barnes, em3d, fft,
                             generate_workload, ingest_file, lu, ocean, radix,
                             sample_workload, synthetic)
from repro.workloads.base import WorkloadSpec, emit_visits
from repro.sim.trace import TraceBuilder

LPP = AddressMap().lines_per_page
SCALE = 0.25  # small traces: these tests exercise structure, not volume
FIXTURE = Path(__file__).parent / "fixtures" / "external_small.csv"


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def app_workload(request):
    return request.param, generate_workload(request.param, scale=SCALE)


class TestAllApps:
    def test_node_counts_match_paper(self, app_workload):
        name, wl = app_workload
        assert wl.n_nodes == (4 if name == "lu" else 8)

    def test_barriers_equal_across_nodes(self, app_workload):
        _, wl = app_workload
        counts = {t.barriers() for t in wl.traces}
        assert len(counts) == 1

    def test_prologue_touches_own_home_pages_first(self, app_workload):
        """The first shared reference of every node must hit its own home
        range, pinning the balanced first-touch assignment."""
        _, wl = app_workload
        h = wl.home_pages_per_node
        for node, trace in enumerate(wl.traces):
            for kind, arg in trace:
                if kind in (EV_READ, EV_WRITE):
                    assert node * h <= arg // LPP < (node + 1) * h
                    break

    def test_every_home_page_touched_in_prologue(self, app_workload):
        _, wl = app_workload
        h = wl.home_pages_per_node
        for node, trace in enumerate(wl.traces):
            seen = set()
            for kind, arg in trace:
                if kind == EV_BARRIER:
                    break
                if kind in (EV_READ, EV_WRITE):
                    seen.add(arg // LPP)
            assert seen == set(range(node * h, (node + 1) * h))

    def test_pages_within_address_space(self, app_workload):
        _, wl = app_workload
        for trace in wl.traces:
            pages = trace.pages_touched(LPP)
            assert max(pages) < wl.total_shared_pages
            assert min(pages) >= 0

    def test_remote_traffic_exists(self, app_workload):
        _, wl = app_workload
        h = wl.home_pages_per_node
        for node, trace in enumerate(wl.traces):
            remote = {p for p in trace.pages_touched(LPP)
                      if not node * h <= p < (node + 1) * h}
            assert remote, f"node {node} never touches remote data"

    def test_deterministic_generation(self, app_workload):
        name, wl = app_workload
        again = generate_workload(name, scale=SCALE)
        for a, b in zip(wl.traces, again.traces):
            assert np.array_equal(a.kinds, b.kinds)
            assert np.array_equal(a.args, b.args)

    def test_params_record_spec(self, app_workload):
        _, wl = app_workload
        assert "spec" in wl.params
        assert 0 < wl.params["spec"]["ideal_pressure"] < 1


#: ``content_hash()`` of every app at three scales (default seeds): the
#: full-trace hashes the benchmark's ``traces`` workload pins.  A change
#: to generation that moves one byte, RNG draw or event order fails here.
GENERATED_HASHES = {
    ("barnes", 0.1): "289e9e3ea4e734b2", ("barnes", 0.5): "7ebf09d58a8ee698",
    ("barnes", 1.0): "620737f55729d327", ("em3d", 0.1): "64e96ff95b194349",
    ("em3d", 0.5): "53ce2b1f3562ad09", ("em3d", 1.0): "0332a269f70e49d5",
    ("fft", 0.1): "79a3ad0861f7ff1f", ("fft", 0.5): "29fbb13910152b75",
    ("fft", 1.0): "9b9f8216b60e8d5c", ("lu", 0.1): "fd9a47740e7101f3",
    ("lu", 0.5): "4bde4ad781b38ac9", ("lu", 1.0): "d85f1b44eff9d84a",
    ("ocean", 0.1): "b5a77c960750a29a", ("ocean", 0.5): "62f81fdb856cd706",
    ("ocean", 1.0): "23d26e601e35ed51", ("radix", 0.1): "7bf3d0669b3e8d86",
    ("radix", 0.5): "762445e1f00f0e41", ("radix", 1.0): "2fe211915a0337f6",
}


@pytest.mark.parametrize("app,scale", sorted(GENERATED_HASHES))
def test_generated_bytes_are_pinned(app, scale):
    assert (generate_workload(app, scale=scale).content_hash()
            == GENERATED_HASHES[(app, scale)])


#: ``content_hash()`` of the same workloads sampled at rate 4 (sweep
#: unit, seed 0): the sampled hashes the benchmark's ``traces``
#: workload pins, second in each of its entries.
SAMPLED_HASHES = {
    ("barnes", 0.1): "e57d20c35b3ed795", ("barnes", 0.5): "57740aaee8e497f2",
    ("barnes", 1.0): "ee347cd1a3705a7f", ("em3d", 0.1): "c427383f13f50323",
    ("em3d", 0.5): "a654793af0f15857", ("em3d", 1.0): "8a948ab4b29c167c",
    ("fft", 0.1): "d81f886aa49ed458", ("fft", 0.5): "00e7ab9600d39d92",
    ("fft", 1.0): "9229aa5393a19f26", ("lu", 0.1): "655156f259c9a612",
    ("lu", 0.5): "740fc1ffe18131ff", ("lu", 1.0): "0394fb7bfe9dd852",
    ("ocean", 0.1): "380834d1a50411d5", ("ocean", 0.5): "b453c8906e4414cc",
    ("ocean", 1.0): "a5dc71952c8f43b4", ("radix", 0.1): "b23949c3f58992fc",
    ("radix", 0.5): "5942d22f4a9f6006", ("radix", 1.0): "f348e6879814c899",
}


@pytest.mark.parametrize("app,scale", sorted(SAMPLED_HASHES))
def test_sampled_bytes_are_pinned(app, scale):
    wl = generate_workload(app, scale=scale)
    assert (sample_workload(wl, SampleSpec(rate=4)).content_hash()
            == SAMPLED_HASHES[(app, scale)])


#: em3d at scale 0.25 under one setting per sampler branch: spatial
#: selection alone (cycles rescaled by 1/2), visit and reference
#: striding (rescaled by 1/4), epochs with spatial selection, and a rate
#: above the sweep count (one interior epoch kept).
BRANCH_HASHES = {
    SampleSpec(pages=0.5): "de2fc64480d7fab1",
    SampleSpec(rate=4, unit="visit"): "119b4d75eb8f566c",
    SampleSpec(rate=4, unit="ref"): "7b4388e53b274a47",
    SampleSpec(rate=4, pages=0.5): "58e7a5072c5e3756",
    SampleSpec(rate=100): "46783d3a829f9930",
}


@pytest.fixture(scope="module")
def em3d_quarter():
    return generate_workload("em3d", scale=0.25)


@pytest.mark.parametrize("spec", list(BRANCH_HASHES), ids=SampleSpec.label)
def test_sampler_branches_are_pinned(em3d_quarter, spec):
    assert (sample_workload(em3d_quarter, spec).content_hash()
            == BRANCH_HASHES[spec])


#: The ingest fixture (``external_small.csv``, two cycles per time
#: unit) sampled: with one trailing barrier an epoch stride keeps
#: everything, and with three the visit stride exempts the prologue.
INGEST_HASHES = {
    (1, SampleSpec(rate=4)): "ecf64a072723308f",
    (1, SampleSpec(rate=2, unit="visit")): "c3a12f41db2d06df",
    (3, SampleSpec(rate=4)): "e6be5a849d45d48d",
    (3, SampleSpec(rate=2, unit="visit")): "fbf36f3551dad3a0",
    (3, SampleSpec(rate=3, unit="ref")): "f4a9ce8d789729a2",
    (3, SampleSpec(pages=0.5)): "5499816d457439f9",
}


@pytest.mark.parametrize("barriers,spec", list(INGEST_HASHES),
                         ids=lambda v: v.label() if isinstance(v, SampleSpec)
                         else f"b{v}")
def test_sampled_ingest_is_pinned(barriers, spec):
    wl = ingest_file(FIXTURE, barriers=barriers, cycles_per_time=2)
    assert (sample_workload(wl, spec).content_hash()
            == INGEST_HASHES[(barriers, spec)])


class TestIdealPressures:
    """Table 5's ordering: radix lowest, fft/ocean highest."""

    def test_ordering(self):
        pressures = {name: WORKLOADS[name][0](n_nodes=WORKLOADS[name][1],
                                              scale=SCALE).params["spec"]
                     ["ideal_pressure"] for name in WORKLOADS}
        assert pressures["radix"] < pressures["barnes"]
        assert pressures["barnes"] < pressures["em3d"]
        assert pressures["fft"] > 0.6
        assert pressures["ocean"] > 0.6


class TestAppCharacter:
    def test_radix_touches_every_remote_page(self):
        wl = radix.generate(scale=SCALE)
        h = wl.home_pages_per_node
        for node, trace in enumerate(wl.traces):
            remote = {p for p in trace.pages_touched(LPP)
                      if not node * h <= p < (node + 1) * h}
            assert len(remote) == wl.total_shared_pages - h

    def test_radix_single_line_visits(self):
        spec = radix.default_spec(scale=SCALE)
        assert spec.lines_per_visit == 1

    def test_em3d_remote_pages_come_from_neighbours(self):
        wl = em3d.generate(scale=SCALE)
        h = wl.home_pages_per_node
        n = wl.n_nodes
        for node, trace in enumerate(wl.traces):
            owners = {p // h for p in trace.pages_touched(LPP)}
            allowed = {node, (node - 1) % n, (node + 1) % n}
            assert owners <= allowed

    def test_ocean_remote_set_is_boundary_rows(self):
        wl = ocean.generate(scale=SCALE)
        h = wl.home_pages_per_node
        n = wl.n_nodes
        for node, trace in enumerate(wl.traces):
            owners = {p // h for p in trace.pages_touched(LPP)}
            assert owners <= {node, (node - 1) % n, (node + 1) % n}

    def test_fft_remote_set_is_all_to_all(self):
        wl = fft.generate(scale=1.0)
        h = wl.home_pages_per_node
        for node, trace in enumerate(wl.traces):
            owners = {p // h for p in trace.pages_touched(LPP)} - {node}
            assert len(owners) == wl.n_nodes - 1

    def test_barnes_is_compute_heavy(self):
        assert barnes.default_spec().compute_per_ref > \
            radix.default_spec().compute_per_ref

    def test_lu_phases_shift_active_set(self):
        gen = lu.LUGenerator(lu.default_spec(scale=SCALE))
        rng = np.random.default_rng(0)
        hot = np.arange(100, 160)
        early = set(gen.sweep_visit_pages(0, 0, hot, np.array([], dtype=int),
                                          rng).tolist())
        late = set(gen.sweep_visit_pages(0, gen.spec.sweeps - 1, hot,
                                         np.array([], dtype=int), rng).tolist())
        assert early.isdisjoint(late)

    def test_scale_changes_size(self):
        small = barnes.generate(scale=0.25)
        big = barnes.generate(scale=0.5)
        assert big.total_refs() > small.total_refs()
        assert big.home_pages_per_node > small.home_pages_per_node


class TestEmitVisits:
    def args(self):
        return dict(lines_per_visit=4, lines_per_page=LPP,
                    write_fraction=0.0, compute_per_visit=10)

    def test_ref_count(self):
        b = TraceBuilder()
        rng = np.random.default_rng(0)
        n = emit_visits(b, rng, np.array([1, 2, 3]), **self.args())
        assert n == 12
        assert b.build().shared_refs() == 12

    def test_empty_pages(self):
        b = TraceBuilder()
        assert emit_visits(b, np.random.default_rng(0),
                           np.array([], dtype=int), **self.args()) == 0

    def test_page_geometry_must_be_a_power_of_two(self):
        args = dict(self.args(), lines_per_page=24)
        with pytest.raises(ValueError, match="power of two"):
            emit_visits(TraceBuilder(), np.random.default_rng(0),
                        np.array([1]), **args)

    def test_lines_stay_in_their_page(self):
        b = TraceBuilder()
        rng = np.random.default_rng(0)
        emit_visits(b, rng, np.array([5] * 20), **self.args())
        t = b.build()
        assert t.pages_touched(LPP) == {5}

    def test_line_repeats_double_refs(self):
        b = TraceBuilder()
        rng = np.random.default_rng(0)
        n = emit_visits(b, rng, np.array([1, 2]), line_repeats=2, **self.args())
        assert n == 16

    def test_repeats_are_adjacent(self):
        b = TraceBuilder()
        rng = np.random.default_rng(0)
        emit_visits(b, rng, np.array([1]), line_repeats=2, **self.args())
        refs = [arg for kind, arg in b.build() if kind in (EV_READ, EV_WRITE)]
        assert refs[0] == refs[1] and refs[2] == refs[3]

    def test_scatter_preserves_multiset(self):
        ordered, scattered = TraceBuilder(), TraceBuilder()
        emit_visits(ordered, np.random.default_rng(1), np.array([1, 2, 3, 4]),
                    **self.args())
        emit_visits(scattered, np.random.default_rng(1), np.array([1, 2, 3, 4]),
                    scatter=True, scatter_window=0, **self.args())
        refs_o = sorted(a for k, a in ordered.build() if k == EV_READ)
        refs_s = sorted(a for k, a in scattered.build() if k == EV_READ)
        assert refs_o == refs_s

    def test_scatter_window_bounds_displacement(self):
        b = TraceBuilder()
        rng = np.random.default_rng(1)
        pages = np.arange(100, 116)
        emit_visits(b, rng, pages, scatter=True, scatter_window=2,
                    **self.args())
        refs = [a for k, a in b.build() if k == EV_READ]
        # Window = 2 visits x 4 lines: a page's lines stay within their
        # 8-ref window.
        for i, line in enumerate(refs):
            window = i // 8
            page_index = (line // LPP) - 100
            assert page_index // 2 == window

    def test_write_fraction_zero_and_one(self):
        b = TraceBuilder()
        rng = np.random.default_rng(0)
        emit_visits(b, rng, np.array([1, 2]), lines_per_visit=4,
                    lines_per_page=LPP, write_fraction=1.0,
                    compute_per_visit=1)
        t = b.build()
        assert t.count(EV_WRITE) == 8 and t.count(EV_READ) == 0


class TestSyntheticModule:
    def test_generate_by_kwargs(self):
        wl = synthetic.generate(n_nodes=2, home_pages_per_node=4,
                                remote_pages_per_node=4, sweeps=2,
                                home_lines_per_sweep=8)
        assert wl.n_nodes == 2
        assert wl.name == "synthetic"

    def test_unknown_app_rejected(self):
        with pytest.raises(ValueError):
            generate_workload("linpack")


class TestSpecValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(name="x", n_nodes=1)
        with pytest.raises(ValueError):
            WorkloadSpec(name="x", hot_fraction=1.5)
        with pytest.raises(ValueError):
            WorkloadSpec(name="x", sweeps=0)
        with pytest.raises(ValueError):
            WorkloadSpec(name="x", write_fraction=-0.1)

    def test_ideal_pressure(self):
        spec = WorkloadSpec(name="x", home_pages_per_node=60,
                            remote_pages_per_node=40)
        assert spec.ideal_pressure() == 0.6
