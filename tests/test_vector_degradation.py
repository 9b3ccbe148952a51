"""Vector-kernel degradation corners.

The vector path's environment contract: whatever is wrong with the
host -- cffi present but no C compiler, a corrupted cached ``.so``, an
unwritable ``$REPRO_VECTOR_CACHE`` -- a run asked to use the kernel
must degrade *loss-free* to the reference loop (bit-identical
result), flag the problem with exactly one ``RuntimeWarning`` per
process, and never raise.  A pre-built ``.so`` must keep loading with
no compiler at all: that is the contract CI's kernel-cache step leans
on.  Processes racing to build the first kernel into an empty cache
must all load it and leave one library behind.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

import repro.sim.soatrace as soatrace
from repro.harness.experiment import get_workload, scaled_policy
from repro.sim.config import SystemConfig
from repro.sim.engine import Engine

SCALE = 0.1


def _run(**engine_kwargs):
    wl = get_workload("fft", SCALE)
    cfg = SystemConfig(n_nodes=wl.n_nodes, memory_pressure=0.7)
    engine = Engine(wl, scaled_policy("ASCOMA"), config=cfg,
                    **engine_kwargs)
    return engine.run().to_dict()


@pytest.fixture
def kernel_sandbox(tmp_path, monkeypatch):
    """Fresh kernel state: un-memoize the loader and point the ``.so``
    cache at a per-test directory, restoring the real kernel after."""
    saved = soatrace._KERNEL
    soatrace._KERNEL = None
    monkeypatch.setenv("REPRO_VECTOR_CACHE", str(tmp_path / "vcache"))
    yield tmp_path / "vcache"
    soatrace._KERNEL = saved


def _vector_warnings(caught):
    return [w for w in caught
            if issubclass(w.category, RuntimeWarning)
            and "vector kernel unavailable" in str(w.message)]


class TestMissingCompiler:
    def test_falls_back_with_one_warning(self, kernel_sandbox, monkeypatch):
        """cffi importable, no cc/gcc anywhere: scalar results, one
        warning for the first run, silence (and no crash) after."""
        monkeypatch.setattr(soatrace.shutil, "which", lambda name: None)
        reference = _run(vector_path=False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first = _run(vector_path=True)
            second = _run(vector_path=True)
        assert first == reference
        assert second == reference
        assert len(_vector_warnings(caught)) == 1
        assert soatrace.vector_available() is False

    def test_auto_mode_degrades_identically(self, kernel_sandbox,
                                            monkeypatch):
        """The default ``auto`` dispatch hits the same fallback."""
        monkeypatch.setattr(soatrace.shutil, "which", lambda name: None)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            auto = _run()
        assert auto == _run(vector_path=False)
        assert len(_vector_warnings(caught)) == 1


class TestCorruptCachedKernel:
    """Both corners seed the cache with ``_build_library()`` alone
    (compile, no dlopen): a genuinely corrupt cache artifact is one a
    fresh process finds *before* ever mapping it.  Overwriting a
    library this process already dlopened would instead poison the
    loader's existing mapping -- a different failure (and one the
    source-hash keying prevents: a changed kernel gets a new name)."""

    def _corrupt_fresh_so(self):
        so = soatrace._build_library()
        assert so is not None
        with open(so, "wb") as fh:
            fh.write(b"\x7fNOT-AN-ELF garbage")
        return so

    def test_corrupt_so_rebuilds_silently(self, kernel_sandbox):
        """A truncated/garbage cached ``.so`` with a compiler present:
        discarded and rebuilt from source, no warning, kernel stays
        available."""
        self._corrupt_fresh_so()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert soatrace.vector_available() is True
            vector = _run(vector_path=True)
        assert not _vector_warnings(caught)
        assert vector == _run(vector_path=False)

    def test_corrupt_so_without_compiler_warns_once(self, kernel_sandbox,
                                                    monkeypatch):
        """Corrupt ``.so`` *and* no compiler to rebuild with: one
        warning, loss-free scalar fallback."""
        self._corrupt_fresh_so()
        monkeypatch.setattr(soatrace.shutil, "which", lambda name: None)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            vector = _run(vector_path=True)
            _run(vector_path=True)
        assert len(_vector_warnings(caught)) == 1
        assert "corrupt" in str(_vector_warnings(caught)[0].message)
        assert vector == _run(vector_path=False)
        assert soatrace.vector_available() is False


class TestUnwritableCache:
    def test_unwritable_cache_dir_falls_back(self, tmp_path, monkeypatch):
        """$REPRO_VECTOR_CACHE that cannot be created (a path *under a
        regular file* -- robust even when the suite runs as root, for
        whom chmod 0o500 is not a barrier): one warning, scalar
        results, no partial files, no crash."""
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        saved = soatrace._KERNEL
        soatrace._KERNEL = None
        monkeypatch.setenv("REPRO_VECTOR_CACHE",
                           str(blocker / "vcache"))
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                vector = _run(vector_path=True)
            assert len(_vector_warnings(caught)) == 1
            assert vector == _run(vector_path=False)
            assert soatrace.vector_available() is False
        finally:
            soatrace._KERNEL = saved

    def test_warning_names_the_directory(self, tmp_path, monkeypatch):
        """With a compiler on ``PATH`` the cause is the cache, not the
        compiler: the one warning names the directory and its error."""
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        cache = blocker / "vcache"
        # Any existing file stands in for the compiler: the build stops
        # at the cache directory, before a compiler would run.
        monkeypatch.setattr(soatrace.shutil, "which",
                            lambda name: sys.executable)
        monkeypatch.setenv("REPRO_VECTOR_CACHE", str(cache))
        saved = soatrace._KERNEL
        soatrace._KERNEL = None
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert soatrace.vector_available() is False
                assert soatrace.vector_available() is False
        finally:
            soatrace._KERNEL = saved
        (warning,) = _vector_warnings(caught)
        message = str(warning.message)
        assert f"kernel cache directory {cache} is unusable" in message
        assert "Not a directory" in message
        assert "compiler" not in message


class TestPrebuiltKernelCache:
    def test_prebuilt_so_loads_without_compiler(self, kernel_sandbox,
                                                monkeypatch):
        """A cached ``.so`` must keep working when the compiler
        disappears -- the contract CI's cross-run kernel cache (keyed
        by the embedded source and flags) relies on."""
        assert soatrace._build_library() is not None  # populate sandbox
        monkeypatch.setattr(soatrace.shutil, "which", lambda name: None)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert soatrace.vector_available() is True
        assert not _vector_warnings(caught)
        assert _run(vector_path=True) == _run(vector_path=False)


class TestCacheKey:
    def test_flags_get_their_own_library(self, kernel_sandbox, monkeypatch):
        """Extra ``$REPRO_VECTOR_CFLAGS`` name a different library than
        the default flags, so neither build is reused for the other."""
        default = soatrace._build_library()
        monkeypatch.setenv("REPRO_VECTOR_CFLAGS", "-O1")
        other = soatrace._build_library()
        assert default and other and default != other
        assert sorted(p.name for p in kernel_sandbox.iterdir()) == sorted(
            os.path.basename(p) for p in (default, other))

    def test_compiler_identity_in_name(self, kernel_sandbox, monkeypatch):
        """Another compiler binary names another library."""
        default = soatrace._build_library()
        monkeypatch.setattr(soatrace, "_compiler_id",
                            lambda cc: "some-other-compiler")
        other = soatrace._build_library()
        assert default != other
        assert os.path.basename(default).rsplit("-", 1)[0] == \
            os.path.basename(other).rsplit("-", 1)[0]


_RACER = """
import json, os, sys, time, warnings
go = sys.argv[1]
while not os.path.exists(go):
    time.sleep(0.001)
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    from repro.sim.soatrace import vector_available
    ok = vector_available()
print(json.dumps({"ok": ok, "warnings": [str(w.message) for w in caught
                  if issubclass(w.category, RuntimeWarning)]}))
"""


class TestConcurrentFirstCompile:
    def test_four_processes_race_on_an_empty_cache(self, tmp_path):
        """Four fresh interpreters released together on an empty
        ``$REPRO_VECTOR_CACHE``: each compiles or finds the kernel and
        loads it without a warning; one library and no temp files are
        left.  The racers' own results decide the skip, not this
        process's kernel, so the race also runs where this process has
        none (a no-kernel ``$REPRO_VECTOR_CACHE``)."""
        if not (shutil.which("cc") or shutil.which("gcc")):
            pytest.skip("no C compiler on PATH: nothing to race on")
        cache = tmp_path / "vcache"
        go = tmp_path / "go"
        src = Path(soatrace.__file__).resolve().parents[2]
        env = dict(os.environ, REPRO_VECTOR_CACHE=str(cache),
                   PYTHONPATH=str(src))
        env.pop("REPRO_VECTOR_CFLAGS", None)
        racers = [subprocess.Popen([sys.executable, "-c", _RACER, str(go)],
                                   env=env, stdout=subprocess.PIPE,
                                   stderr=subprocess.PIPE, text=True)
                  for _ in range(4)]
        time.sleep(1.0)  # let every racer import and start polling
        go.touch()
        results = []
        for proc in racers:
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err
            results.append(json.loads(out.strip().splitlines()[-1]))
        if not any(r["ok"] for r in results):
            pytest.skip(f"no racer loaded a kernel: {results}")
        assert all(r["ok"] for r in results), results
        assert all(not r["warnings"] for r in results), results
        names = [p.name for p in cache.iterdir()]
        assert len(names) == 1 and names[0].startswith("soakernel-") \
            and names[0].endswith(".so"), names
