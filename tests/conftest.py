"""Shared test configuration: one echelon cache per session, a count of the
echelon files read, and the benchmark's workload definitions."""

import importlib.util
import sys
from pathlib import Path

import pytest

from orbifock import zhu

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="session")
def ospan_cache(tmp_path_factory):
    """One echelon cache directory for the session, so the tests that take
    it share their builds instead of recomputing them."""
    return str(tmp_path_factory.mktemp("ospan-cache"))


@pytest.fixture
def file_reads(monkeypatch):
    """The (rank, window, sector) of every echelon ``zhu.build_ospan`` reads
    from a cache file, in order."""
    reads = []
    real = zhu.build_ospan

    def spy(*args, **kwargs):
        ech = real(*args, **kwargs)
        if ech.cache_hit:
            reads.append((ech.ell, ech.window, ech.sector))
        return ech

    monkeypatch.setattr(zhu, "build_ospan", spy)
    return reads


@pytest.fixture(scope="session")
def workloads():
    """``perfbench/workloads.py`` as a module, loaded from its file and only
    read."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # A dataclass reads its module's namespace while it is defined.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module
