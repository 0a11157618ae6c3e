"""Shared test configuration: one echelon cache per session, and the
benchmark's workload definitions."""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="session", autouse=True)
def _session_cache(tmp_path_factory):
    """Point the echelon cache at a session directory so repeated suites
    and acceptance criteria share builds instead of recomputing them."""
    import os

    cache = tmp_path_factory.mktemp("ospan-cache")
    old = os.environ.get("ORBIFOCK_CACHE_DIR")
    os.environ["ORBIFOCK_CACHE_DIR"] = str(cache)
    yield str(cache)
    if old is None:
        os.environ.pop("ORBIFOCK_CACHE_DIR", None)
    else:
        os.environ["ORBIFOCK_CACHE_DIR"] = old


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
