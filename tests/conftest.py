import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load_script(name):
    """Import a standalone reference script from scripts/ without putting
    the directory on sys.path; the tests only read from it."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def doubling_laws():
    return _load_script("doubling_laws")


@pytest.fixture(scope="session")
def qseries_ref():
    return _load_script("qseries_ref")


def pytest_addoption(parser):
    parser.addoption("--slow", action="store_true", default=False,
                     help="also run the slow tier (long enumerations)")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--slow"):
        return
    skip = pytest.mark.skip(reason="slow tier, enable with --slow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)
