"""Suite-wide pytest configuration.

Adds the ``--update-golden`` flag: golden-answer regression tests
(:mod:`tests.test_golden`) normally *compare* against the snapshots in
``tests/golden/*.json``; with the flag they *rewrite* the snapshots
from the current engine output instead (then still verify them, so a
nondeterministic pipeline cannot silently bless itself).

Also installs a hang guard: a test still running after
:data:`HANG_SECONDS` aborts the run with every thread's stack on
stderr, so a hung socket or thread fails the suite instead of stalling
it.
"""

import faulthandler
import os
import sys

import pytest

#: Seconds one test (setup, call and teardown) may take before the run
#: is aborted: far above the slowest test (~4.4 s on 2 CPUs), so only
#: a hang trips it.
HANG_SECONDS = 120

#: A copy of the terminal's stderr, taken while output is not being
#: captured: under capture fd 2 points into a temporary file, which
#: dies unread when the guard ends the process.
_STDERR_COPY = pytest.StashKey[int]()


def pytest_configure(config):
    config.stash[_STDERR_COPY] = os.dup(sys.__stderr__.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR_COPY])


@pytest.fixture(autouse=True)
def _hang_guard(pytestconfig):
    faulthandler.dump_traceback_later(
        HANG_SECONDS, exit=True, file=pytestconfig.stash[_STDERR_COPY])
    yield
    faulthandler.cancel_dump_traceback_later()


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="regenerate tests/golden/*.json from current engine output "
             "instead of comparing against it")


@pytest.fixture
def update_golden(request) -> bool:
    return request.config.getoption("--update-golden")
