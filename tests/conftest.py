"""Shared test set-up."""

import faulthandler
import gc
import os
import sys

import pytest

# Each test must end within this many seconds; the slowest takes about one.
# Past it the whole run stops with every thread's traceback, so a runaway
# step plan fails in a minute rather than at CI's job limit.
TIME_LIMIT_S = 60

_STDERR_FD = pytest.StashKey[int]()


def pytest_configure(config):
    # a copy of the terminal's stderr: output capture redirects fd 2 while a
    # test runs, and a traceback written there dies with the process
    config.stash[_STDERR_FD] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR_FD])


@pytest.fixture(autouse=True)
def _time_limit(request):
    faulthandler.dump_traceback_later(
        TIME_LIMIT_S, exit=True, file=request.config.stash[_STDERR_FD]
    )
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(autouse=True)
def _unfreeze_collector():
    """`cli_main` freezes the garbage collector for the rest of its process;
    undo that after each test, so a test that calls it in-process leaves the
    collector as the next test expects to find it."""
    yield
    gc.unfreeze()
