"""Shared test set-up."""

import gc

import pytest


@pytest.fixture(autouse=True)
def _unfreeze_collector():
    """`cli_main` freezes the garbage collector for the rest of its process;
    undo that after each test, so a test that calls it in-process leaves the
    collector as the next test expects to find it."""
    yield
    gc.unfreeze()
