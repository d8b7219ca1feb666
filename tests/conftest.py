"""Helpers shared by the tests of forked worker processes."""

import os

import pytest


@pytest.fixture
def forks(monkeypatch):
    """The os.fork calls made in this process."""
    calls = []
    fork = os.fork

    def counted():
        calls.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


def assert_no_process_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def in_worker(parent: int) -> bool:
    return os.getpid() != parent
