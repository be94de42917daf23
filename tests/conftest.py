import os

import pytest


def _child_state():
    """None, or how a child of this process stands: running, or exited and unreaped.

    ``WNOWAIT`` leaves an exited child unreaped, so the check changes no
    state.  Platforms without ``os.waitid`` are not checked.
    """
    if not hasattr(os, "waitid"):
        return None
    try:
        child = os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)
    except ChildProcessError:
        return None
    return "running" if child is None else f"pid {child.si_pid} exited, unreaped"


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test after which this process has a child it did not have before.

    A child left by an earlier test stays, so only that test fails.
    """
    before = _child_state()
    yield
    after = _child_state()
    if before is None and after is not None:
        pytest.fail(f"the test left a child process ({after})")


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children ``os.fork`` starts during the test, in order."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids
