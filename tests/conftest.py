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


def _open_fds():
    """The number of file descriptors open in this process, or None where
    ``/proc/self/fd`` is missing (not Linux)."""
    try:
        return len(os.listdir("/proc/self/fd"))
    except FileNotFoundError:
        return None


def _assert_no_child_left(fds):
    """No child of this process is left and, unless ``fds`` is None, as many
    file descriptors are open as ``fds``, the :func:`_open_fds` count before."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    if fds is not None:
        assert _open_fds() == fds


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
