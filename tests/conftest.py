from __future__ import annotations

import os
import signal
import sys

import pytest

import mmekit


@pytest.fixture
def child_env() -> dict[str, str]:
    """Environment for a child Python that imports the package under
    test, also when only pytest's `pythonpath` setting (not the
    environment) put it on sys.path."""
    src = os.path.dirname(os.path.dirname(mmekit.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


@pytest.fixture
def deadline():
    """`deadline(seconds)` fails the test once that much wall time has
    passed, instead of letting a stalled search hang the suite.  Calling
    it again re-arms the timer.  Uses SIGALRM, so the test must run in
    the main thread; the old handler is restored afterwards."""
    def arm(seconds: float) -> None:
        def on_alarm(signum, frame):
            pytest.fail(f"deadline of {seconds} s passed", pytrace=False)

        signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, seconds)

    old = signal.getsignal(signal.SIGALRM)
    try:
        yield arm
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@pytest.fixture
def spy(monkeypatch):
    """`spy(fn)` wraps `fn` in every loaded `mmekit` module that binds it
    and returns the list of its calls' positional arguments, in call
    order; the originals come back after the test."""
    def install(fn) -> list[tuple]:
        calls = []

        def wrapper(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if (name == "mmekit" or name.startswith("mmekit.")) \
                    and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, wrapper)
        return calls

    return install
