"""Fixtures for the telemetry suite: isolated enable/clear per test."""

from __future__ import annotations

import pytest

from repro import telemetry as tel


def _reset() -> None:
    tel.clear()
    tel.FEEDBACK.clear()


@pytest.fixture()
def telemetry():
    """Telemetry enabled with empty buffers; fully restored afterwards."""
    was_enabled = tel.enabled()
    _reset()
    tel.enable()
    yield tel
    if not was_enabled:
        tel.disable()
    _reset()


@pytest.fixture()
def telemetry_off():
    """Telemetry explicitly disabled with empty buffers; restored afterwards."""
    was_enabled = tel.enabled()
    _reset()
    tel.disable()
    yield tel
    if was_enabled:
        tel.enable()
    _reset()
