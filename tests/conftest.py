"""Shared fixtures and the acceptance-criteria result board.

The default fixtures pin the reference configuration used throughout the
suite: a 16-element half-wavelength array at 28 GHz with 28 dB peak gain,
a 400 MHz grid of 264 resource blocks at 120 kHz subcarrier spacing, the
default uplink budget (23 dBm UE, 0 dB UE gain, 5 dB noise figure, path-loss
exponent 3), the built-in MCS ladder with a 2 dB margin, and a 2.5 ns
delay-line step capped at 157.5 ns.
"""

import pytest

from jpta.antenna import ArrayConfig, FrequencyGrid
from jpta.codebook import DelayConstraint
from jpta.link import LinkModel, McsTable

_ACCEPTANCE = {}


@pytest.fixture(scope="session")
def array16():
    return ArrayConfig.half_wavelength(16, 28e9, 28.0)


@pytest.fixture(scope="session")
def grid264():
    return FrequencyGrid(28e9, 400e6, 120e3, 264)


@pytest.fixture(scope="session")
def link_default():
    return LinkModel(carrier_hz=28e9)


@pytest.fixture(scope="session")
def mcs_default():
    return McsTable.default()


@pytest.fixture(scope="session")
def delay25():
    return DelayConstraint(2.5e-9, 157.5e-9)


def record_criterion(num: int, ok: bool, detail: str) -> None:
    """Store one acceptance-criterion verdict for the end-of-run board."""
    _ACCEPTANCE[num] = (bool(ok), detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(_ACCEPTANCE):
        ok, detail = _ACCEPTANCE[num]
        terminalreporter.write_line(
            "[%s] criterion %d: %s" % ("PASS" if ok else "FAIL", num, detail))
