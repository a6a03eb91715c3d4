"""Fixtures shared by the test modules."""

import struct
import sys

import pytest
from hypothesis import settings

from cvlbi.core import ValidationError
from cvlbi.states import SourceParams

#: every property test draws the same examples on every run, however long each one takes;
#: a test states only its own ``max_examples``
settings.register_profile("tier1", deadline=None, derandomize=True)
settings.load_profile("tier1")


def _bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _accepted(epsilon: float) -> bool:
    try:
        SourceParams(epsilon)
    except ValidationError:
        return False
    return True


def _threshold(accepted: float, rejected: float) -> float:
    """The accepted epsilon next to the rejected ones, by bisection over float bit patterns."""
    good, bad = _bits(accepted), _bits(rejected)
    assert _accepted(_float(good)) and not _accepted(_float(bad))
    while abs(bad - good) > 1:
        mid = (good + bad) // 2
        if _accepted(_float(mid)):
            good = mid
        else:
            bad = mid
    return _float(good)


@pytest.fixture(scope="session")
def largest_epsilon() -> float:
    """The largest epsilon SourceParams accepts."""
    return _threshold(1.0, sys.float_info.max)


@pytest.fixture(scope="session")
def smallest_epsilon() -> float:
    """The smallest positive epsilon SourceParams accepts."""
    return _threshold(1.0, 5e-324)
