"""Fixtures shared by the test modules."""

import struct
import sys

import pytest

from cvlbi.core import ValidationError
from cvlbi.states import SourceParams


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


@pytest.fixture(scope="session")
def largest_epsilon() -> float:
    """The largest epsilon SourceParams accepts, by bisection over positive float bit patterns."""
    low, high = _bits(1.0), _bits(sys.float_info.max)
    assert _accepted(_float(low)) and not _accepted(_float(high))
    while high - low > 1:
        mid = (low + high) // 2
        if _accepted(_float(mid)):
            low = mid
        else:
            high = mid
    return _float(low)
