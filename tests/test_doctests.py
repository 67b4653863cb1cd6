import doctest

import pytest

import coxrank.cancellator
import coxrank.certificates
import coxrank.kernels
import coxrank.ranks
import coxrank.words


@pytest.mark.parametrize(
    "module",
    [
        coxrank.words,
        coxrank.certificates,
        coxrank.cancellator,
        coxrank.ranks,
        coxrank.kernels,
    ],
    ids=lambda m: m.__name__,
)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0
