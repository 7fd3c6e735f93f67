import pytest

import qbm
import qbm.cli
import qbm.coefficients
import qbm.fpe
import qbm.propagator
import qbm.response
import qbm.sde
import qbm.special
import qbm.validation


@pytest.mark.parametrize(
    "module",
    [qbm, qbm.coefficients, qbm.response, qbm.special, qbm.fpe, qbm.sde, qbm.propagator,
     qbm.validation, qbm.cli],
    ids=lambda m: m.__name__,
)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
