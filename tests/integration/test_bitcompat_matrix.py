"""The bit-compatibility contract: one pytest id per cell of ``bitcompat.AXES``.

Ids read ``[algorithm-route-axis=value]``; ``-k`` picks a leg by substring
(``-k compiled``, ``-k "sharded and multiprocess"``, ``-k served``).
Each cell compares its variant with its route's reference (``bitcompat.py``,
``docs/engine.md``).
"""

import pytest

from bitcompat import Matrix, cells


@pytest.fixture(scope="module")
def matrix(mutated_pair):
    matrix = Matrix(mutated_pair)
    yield matrix
    matrix.close()


@pytest.mark.parametrize("cell", [pytest.param(c, id=c.id) for c in cells()])
def test_bit_identical(matrix, cell):
    matrix.check(cell)
