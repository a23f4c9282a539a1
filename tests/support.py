"""Helpers the test modules import by name.

They live here, not in ``conftest.py``, because the suite also collects
``perfbench/tests``, whose own ``conftest`` module would shadow this
directory's under ``from conftest import ...``.
"""

import numpy as np

from detmc import graphs


def complete_graph(n1, n2):
    rows, cols = np.divmod(np.arange(n1 * n2), n2)
    return graphs.BiregularGraph(n1, n2, np.column_stack([rows, cols]))
