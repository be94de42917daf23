"""Property test: every float cell the CSV writer emits is ``'%.17g' % v``.

hypothesis is a test-only tool, not a package dependency; without it this
module is skipped.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

from berrysim import cells

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# every float, nan and the infinities included, and the writer's fast range of each sign
_FLOATS = st.one_of(
    st.floats(),
    st.floats(min_value=1e-6, max_value=1e17),
    st.floats(min_value=-1e17, max_value=-1e-6),
)


@hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
@hypothesis.given(st.lists(_FLOATS, min_size=1, max_size=64))
def test_cells_are_percent_17g(values):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cells.csv"
        with path.open("wb") as out:
            cells.write_tables([(out, ["x"], [np.array(values, dtype=float)])])
        written = path.read_text().splitlines()[1:]
    assert written == ["%.17g" % v for v in values]
    assert all(math.isnan(v) or float(cell) == v for cell, v in zip(written, values))
