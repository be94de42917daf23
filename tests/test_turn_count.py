"""Property test: the kernel's winding is the unwrap count of the node azimuths.

hypothesis is a test-only tool, not a package dependency; without it this
module is skipped.
"""

import numpy as np
import pytest

from berrysim.evolve import _winding_number
from test_evolve import _reference_winding

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# exact and signed zeros, the unit axes and both ends of the range, or any
# magnitude from 1e-300 to 1e300 of either sign
_COMPONENTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, 1e300, -1e300]),
    st.floats(min_value=1e-300, max_value=1e300),
    st.floats(min_value=-1e300, max_value=-1e-300),
)
# a node, and whether it negates its predecessor instead: a step of pi,
# exactly so on the axes, which np.unwrap does not correct
_NODES = st.lists(st.tuples(_COMPONENTS, _COMPONENTS, st.booleans()), min_size=1, max_size=32)


@hypothesis.settings(max_examples=400, deadline=None, database=None, derandomize=True)
@hypothesis.given(_NODES)
def test_winding_is_the_unwrap_count(nodes):
    xy = []
    for x, y, negate in nodes:
        xy.append((-xy[-1][0], -xy[-1][1]) if negate and xy else (x, y))
    b_nodes = np.array([(x, y, 1.0) for x, y in xy])
    winding = _winding_number(b_nodes[:, 0], b_nodes[:, 1])
    assert type(winding) is int
    assert winding == _reference_winding(b_nodes)[0]
