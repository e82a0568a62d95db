import numpy as np
import pytest

from objreloc.validation import as_matrix3, as_points, as_vector3


@pytest.mark.parametrize("convert", [as_vector3, as_matrix3, as_points])
@pytest.mark.parametrize("value", ["abc", {"x": 1.0}, [[1.0, 2.0], [3.0]], [["a", "b", "c"]]])
def test_unconvertible_input_names_its_field(convert, value):
    with pytest.raises(ValueError, match=r"^field: "):
        convert(value, "field")


@pytest.mark.parametrize("convert, good", [
    (as_vector3, [1, 2, 3]),
    (as_matrix3, np.eye(3, dtype=np.int32)),
    (as_points, [[1, 2, 3], [4, 5, 6]]),
])
def test_convertible_input_becomes_float64(convert, good):
    out = convert(good, "field")
    assert out.dtype == np.float64
    assert np.array_equal(out, np.asarray(good, dtype=np.float64))
