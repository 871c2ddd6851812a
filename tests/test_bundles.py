import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distill_lab.bundles import Bundle, read_bundle, write_bundle


def test_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    bundle = Bundle(
        kind="distillation-witness",
        params={"d": 3, "n": 2, "beta": -0.6, "seed": 987654321, "value": -1.2345e-7},
        vectors={
            "u1": rng.standard_normal(9) + 1j * rng.standard_normal(9),
            "y": rng.standard_normal(4),
        },
    )
    path = write_bundle(bundle, tmp_path / "case.bundle")
    loaded = read_bundle(path)
    assert loaded.kind == bundle.kind
    assert loaded.params["d"] == 3 and loaded.params["n"] == 2
    assert loaded.params["beta"] == bundle.params["beta"]  # exact, not approximate
    assert loaded.params["value"] == bundle.params["value"]
    assert np.array_equal(loaded.vectors["u1"], bundle.vectors["u1"])
    assert np.array_equal(loaded.vectors["y"], bundle.vectors["y"])
    assert loaded.vectors["y"].dtype == np.float64
    assert loaded.vectors["u1"].dtype == np.complex128


def test_header_is_self_describing(tmp_path):
    path = write_bundle(Bundle(kind="x", params={"d": 2}), tmp_path / "h.bundle")
    lines = path.read_text().splitlines()
    assert lines[0] == "distill-lab bundle v1"
    assert lines[1] == "kind=x"
    assert lines[2] == "d=2"


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bundle"
    path.write_text("not a bundle\n")
    with pytest.raises(ValueError):
        read_bundle(path)


def test_rejects_truncated_vector(tmp_path):
    path = tmp_path / "trunc.bundle"
    path.write_text(
        "distill-lab bundle v1\nkind=x\nvector y real 3\n0x1.0p+0\n0x1.0p+0\n"
    )
    with pytest.raises(ValueError):
        read_bundle(path)


def test_rejects_garbage_line(tmp_path):
    path = tmp_path / "garbage.bundle"
    path.write_text("distill-lab bundle v1\nkind=x\nwhat is this\n")
    with pytest.raises(ValueError):
        read_bundle(path)


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=True, allow_infinity=True), st.integers(-(2**70), 2**70))
def test_params_round_trip_over_all_doubles(tmp_path_factory, value, count):
    path = tmp_path_factory.mktemp("params") / "p.bundle"
    loaded = read_bundle(write_bundle(Bundle(kind="x", params={"x": value, "k": count}), path))
    got = loaded.params["x"]
    assert isinstance(got, float)
    if math.isnan(value):
        assert math.isnan(got)
    else:
        assert got == value and math.copysign(1.0, got) == math.copysign(1.0, value)
    assert loaded.params["k"] == count and isinstance(loaded.params["k"], int)


@pytest.mark.parametrize("name", ["a=b", "a b", "tab\tname", "line\nbreak"])
def test_rejects_param_names_that_break_the_layout(tmp_path, name):
    with pytest.raises(ValueError, match="name"):
        write_bundle(Bundle(kind="x", params={name: 1.0}), tmp_path / "n.bundle")


@pytest.mark.parametrize("name", ["", "a b", "tab\tname", "line\nbreak"])
def test_rejects_vector_names_that_break_the_layout(tmp_path, name):
    path = tmp_path / "sub" / "v.bundle"
    with pytest.raises(ValueError, match="name"):
        write_bundle(Bundle(kind="x", vectors={name: [1.0]}), path)
    assert not (tmp_path / "sub").exists()


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(
        st.text(min_size=1).filter(lambda s: not any(ch.isspace() for ch in s)),
        st.lists(st.floats(allow_nan=False), min_size=0, max_size=3),
        max_size=4,
    )
)
def test_vectors_round_trip_over_valid_names(tmp_path_factory, vectors):
    path = tmp_path_factory.mktemp("vectors") / "v.bundle"
    loaded = read_bundle(write_bundle(Bundle(kind="x", vectors=vectors), path))
    assert list(loaded.vectors) == list(vectors)
    for name, values in vectors.items():
        assert loaded.vectors[name].tolist() == values
