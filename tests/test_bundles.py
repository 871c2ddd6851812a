import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distill_lab import cli, verify
from distill_lab.bundles import Bundle, read_bundle, write_bundle
from distill_lab.distill import RankTwoFactors, _discriminant_slack, pqr, q_functional
from distill_lab.iterate import certify_iterate
from distill_lab.states import WernerParams


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


@pytest.mark.parametrize(
    "text, match",
    [
        ("distill-lab bundle v1\n", "missing the kind line"),
        ("distill-lab bundle v1\nd=2\n", "missing the kind line"),
        ("distill-lab bundle v1\nkind=x\nvector y quaternion 1\n0x1.0p+0\n", "unknown vector dtype"),
    ],
)
def test_rejects_malformed_layout(tmp_path, text, match):
    path = tmp_path / "bad.bundle"
    path.write_text(text)
    with pytest.raises(ValueError, match=match):
        read_bundle(path)


def test_rejects_bool_param(tmp_path):
    with pytest.raises(ValueError, match="must be int or float"):
        write_bundle(Bundle(kind="x", params={"flag": True}), tmp_path / "b.bundle")


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


def _minimize_violation(out):
    cli.main(["minimize", "--d", "2", "--n", "2", "--beta", "-0.6", "--seed", "7", "--out", str(out / "r.json")])


def _distillation_witness(out):
    certify_iterate(WernerParams(2, -0.9), 1, seed=7, bundle_dir=out)


def _copy_floor_violation(out):
    verify._check_copy_floor(7, out)


def _rank2_slack_finding(out):
    verify.rank2_slack_sampling(2, 3, seed=12, bundle_dir=out)


def _q_value(rt, p):
    return q_functional(rt.to_matrix((p["d"],) * p["n"]), p["beta"])


# kind -> (producer, stored value, stored value recomputed from the reread point)
RANK_TWO_FINDINGS = {
    "minimize-violation": (_minimize_violation, lambda p: p["best_value"], _q_value),
    "distillation-witness": (
        _distillation_witness,
        lambda p: p["min_value"] * WernerParams(p["d"], p["beta"]).normalization ** p["n"],
        _q_value,
    ),
    "copy-floor-violation": (_copy_floor_violation, lambda p: p["value"], _q_value),
    "rank2-slack-finding": (
        _rank2_slack_finding,
        lambda p: p["slack"],
        lambda rt, p: _discriminant_slack(*pqr(rt, p["d"])),
    ),
}


@pytest.mark.parametrize("kind", sorted(RANK_TWO_FINDINGS))
def test_rank_two_findings_read_back_and_rerun(kind, tmp_path, monkeypatch):
    produce, stored, recompute = RANK_TWO_FINDINGS[kind]
    # a floor below the root bound, and every slack a finding
    monkeypatch.setattr(verify, "beta_bound", lambda n: -0.75)
    monkeypatch.setattr(verify, "SLACK_FINDING_THRESHOLD", -np.inf)
    written = []
    real_to_bundle = RankTwoFactors.to_bundle

    def recording_to_bundle(self, *args, **params):
        written.append(real_to_bundle(self, *args, **params))
        return written[-1]

    monkeypatch.setattr(RankTwoFactors, "to_bundle", recording_to_bundle)
    produce(tmp_path / "first")
    paths = sorted((tmp_path / "first").glob("*.bundle"))
    assert paths
    for path in paths:
        loaded = read_bundle(path)
        assert loaded.kind == kind
        assert list(loaded.vectors) == ["u1", "v1", "u2", "v2"]
        p = loaded.params
        rt = RankTwoFactors(p["sigma1"], p["sigma2"], *loaded.vectors.values())
        assert any(
            bundle.params == p
            and all(np.array_equal(bundle.vectors[name], vec) for name, vec in loaded.vectors.items())
            for bundle in written
        )
        assert abs(recompute(rt, p) - stored(p)) <= 1e-12
    produce(tmp_path / "second")
    for path in paths:
        assert (tmp_path / "second" / path.name).read_bytes() == path.read_bytes()
