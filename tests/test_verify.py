import numpy as np
import pytest

from distill_lab import verify
from distill_lab.bundles import read_bundle
from distill_lab.distill import RankTwoFactors, q_functional
from distill_lab.verify import SUITES, run_suite


# The equivalence, schmidt and lemmas suites draw random_rank_two samples or
# ascent-oracle starts; a second seed checks them on other draws.
@pytest.mark.parametrize(
    "suite,seed",
    [pytest.param(suite, 0xD157, id=suite) for suite in sorted(SUITES)]
    + [pytest.param(suite, 53591, id=f"{suite}-53591") for suite in ("equivalence", "lemmas", "schmidt")],
)
def test_suite_passes(suite, seed, tmp_path):
    results = run_suite(suite, seed=seed, bundle_dir=tmp_path)
    failed = [r for r in results if not r.ok]
    assert not failed, "; ".join(f"{r.name}: {r.detail}" for r in failed)


def test_all_runs_every_suite(tmp_path, monkeypatch):
    # Dispatch only: the maths of every suite runs in test_suite_passes.
    calls = []

    def stub(name):
        def check(seed, bundle_dir):
            calls.append((name, seed, bundle_dir))
            return True, name

        return check

    stubs = {suite: [(name, stub(name)) for name, _ in checks] for suite, checks in SUITES.items()}
    monkeypatch.setattr(verify, "SUITES", stubs)
    combined = run_suite("all", seed=0xD157, bundle_dir=tmp_path)
    names = [name for checks in SUITES.values() for name, _ in checks]
    assert [r.name for r in combined] == names
    assert [r.detail for r in combined] == names
    assert all(r.ok for r in combined)
    assert calls == [(name, 0xD157, tmp_path) for name in names]


def test_lemma_block_draws_match_per_row_draws():
    # the per-row draws the lemma checks made before they ran in blocks
    for size, blocks in ((4, (1, 6)), (9, (37,)), (27, (5, 2))):
        block_rng = np.random.default_rng(size)
        row_rng = np.random.default_rng(size)
        for count in blocks:
            u, v = verify._complex_pairs(block_rng, count, size)
            assert u.shape == v.shape == (count, size)
            for row in range(count):
                ref_u = row_rng.standard_normal(size) + 1j * row_rng.standard_normal(size)
                ref_v = row_rng.standard_normal(size) + 1j * row_rng.standard_normal(size)
                assert np.array_equal(u[row], ref_u)
                assert np.array_equal(v[row], ref_v)
                assert verify._norms(u)[row] == verify._norms(u[row : row + 1])[0]
        assert block_rng.random() == row_rng.random()


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("bogus")


def test_copy_floor_violation_writes_a_bundle_that_reads_back(tmp_path, monkeypatch):
    writes = []
    real_write = verify.write_bundle

    def recording_write(bundle, path):
        writes.append((path, bundle))
        return real_write(bundle, path)

    # a floor below the root bound, where the subset sum goes negative
    monkeypatch.setattr(verify, "beta_bound", lambda n: -0.75)
    monkeypatch.setattr(verify, "write_bundle", recording_write)
    ok, detail = verify._check_copy_floor(0xD157, tmp_path)
    assert not ok
    assert writes
    assert detail.startswith("floor violated: q=")
    assert detail.endswith(f"(bundle: {writes[-1][0]})")
    for path, bundle in dict(writes).items():  # the last bundle written to each path
        p = bundle.params
        assert path == tmp_path / f"floor-{p['d']}-{p['n']}.bundle"
        assert p["value"] < -1e-9
        loaded = read_bundle(path)
        assert loaded.kind == bundle.kind == "copy-floor-violation"
        assert loaded.params == p
        assert set(loaded.vectors) == set(bundle.vectors)
        for name, vec in bundle.vectors.items():
            assert np.array_equal(loaded.vectors[name], vec)
        rt = RankTwoFactors(
            p["sigma1"], p["sigma2"],
            loaded.vectors["u1"], loaded.vectors["v1"], loaded.vectors["u2"], loaded.vectors["v2"],
        )
        assert abs(q_functional(rt.to_matrix((p["d"],) * p["n"]), p["beta"]) - p["value"]) <= 1e-12
