import numpy as np

from spiketrim.rng import Stream, label_key, stream


def test_streams_reproducible():
    a = stream(42, "weights").uniform(100)
    b = stream(42, "weights").uniform(100)
    assert (a == b).all()


def test_labels_separate_streams():
    a = stream(42, "weights").uniform(100)
    b = stream(42, "spikes").uniform(100)
    assert not (a == b).all()


def test_seed_changes_stream():
    a = stream(1, "x").uniform(50)
    b = stream(2, "x").uniform(50)
    assert not (a == b).all()


def test_uniform_range_and_grid():
    u = stream(7, "u").uniform(10000)
    assert (u >= 0).all() and (u < 1).all()
    assert np.allclose(u * (1 << 24), np.round(u * (1 << 24)))  # 24-bit grid
    assert abs(u.mean() - 0.5) < 0.02


def test_uniform_grid_weights_dyadic_and_bounded():
    w = stream(3, "w").uniform_grid((64, 64), 0.25)
    assert (np.abs(w) <= 0.25).all()
    steps = w / (0.25 / (1 << 23))
    assert np.allclose(steps, np.round(steps))


def test_sign_magnitude():
    w = stream(5, "s").sign_magnitude((1000,), 0.25)
    assert set(np.unique(w)) == {-0.25, 0.25}
    assert 0.4 < (w > 0).mean() < 0.6


def test_draws_continue_not_repeat():
    s = stream(9, "q")
    a = s.uniform(10)
    b = s.uniform(10)
    assert not (a == b).all()


def test_permutation_valid():
    for n in (1, 2, 17, 64):
        p = stream(11, f"perm{n}").permutation(n)
        assert sorted(p.tolist()) == list(range(n))


def test_sample_without_replacement():
    s = stream(13, "samp").sample_without_replacement(20, 8)
    assert len(s) == 8 and len(set(s.tolist())) == 8
    assert (np.diff(s) > 0).all()
    again = stream(13, "samp").sample_without_replacement(20, 8)
    assert (s == again).all()


def test_integers_bounds():
    v = stream(17, "ints").integers(5000, 7)
    assert v.min() >= 0 and v.max() < 7
    counts = np.bincount(v, minlength=7)
    assert counts.min() > 5000 / 7 * 0.8


def test_label_key_stable():
    # frozen value: FNV-1a must never drift between runs or platforms
    assert label_key("embed") == label_key("embed")
    assert label_key("a") != label_key("b")


def _permutation_uint64(s: Stream, n: int) -> np.ndarray:
    """Fisher-Yates with numpy uint64 scalar math on every swap: the
    reference the Python-int loop of Stream.permutation must equal."""
    out = np.arange(n, dtype=np.int64)
    draws = s._raw(max(n - 1, 0))
    for i in range(n - 1, 0, -1):
        with np.errstate(over="ignore"):
            j = int((draws[n - 1 - i] >> np.uint64(32)) * np.uint64(i + 1) >> np.uint64(32))
        out[i], out[j] = out[j], out[i]
    return out


def test_permutation_equals_uint64_reference():
    for seed in range(6):
        for k in range(20):
            for n in (0, 1, 2, 3, 16, 64, 257):
                label = f"random_prune/{k}"
                got = stream(seed, label).permutation(n)
                expect = _permutation_uint64(stream(seed, label), n)
                assert got.dtype == expect.dtype == np.int64
                assert got.tolist() == expect.tolist(), (seed, label, n)
