import json

import numpy as np
import pytest

import fblcrd as f
from fblcrd.exceptions import ValidationError
from oracles import sample_iid, sequence_distortion


def test_binary_example_validates_with_zero_floor(binary_instance):
    assert binary_instance.d_floor == 0.0
    assert binary_instance.zero_rate_distortion == pytest.approx(0.2, abs=1e-15)


def test_pmf_sum_violation():
    with pytest.raises(ValidationError, match="sums to"):
        f.JointSource([[0.5, 0.3], [0.1, 0.09]])


def test_negative_probability():
    with pytest.raises(ValidationError, match="negative probability"):
        f.JointSource([[0.6, 0.5], [-0.1, 0.0]])


def test_negative_distortion():
    with pytest.raises(ValidationError, match="negative distortion"):
        f.DistortionSpec([[0.0, -0.1], [1.0, 0.0]])


def test_empty_alphabet():
    with pytest.raises(ValidationError, match="non-empty"):
        f.JointSource(np.zeros((0, 2)))


def test_shape_mismatch():
    src = f.JointSource([[0.5, 0.5]])
    with pytest.raises(ValidationError, match="rows"):
        f.validate(src, f.DistortionSpec([[0.0], [1.0]]))


def test_validate_idempotent(binary_instance):
    assert f.validate(binary_instance) is binary_instance


def test_marginal_consistency():
    rng = np.random.default_rng(3)
    pmf = rng.dirichlet(np.ones(12)).reshape(4, 3)
    src = f.JointSource(pmf)
    assert np.abs(src.pmf.sum(axis=0) - src.p_s).max() <= 1e-14
    assert np.abs(src.pmf.sum(axis=1) - src.p_x).max() <= 1e-14
    pos = src.p_s > 0
    recon = src.cond_x_given_s[:, pos] * src.p_s[pos]
    assert np.abs(recon - src.pmf[:, pos]).max() <= 1e-15


def test_structural_zeros_removed():
    src = f.JointSource([[0.5 - 5e-16, 5e-16], [0.25, 0.25]])
    assert src.pmf[0, 1] == 0.0
    assert src.pmf.sum() == pytest.approx(1.0, abs=1e-15)


def test_sample_iid_deterministic(binary_instance):
    a = sample_iid(binary_instance, 1000, seed=42)
    b = sample_iid(binary_instance, 1000, seed=42)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.s, b.s)
    c = sample_iid(binary_instance, 1000, seed=43)
    assert not np.array_equal(a.x, c.x)


def test_sample_iid_degenerate_source():
    src = f.JointSource([[1.0, 0.0], [0.0, 0.0]])
    inst = f.validate(src, f.DistortionSpec([[0.0, 1.0], [1.0, 0.0]]))
    seq = sample_iid(inst, 64, seed=0)
    assert np.all(seq.x == 0) and np.all(seq.s == 0)


def test_sample_iid_empirical_frequencies(binary_instance):
    n = 100_000
    seq = sample_iid(binary_instance, n, seed=7)
    pmf = binary_instance.source.pmf
    for x in range(2):
        for s in range(2):
            p = pmf[x, s]
            emp = np.mean((seq.x == x) & (seq.s == s))
            stderr = np.sqrt(p * (1 - p) / n)
            assert abs(emp - p) <= 3.0 * stderr


def test_sample_iid_chunking_is_part_of_the_contract(binary_instance):
    # identical chunking reproduces identical output; different chunkings
    # are different draws from the same law
    a = sample_iid(binary_instance, 3000, seed=9, chunk_size=1024)
    b = sample_iid(binary_instance, 3000, seed=9, chunk_size=1024)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.s, b.s)
    c = sample_iid(binary_instance, 3000, seed=9, chunk_size=512)
    assert len(c) == 3000
    # same-law check: joint frequencies of the re-chunked stream stay
    # within binomial error of the model
    pmf = binary_instance.source.pmf
    for x in range(2):
        for s in range(2):
            p = pmf[x, s]
            emp = np.mean((c.x == x) & (c.s == s))
            assert abs(emp - p) <= 4.0 * np.sqrt(p * (1 - p) / 3000)


def test_sequence_distortion_identity_and_counting():
    dist = f.DistortionSpec([[0.0, 1.0], [1.0, 0.0]])
    x = np.array([0, 1, 1, 0, 1])
    assert sequence_distortion(x, x, dist) == 0.0
    y = x.copy()
    y[1] ^= 1
    y[4] ^= 1
    assert sequence_distortion(x, y, dist) == pytest.approx(2.0 / 5.0, abs=1e-16)


def test_sequence_distortion_matches_direct_sum():
    rng = np.random.default_rng(11)
    d = rng.uniform(0, 2, (3, 4))
    dist = f.DistortionSpec(d)
    x = rng.integers(0, 3, 57)
    y = rng.integers(0, 4, 57)
    direct = sum(d[a, b] for a, b in zip(x, y)) / 57
    assert sequence_distortion(x, y, dist) == pytest.approx(direct, abs=1e-15)


def test_sequence_distortion_length_mismatch():
    dist = f.DistortionSpec([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValidationError, match="length mismatch"):
        sequence_distortion([0, 1], [0], dist)


def test_model_json_round_trip(tmp_path, binary_instance):
    doc = {
        "x_size": 2, "s_size": 2, "y_size": 2,
        "pmf": binary_instance.source.pmf.tolist(),
        "d": binary_instance.dist.d.tolist(),
        "labels": {"x": ["low", "high"]},
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    inst = f.load_model(path)
    assert np.allclose(inst.source.pmf, binary_instance.source.pmf)
    assert inst.source.labels == {"x": ["low", "high"]}


def test_model_json_reports_row_and_column(tmp_path):
    doc = {"x_size": 2, "s_size": 2, "y_size": 2,
           "pmf": [[0.4, 0.4], [0.1, "oops"]],
           "d": [[0.0, 1.0], [1.0, 0.0]]}
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="row 1 col 1"):
        f.load_model(path)


def test_model_json_invalid_document(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    with pytest.raises(ValidationError, match="invalid JSON"):
        f.load_model(path)
