import json

import numpy as np
import pytest

from vqlab import simcore, vqc
from vqlab.quanv import (QuanvFilter, extract_patches, load_map_csv,
                         output_to_json, quanv_forward)


def fixed_filter(seed=0, k=2, depth=1, stride=2):
    return QuanvFilter.random(k=k, depth=depth, seed=seed, stride=stride)


def reference_forward(filt, map2d):
    """Slice each window, normalize it, stack, run the circuit."""
    k, s, u = filt.k, filt.stride, filt.model.num_qubits
    h_out = (map2d.shape[0] - k) // s + 1
    w_out = (map2d.shape[1] - k) // s + 1
    rows = [filt.normalize(map2d[i * s:i * s + k, j * s:j * s + k]).reshape(u)
            for i in range(h_out) for j in range(w_out)]
    z = vqc.run_circuit_batch(filt.model, filt.model.params, np.stack(rows))
    return z.reshape(h_out, w_out, u)


class TestExtractPatches:
    def test_four_by_four_stride_two(self):
        map2d = np.arange(16.0).reshape(4, 4)
        patches = extract_patches(map2d, 2, 2)
        assert patches.shape == (2, 2, 2, 2)
        for i in range(2):
            for j in range(2):
                assert np.array_equal(patches[i, j],
                                      map2d[2 * i:2 * i + 2, 2 * j:2 * j + 2])
        assert np.array_equal(patches[0, 1], [[2, 3], [6, 7]])

    def test_full_size_patch(self):
        map2d = np.arange(9.0).reshape(3, 3)
        patches = extract_patches(map2d, 3, 1)
        assert patches.shape == (1, 1, 3, 3)
        assert np.array_equal(patches[0, 0], map2d)

    def test_floor_law(self):
        patches = extract_patches(np.ones((3, 3)), 2, 2)
        assert patches.shape == (1, 1, 2, 2)

    def test_view_refuses_writes(self):
        patches = extract_patches(np.zeros((4, 5)), 2, 1)
        assert not patches.flags.writeable
        with pytest.raises(ValueError):
            patches[0, 0, 0, 0] = 1.0

    def test_map_smaller_than_patch(self):
        with pytest.raises(ValueError):
            extract_patches(np.ones((1, 4)), 2, 1)

    @pytest.mark.parametrize("h,w,k,s", [(4, 4, 2, 1), (5, 7, 2, 2),
                                         (8, 8, 3, 2), (6, 4, 2, 3),
                                         (9, 9, 3, 3)])
    def test_count_matches_shape_law(self, h, w, k, s):
        map2d = np.arange(float(h * w)).reshape(h, w)
        patches = extract_patches(map2d, k, s)
        assert patches.shape == ((h - k) // s + 1, (w - k) // s + 1, k, k)
        for i in range(patches.shape[0]):
            for j in range(patches.shape[1]):
                assert np.array_equal(patches[i, j],
                                      map2d[i * s:i * s + k, j * s:j * s + k])


class TestQuanvFilter:
    def test_patch_size_must_match_qubits(self):
        model = vqc.VqcModel(4, 1)
        with pytest.raises(ValueError):
            QuanvFilter(model, k=3)

    def test_value_range_validated(self):
        model = vqc.VqcModel(4, 1)
        with pytest.raises(ValueError):
            QuanvFilter(model, k=2, v_min=1.0, v_max=1.0)

    def test_normalize_clips_to_unit_interval(self):
        filt = QuanvFilter(vqc.VqcModel(4, 1), k=2, v_min=0.0, v_max=2.0)
        out = filt.normalize(np.array([[-1.0, 0.0], [1.0, 4.0]]))
        assert np.array_equal(out, [[0.0, 0.0], [0.5, 1.0]])

    def test_random_filter_is_seeded(self):
        a = QuanvFilter.random(seed=5)
        b = QuanvFilter.random(seed=5)
        assert a.model == b.model


class TestQuanvForward:
    def test_output_shape(self):
        out = quanv_forward(fixed_filter(), np.random.default_rng(0).random((4, 4)))
        assert out.shape == (2, 2, 4)

    def test_constant_map_gives_constant_channels(self):
        out = quanv_forward(fixed_filter(), np.full((6, 6), 0.7))
        first = out[0, 0]
        assert np.allclose(out, first[None, None, :], atol=1e-12)

    def test_channel_range(self):
        rng = np.random.default_rng(1)
        out = quanv_forward(fixed_filter(seed=2), rng.random((8, 8)))
        assert np.all(out >= -1.0) and np.all(out <= 1.0)

    def test_determinism(self):
        rng = np.random.default_rng(2)
        map2d = rng.random((5, 5))
        filt = fixed_filter(seed=3, stride=1)
        assert np.array_equal(quanv_forward(filt, map2d),
                              quanv_forward(filt, map2d))

    def test_locality(self):
        rng = np.random.default_rng(3)
        map2d = rng.random((6, 6))
        filt = fixed_filter(seed=4, stride=2)
        base = quanv_forward(filt, map2d)
        bumped = map2d.copy()
        bumped[0, 0] += 0.2  # covered only by the (0, 0) patch
        out = quanv_forward(filt, bumped)
        changed = np.any(np.abs(out - base) > 1e-12, axis=2)
        assert changed[0, 0]
        assert not changed[0, 1:].any() and not changed[1:].any()

    def test_discrimination(self):
        rng = np.random.default_rng(4)
        filt = fixed_filter(seed=5)
        for _ in range(20):
            a = rng.random((4, 4))
            b = a.copy()
            b[0, 1] = (b[0, 1] + 0.5) % 1.0
            diff = np.abs(quanv_forward(filt, a) - quanv_forward(filt, b))
            assert diff.max() > 1e-6

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_matches_per_window_reference(self, k, stride):
        rng = np.random.default_rng(10 * k + stride)
        filt = QuanvFilter.random(k=k, depth=2, seed=k + stride,
                                  stride=stride, v_min=-0.5, v_max=2.0)
        for shape in ((k + 4, k + 7), (k + 6, k), (k, k + 3)):
            map2d = rng.uniform(-1.0, 2.5, shape)
            assert np.array_equal(quanv_forward(filt, map2d),
                                  reference_forward(filt, map2d))

    def test_input_map_unchanged(self):
        map2d = np.random.default_rng(5).uniform(-1.0, 2.0, (6, 7))
        before = map2d.copy()
        quanv_forward(fixed_filter(seed=7, stride=1), map2d)
        assert np.array_equal(map2d, before)

    def test_single_patch_matches_dense_oracle(self):
        filt = fixed_filter(seed=6, stride=1)
        patch = np.array([[0.1, 0.9], [0.4, 0.6]])
        out = quanv_forward(filt, patch)[0, 0]

        model = filt.model
        state = simcore.zero_state(4)
        angles = model.encoding.scale * filt.normalize(patch).reshape(4)
        for wire, angle in enumerate(angles):
            gate = simcore.GateOp("RY", (wire,), float(angle))
            state = simcore.dense_apply_oracle(state,
                                               simcore.embed_gate(gate, 4))
        layer = model.layers[0]
        for control, target in vqc.entangler_pairs(4, model.entangler):
            gate = simcore.GateOp("CNOT", (control, target))
            state = simcore.dense_apply_oracle(state,
                                               simcore.embed_gate(gate, 4))
        for wire in range(4):
            for kind, angles_ in (("RX", layer.alphas), ("RY", layer.betas),
                                  ("RZ", layer.gammas)):
                gate = simcore.GateOp(kind, (wire,), float(angles_[wire]))
                state = simcore.dense_apply_oracle(
                    state, simcore.embed_gate(gate, 4))
        oracle = np.array([simcore.expectation_z(state, w) for w in range(4)])
        assert np.max(np.abs(out - oracle)) <= 1e-12


class TestIo:
    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "map.csv"
        path.write_text("0.0,0.5\n1.0,0.25\n")
        assert np.array_equal(load_map_csv(str(path)),
                              [[0.0, 0.5], [1.0, 0.25]])

    def test_csv_bad_token_cites_position(self, tmp_path):
        path = tmp_path / "map.csv"
        path.write_text("0.0,0.5\n1.0,oops\n")
        with pytest.raises(ValueError, match="row 2, column 2"):
            load_map_csv(str(path))

    @pytest.mark.parametrize("token", ["inf", "nan", "-inf"])
    def test_csv_non_finite_cites_position(self, tmp_path, token):
        path = tmp_path / "map.csv"
        path.write_text(f"0.0,0.5\n1.0,{token}\n")
        with pytest.raises(ValueError, match="row 2, column 2"):
            load_map_csv(str(path))

    def test_csv_ragged_row_cited(self, tmp_path):
        path = tmp_path / "map.csv"
        path.write_text("0.0,0.5\n1.0\n")
        with pytest.raises(ValueError, match="row 2"):
            load_map_csv(str(path))

    def test_output_json_schema(self):
        out = quanv_forward(fixed_filter(), np.zeros((4, 4)))
        doc = json.loads(output_to_json(out))
        assert doc["shape"] == [2, 2, 4]
        assert len(doc["data"]) == 16
        assert np.allclose(np.array(doc["data"]).reshape(2, 2, 4), out)
