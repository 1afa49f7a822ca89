import json

import numpy as np
import pytest

from vqlab import simcore, vqc
from vqlab.quanv import (QuanvFilter, extract_patches, load_map_csv,
                         output_shape, output_to_json, quanv_forward)


def fixed_filter(seed=0, k=2, depth=1, stride=2):
    return QuanvFilter.random(k=k, depth=depth, seed=seed, stride=stride)


class TestExtractPatches:
    def test_four_by_four_stride_two(self):
        patches = extract_patches(np.arange(16.0).reshape(4, 4), 2, 2)
        assert [anchor for _, anchor in patches] == [(0, 0), (0, 2), (2, 0),
                                                     (2, 2)]
        assert np.array_equal(patches[1][0], [[2, 3], [6, 7]])

    def test_full_size_patch(self):
        patches = extract_patches(np.ones((3, 3)), 3, 1)
        assert len(patches) == 1
        assert patches[0][1] == (0, 0)

    def test_floor_law(self):
        patches = extract_patches(np.ones((3, 3)), 2, 2)
        assert len(patches) == 1

    def test_map_smaller_than_patch(self):
        with pytest.raises(ValueError):
            extract_patches(np.ones((1, 4)), 2, 1)

    @pytest.mark.parametrize("h,w,k,s", [(4, 4, 2, 1), (5, 7, 2, 2),
                                         (8, 8, 3, 2), (6, 4, 2, 3),
                                         (9, 9, 3, 3)])
    def test_count_matches_shape_law(self, h, w, k, s):
        patches = extract_patches(np.zeros((h, w)), k, s)
        h_out, w_out = output_shape(h, w, k, s)
        assert len(patches) == h_out * w_out


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
