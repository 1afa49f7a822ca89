"""Quantum convolution: slide a small circuit filter over a 2D map.

Each k x k patch is flattened row-major, affinely rescaled from a
declared input range into [0, 1], turned into rotation angles, and run
through the filter circuit; the U per-wire Z expectations become the U
output channels at that patch position.  No padding; output extent is
floor((H - k) / s) + 1 per axis.  All patches are evaluated as one batch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from . import vqc
from .vqc import EncodingSpec, VqcModel


def extract_patches(map2d: np.ndarray, k: int,
                    stride: int) -> List[Tuple[np.ndarray, Tuple[int, int]]]:
    """Row-major (patch, (row, col)) list; no padding."""
    map2d = np.asarray(map2d, dtype=np.float64)
    if map2d.ndim != 2:
        raise ValueError(f"expected a 2D map, got shape {map2d.shape}")
    h, w = map2d.shape
    if k < 1 or stride < 1:
        raise ValueError("patch size and stride must be >= 1")
    if h < k or w < k:
        raise ValueError(f"map {h}x{w} smaller than patch {k}x{k}")
    patches = []
    for r in range(0, h - k + 1, stride):
        for c in range(0, w - k + 1, stride):
            patches.append((map2d[r:r + k, c:c + k].copy(), (r, c)))
    return patches


@dataclass
class QuanvFilter:
    """k x k circuit filter; k^2 must equal the model's qubit count.

    Patch values are mapped affinely from [v_min, v_max] to [0, 1] (and
    clipped) before encoding, so bounded pixel data is not squashed twice;
    the model's own nonlinearity should normally be "none".
    """

    model: VqcModel
    k: int = 2
    stride: int = 1
    v_min: float = 0.0
    v_max: float = 1.0

    def __post_init__(self):
        if self.k ** 2 != self.model.num_qubits:
            raise ValueError(
                f"patch {self.k}x{self.k} needs {self.k ** 2} qubits, "
                f"model has {self.model.num_qubits}")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if not self.v_max > self.v_min:
            raise ValueError("need v_max > v_min")

    @classmethod
    def random(cls, k: int = 2, depth: int = 1, seed: int = 0,
               stride: int = 1, v_min: float = 0.0, v_max: float = 1.0,
               trainable_init: bool = False) -> "QuanvFilter":
        """Seeded filter.  By default the circuit is a fixed random one
        (angles uniform over a full turn); ``trainable_init`` switches to
        the near-identity initialization used for training."""
        init_scale = np.pi / 100 if trainable_init else np.pi
        model = VqcModel.random(k * k, depth, seed=seed,
                                init_scale=init_scale,
                                encoding=EncodingSpec("none"))
        return cls(model, k, stride, v_min, v_max)

    def normalize(self, patch: np.ndarray) -> np.ndarray:
        scaled = (patch - self.v_min) / (self.v_max - self.v_min)
        return np.clip(scaled, 0.0, 1.0)


def output_shape(h: int, w: int, k: int, stride: int) -> Tuple[int, int]:
    return (h - k) // stride + 1, (w - k) // stride + 1


def quanv_forward(filt: QuanvFilter, map2d: np.ndarray) -> np.ndarray:
    """Apply the filter everywhere; result shape (H', W', U)."""
    map2d = np.asarray(map2d, dtype=np.float64)
    patches = extract_patches(map2d, filt.k, filt.stride)
    h_out, w_out = output_shape(map2d.shape[0], map2d.shape[1],
                                filt.k, filt.stride)
    u = filt.model.num_qubits
    flat = np.stack([filt.normalize(p).reshape(u) for p, _ in patches])
    enc = vqc.encoding_angles(flat, filt.model.encoding)
    z = vqc.run_circuit_batch(filt.model, filt.model.params, enc_angles=enc)
    return z.reshape(h_out, w_out, u)


def load_map_csv(path: str) -> np.ndarray:
    """Read an H x W real-valued map; errors cite the offending row/column."""
    rows: List[List[float]] = []
    with open(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            values = []
            for col_no, token in enumerate(line.split(","), start=1):
                try:
                    values.append(float(token))
                except ValueError:
                    raise ValueError(
                        f"{path}: row {line_no}, column {col_no}: "
                        f"not a number: {token!r}") from None
            if rows and len(values) != len(rows[0]):
                raise ValueError(
                    f"{path}: row {line_no} has {len(values)} values, "
                    f"expected {len(rows[0])}")
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: empty map")
    return np.array(rows)


def output_to_json(output: np.ndarray) -> str:
    """{"shape": [H', W', U], "data": row-major flattened reals}."""
    return json.dumps({
        "shape": list(output.shape),
        "data": [float(v) for v in output.reshape(-1)],
    })
