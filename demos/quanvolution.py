"""Slide a small quantum circuit over a 2D map and inspect the channels.

Run with:  python3 demos/quanvolution.py
"""

import numpy as np

from vqlab.quanv import QuanvFilter, quanv_forward


def main():
    rng = np.random.default_rng(11)

    # synthetic 8x8 feature map: a bright diagonal ridge on noise
    map2d = 0.2 * rng.random((8, 8))
    for i in range(8):
        map2d[i, i] = 1.0

    filt = QuanvFilter.random(k=2, depth=1, seed=3, stride=2)
    out = quanv_forward(filt, map2d)
    h_out, w_out, channels = out.shape
    print(f"8x8 map, {filt.k}x{filt.k} patches, stride {filt.stride} "
          f"-> {h_out}x{w_out}x{channels} channels")
    for channel in range(out.shape[2]):
        print(f"\nchannel {channel} (<Z> on wire {channel}):")
        for row in out[:, :, channel]:
            print("  " + "  ".join(f"{v:+.3f}" for v in row))

    # the diagonal ridge shows up as a distinct response on the diagonal
    diag = np.array([out[i, i, 0] for i in range(h_out)])
    off = np.array([out[i, j, 0] for i in range(h_out)
                    for j in range(w_out) if i != j])
    print(f"\nchannel-0 diagonal mean {diag.mean():+.3f} vs "
          f"off-diagonal mean {off.mean():+.3f}")


if __name__ == "__main__":
    main()
