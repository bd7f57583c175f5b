"""Fig. 4 — three key-frame TFs vs IATF across the argon sequence.

Paper claim: each user TF (key frames 195/225/255) captures the ring only
near its own key frame — *"a transfer function set to visualize an earlier
time step is unsuitable for the later time steps and loses the features of
interest"* — while with IATF *"the ring structure is completely preserved
over the time period between the three key frames"*.

Regenerates the figure as a (method × step) retention matrix and times the
full per-sequence TF generation.
"""

from _helpers import argon_keyframe_tf, train_argon_iatf

from repro.core import generate_sequence_tfs
from repro.metrics import feature_retention

EVAL_TIMES = (195, 210, 225, 240, 255)
KEY_TIMES = (195, 225, 255)


def test_fig4_argon_ring_retention(argon, benchmark):
    eval_seq = argon.subsequence(EVAL_TIMES)
    iatf = train_argon_iatf(argon, key_times=KEY_TIMES)

    tfs = benchmark(lambda: generate_sequence_tfs(iatf, eval_seq))

    statics = {t: argon_keyframe_tf(argon, t) for t in KEY_TIMES}
    matrix = {}
    for method, tf_for_step in (
        [("iatf", dict(zip(EVAL_TIMES, tfs)))]
        + [(f"static_{kt}", {t: statics[kt] for t in EVAL_TIMES}) for kt in KEY_TIMES]
    ):
        row = []
        for t in EVAL_TIMES:
            vol = argon.at_time(t)
            opacity = tf_for_step[t].opacity_at(vol.data)
            row.append(feature_retention(opacity, vol.mask("ring")))
        matrix[method] = row

    print("\nFig. 4 ring-retention matrix (rows: method, cols: step):")
    header = " ".join(f"{t:>7}" for t in EVAL_TIMES)
    print(f"{'method':<12} {header}")
    for method, row in matrix.items():
        print(f"{method:<12} " + " ".join(f"{r:>7.2f}" for r in row))

    benchmark.extra_info["iatf_min_retention"] = round(min(matrix["iatf"]), 3)
    for kt in KEY_TIMES:
        benchmark.extra_info[f"static_{kt}_min"] = round(min(matrix[f"static_{kt}"]), 3)

    # IATF preserves the ring at *every* step…
    assert min(matrix["iatf"]) > 0.85
    # …each static TF works at its own key frame…
    for kt in KEY_TIMES:
        own = matrix[f"static_{kt}"][EVAL_TIMES.index(kt)]
        assert own > 0.9, f"static TF must capture the ring at its own key frame {kt}"
    # …but fails somewhere else in the sequence.
    for kt in KEY_TIMES:
        assert min(matrix[f"static_{kt}"]) < 0.2, f"static_{kt} should lose the ring"
