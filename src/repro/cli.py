"""Command-line interface: the batch half of the paper's workflow.

The interactive half (painting, key frames) happens in a session; the
batch half — generating data, training from key frames, fanning the
trained artifact across a sequence, rendering, tracking — is scriptable,
which is how the paper's cluster deployment runs (Secs. 4.2.3, 8).

Subcommands (``python -m repro.cli <cmd> -h`` for options):

- ``generate`` — build a synthetic dataset and save it as a sequence dir;
- ``info`` — summarize a saved sequence (steps, shape, ranges, masks);
- ``train-iatf`` — train an IATF from key frames (tents auto-placed over a
  named ground-truth mask's value band) and save it as JSON;
- ``apply-iatf`` — regenerate per-step TFs from a saved IATF, report
  feature retention, optionally in parallel;
- ``classify`` — train a data-space classifier from ground-truth masks and
  classify every step (``--fast``/``--exact``, ``--cache``);
- ``render`` — render a sequence to PPM frames with a box TF or saved IATF;
- ``track`` — fixed-range or adaptive tracking; writes per-step voxel
  counts and the event timeline;
- ``run`` — crash-safe resumable execution of the whole DAG against a
  content-addressed artifact store (``repro run cfg.json --out DIR``,
  ``repro run --resume DIR``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from repro.core.iatf import AdaptiveTransferFunction
from repro.core.pipeline import (
    box_band,
    classify_sequence,
    generate_sequence_tfs,
    render_sequence,
    train_sequence_classifier,
)
from repro.core.tracking import FeatureTracker
from repro.obs import get_metrics
from repro.data import (
    make_argon_sequence,
    make_combustion_sequence,
    make_cosmology_sequence,
    make_fast_vortex_sequence,
    make_swirl_sequence,
    make_vortex_sequence,
)
from repro.features import (
    DescriptorConfig,
    DescriptorIndex,
    DescriptorMatcher,
    cached_index,
    describe_components,
    feature_descriptor,
)
from repro.metrics import feature_retention
from repro.render.camera import Camera
from repro.render.fastcast import check_ert_alpha
from repro.render.raycast import ALPHA_CUTOFF
from repro.render.shading import check_shading_shape
from repro.run import (
    ConfigError,
    FollowRunner,
    PipelineRunner,
    RunConfig,
    RunError,
    SimulatedWriter,
)
from repro.transfer.tf1d import TransferFunction1D
from repro.volume.io import VolumeFormatError, load_sequence, save_sequence


def _ert_alpha(text: str) -> float:
    """argparse type for ``--ert-alpha``: a number in (0, 1]."""
    try:
        value = float(text)
        check_ert_alpha(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"must be a number in (0, 1], got {text!r}") from exc
    return value


def _int_at_least(text: str, minimum: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be an integer >= {minimum}, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    """argparse type for counts that must be >= 1 (workers, cells)."""
    return _int_at_least(text, 1)


def _count(text: str) -> int:
    """argparse type for counts that may be 0 (``--retries``)."""
    return _int_at_least(text, 0)

_GENERATORS = {
    "argon": make_argon_sequence,
    "combustion": make_combustion_sequence,
    "cosmology": make_cosmology_sequence,
    "vortex": make_vortex_sequence,
    "fast-vortex": make_fast_vortex_sequence,
    "swirl": make_swirl_sequence,
}


def _mask_band(volume, mask_name: str, pad: float = 0.02):
    values = volume.data[volume.mask(mask_name)]
    if values.size == 0:
        raise SystemExit(f"mask {mask_name!r} is empty at step {volume.time}")
    lo, hi = np.percentile(values, [2.0, 98.0])
    return float(lo - pad), float(hi + pad)


# --------------------------------------------------------------------- #
# Subcommand implementations
# --------------------------------------------------------------------- #
def _load_iatf(path) -> AdaptiveTransferFunction:
    """Read an IATF json file (``train-iatf``'s output) for the CLI.

    A file that is missing, is not JSON, or is JSON but not an IATF exits
    1 with one line naming it.
    """
    try:
        return AdaptiveTransferFunction.from_dict(json.loads(Path(path).read_text()))
    except KeyError as exc:
        raise SystemExit(f"cannot read IATF {path}: missing field {exc}") from None
    except (OSError, ValueError, TypeError, IndexError) as exc:
        raise SystemExit(f"cannot read IATF {path}: {exc}") from None


def cmd_generate(args) -> int:
    """Build a synthetic dataset and save it as a sequence directory."""
    maker = _GENERATORS[args.dataset]
    kwargs = {"seed": args.seed}
    if args.shape:
        kwargs["shape"] = tuple(args.shape)
    if args.times:
        kwargs["times"] = args.times
    sequence = maker(**kwargs)
    save_sequence(sequence, args.out)
    print(f"wrote {len(sequence)} steps of {args.dataset} "
          f"(shape {sequence.shape}) to {args.out}")
    return 0


def cmd_info(args) -> int:
    """Summarize a saved sequence (steps, shape, ranges, masks)."""
    sequence = load_sequence(args.seqdir)
    lo, hi = sequence.value_range
    print(f"sequence: {sequence.name or Path(args.seqdir).name}")
    print(f"steps: {len(sequence)} (ids {sequence.times[0]}..{sequence.times[-1]})")
    print(f"grid: {sequence.shape}")
    print(f"value range: [{lo:.4g}, {hi:.4g}]")
    masks = sorted(sequence[0].masks)
    print(f"ground-truth masks: {masks or 'none'}")
    for vol in sequence:
        vlo, vhi = vol.value_range
        print(f"  step {vol.time}: range [{vlo:.4g}, {vhi:.4g}]"
              + "".join(f" {m}={int(vol.mask(m).sum())}vx" for m in masks))
    return 0


def cmd_train_iatf(args) -> int:
    """Train an IATF from key frames; save it as JSON."""
    key_frames = load_sequence(args.seqdir, times=args.key_frames)
    # The shared domain and time span cover the whole sequence.
    full = load_sequence(args.seqdir)
    domain = full.value_range
    iatf = AdaptiveTransferFunction(
        domain, (full.times[0], full.times[-1]), seed=args.seed,
        committee=args.committee,
    )
    for t in args.key_frames:
        vol = key_frames.at_time(t)
        lo, hi = _mask_band(vol, args.mask)
        tf = TransferFunction1D(domain).add_tent(
            (lo + hi) / 2, (hi - lo) * args.tent_factor, 1.0
        )
        iatf.add_key_frame(vol, tf)
    losses = iatf.train(epochs=args.epochs)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(iatf.to_dict()))
    print(f"trained IATF on key frames {args.key_frames} "
          f"(final loss {losses[-1]:.5f}); saved to {args.out}")
    return 0


def cmd_apply_iatf(args) -> int:
    """Regenerate per-step TFs from a saved IATF; report retention."""
    iatf = _load_iatf(args.iatf)
    sequence = load_sequence(args.seqdir)
    tfs = generate_sequence_tfs(iatf, sequence, workers=args.workers,
                                retry=args.retries, on_error=args.on_error)
    print(f"{'step':>6} {'max opacity':>12}" + (f" {'retention':>10}" if args.mask else ""))
    for vol, tf in zip(sequence, tfs):
        if tf is None:
            print(f"{vol.time:>6} {'FAILED':>12}")
            continue
        line = f"{vol.time:>6} {tf.opacity.max():>12.3f}"
        if args.mask:
            ret = feature_retention(tf.opacity_at(vol.data), vol.mask(args.mask))
            line += f" {ret:>10.3f}"
        print(line)
    if args.out:
        payload = {str(vol.time): tf.to_dict()
                   for vol, tf in zip(sequence, tfs) if tf is not None}
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(payload))
        print(f"per-step TFs saved to {args.out}")
    return 0


def cmd_classify(args) -> int:
    """Train a data-space classifier and classify every step."""
    if args.mode == "exact" and args.cache is not None:
        raise SystemExit("--cache tunes the fast path; drop --exact")
    sequence = load_sequence(args.seqdir)
    try:
        classifier, radius = train_sequence_classifier(
            [sequence.at_time(t) for t in args.train_steps], mask=args.mask,
            samples=args.samples, radius=args.radius, epochs=args.epochs,
            seed=args.seed)
    except (ValueError, KeyError) as exc:
        raise SystemExit(str(exc)) from None
    results = classify_sequence(
        classifier, sequence, workers=args.workers,
        retry=args.retries, on_error=args.on_error, mode=args.mode,
        cache=args.cache,
    )
    print(f"shell radius: {radius}  mode: {args.mode}{'  cache' if args.cache else ''}")
    print(f"{'step':>6} {'selected':>9} {'retention':>10}")
    outdir = Path(args.out) if args.out else None
    if outdir is not None:
        outdir.mkdir(parents=True, exist_ok=True)
    for vol, cert in zip(sequence, results):
        if cert is None:
            print(f"{vol.time:>6} {'FAILED':>9}")
            continue
        ret = feature_retention(cert, vol.mask(args.mask))
        print(f"{vol.time:>6} {int((cert > 0.5).sum()):>9} {ret:>10.3f}")
        if outdir is not None:
            np.save(outdir / f"certainty_{vol.time:06d}.npy", cert)
    counters = get_metrics().counter_values("classify.")
    if counters:
        print("counters: " + "  ".join(f"{k.removeprefix('classify.')}={v}"
                                       for k, v in sorted(counters.items())))
    if outdir is not None:
        print(f"per-step certainty fields saved to {outdir}")
    return 0


def cmd_render(args) -> int:
    """Render every step to PPM frames (box TF or saved IATF)."""
    sequence = load_sequence(args.seqdir)
    if not args.no_shading:
        try:
            check_shading_shape(sequence.shape)
        except ValueError as exc:
            raise SystemExit(f"{exc} (render it with --no-shading)") from None
    domain = sequence.value_range
    camera = Camera(azimuth=args.azimuth, elevation=args.elevation,
                    width=args.size, height=args.size)
    if args.iatf:
        iatf = _load_iatf(args.iatf)
        tf_for = lambda vol: iatf.generate(vol)  # noqa: E731
    else:
        lo, hi = box_band(domain, *(args.box or ()))
        static = TransferFunction1D(domain).add_box(lo, hi, args.opacity)
        tf_for = lambda vol: static  # noqa: E731
    outdir = Path(args.out)
    if not args.fast and args.ert_alpha != ALPHA_CUTOFF:
        raise SystemExit("--ert-alpha tunes the fast path; add --fast")
    fast_options = None
    if args.fast:
        fast_options = {"ert_alpha": args.ert_alpha, "cell": args.cell}
    images = render_sequence(
        sequence, [tf_for(vol) for vol in sequence], camera=camera,
        shading=not args.no_shading, workers=args.workers,
        retry=args.retries, on_error=args.on_error,
        mode="fast" if args.fast else "exact", fast_options=fast_options,
        cache=args.cache,
    )
    for vol, image in zip(sequence, images):
        if image is None:
            print(f"step {vol.time}: FAILED (skipped)")
            continue
        if args.format == "png":
            path = image.save_png(outdir / f"frame_{vol.time:06d}.png")
        else:
            path = image.save_ppm(outdir / f"frame_{vol.time:06d}.ppm")
        print(f"step {vol.time}: coverage {image.coverage():.3f} -> {path}")
    counters = get_metrics().counter_values("render.frame_cache.")
    if counters:
        print("frame cache: "
              + "  ".join(f"{k.removeprefix('render.frame_cache.')}={v}"
                          for k, v in sorted(counters.items())))
    return 0


def cmd_track(args) -> int:
    """Track a feature (fixed range or adaptive IATF criterion).

    Every path runs the same tracking stream, so the tracked voxels never
    depend on the flags.  ``--streaming`` reads the sequence directory
    one step at a time (peak memory independent of the step count)
    instead of loading it whole, and ``--no-refine`` then skips the
    refinement sweeps.  Bad input (a seed outside the sequence, an empty
    range, an unreadable IATF) exits 1 with one line.
    """
    if not args.iatf and not args.range:
        raise SystemExit("either --iatf or --range LO HI is required")
    try:
        matcher = None
        if args.match is not None:
            matcher = DescriptorMatcher(threshold=args.match,
                                        max_gap=args.match_gap,
                                        max_displacement=args.match_displacement)
        tracker = FeatureTracker(opacity_threshold=args.opacity_threshold,
                                 matcher=matcher)
        iatf = lo = hi = None
        if args.iatf:
            iatf = _load_iatf(args.iatf)
        else:
            lo, hi = args.range
        if args.streaming:
            source, refine = args.seqdir, not args.no_refine
        else:
            source, refine = load_sequence(args.seqdir), True
        result = tracker.track_streaming(source, tuple(args.seed_voxel), lo=lo,
                                         hi=hi, iatf=iatf, refine=refine)
    except KeyError as exc:
        raise SystemExit(f"missing field {exc}") from None
    except (OSError, ValueError, IndexError) as exc:
        raise SystemExit(str(exc)) from None
    if args.streaming:
        print(f"streaming: {len(result.times)} steps, {result.sweeps} sweep(s)")
    print(f"criterion: {result.criterion}")
    print(f"{'step':>6} {'voxels':>8} {'components':>11}")
    for t, n, c in zip(result.times, result.voxel_counts, result.component_counts()):
        print(f"{t:>6} {n:>8} {c:>11}")
    events = [e for e in result.events if e.kind != "continuation"]
    print("events:", [(e.kind, f"{e.time_a}->{e.time_b}") for e in events] or "none")
    counters = get_metrics().counter_values("fastgrow.")
    counters.update(get_metrics().counter_values("track."))
    if counters:
        print("counters: " + "  ".join(f"{k}={v}" for k, v in sorted(counters.items())))
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        np.save(out, result.masks)
        print(f"tracked masks saved to {out}")
    return 0


def cmd_match(args) -> int:
    """Find features similar to a query feature across a whole run.

    Builds (or warm-loads) a :class:`DescriptorIndex` over every
    connected component of the per-step criterion masks, persisted
    through the artifact store under a content-addressed key — rerunning
    over an unchanged sequence hits the stored index instead of
    re-extracting descriptors (``track.match.index.hits``), while any
    voxel change rebuilds it.
    """
    from repro.cache.store import ArtifactStore, derive_key
    from repro.core.pipeline import volume_digest
    from repro.segmentation.components import label_components

    sequence = load_sequence(args.seqdir)
    lo, hi = args.range
    if hi <= lo:
        raise SystemExit(f"--range requires HI > LO, got ({lo}, {hi})")
    config = DescriptorConfig()
    store = ArtifactStore(args.store or Path(args.seqdir) / ".descriptor_index",
                          counter_prefix="match.store")
    key = derive_key(
        "descriptor-index", config.to_dict(),
        {"metric": args.metric, "lo": lo, "hi": hi,
         "min_voxels": args.min_voxels},
        *[volume_digest(vol).volume for vol in sequence])

    def build() -> DescriptorIndex:
        index = DescriptorIndex(metric=args.metric)
        for vol in sequence:
            crit = (vol.data >= lo) & (vol.data <= hi)
            for cand in describe_components(vol.data, crit, config=config,
                                            min_voxels=args.min_voxels):
                index.add(cand.descriptor, cand.meta(time=int(vol.time)))
        return index

    index, hit = cached_index(store, key, build)
    print(f"index: {len(index)} feature descriptors over {len(sequence)} "
          f"steps ({'warm from store' if hit else 'built and persisted'})")
    if args.query:
        time, z, y, x = args.query
        vol = sequence.at_time(time)
        crit = (vol.data >= lo) & (vol.data <= hi)
        labels, _ = label_components(crit)
        label = int(labels[z, y, x])
        if label == 0:
            raise SystemExit(
                f"query voxel ({z}, {y}, {x}) at step {time} is outside the "
                f"criterion band [{lo}, {hi}]")
        query = feature_descriptor(vol.data, labels == label, config=config)
        print(f"query: step {time} component {label} "
              f"({int((labels == label).sum())} voxels)")
        print(f"{'score':>8} {'step':>6} {'component':>10} {'voxels':>8} centroid")
        for score, meta in index.query(query, k=args.k):
            cz, cy, cx = meta["centroid"]
            print(f"{score:>8.4f} {meta['time']:>6} {meta['label']:>10} "
                  f"{meta['voxels']:>8} ({cz:.1f}, {cy:.1f}, {cx:.1f})")
    counters = get_metrics().counter_values("track.match.")
    if counters:
        print("counters: " + "  ".join(f"{k}={v}"
                                       for k, v in sorted(counters.items())))
    return 0


def cmd_serve(args) -> int:
    """Run the resident pipeline daemon over a directory of sequences."""
    from repro.serve.server import run_server

    return run_server(args.root, host=args.host, port=args.port,
                      workers=args.workers, max_queue=args.max_queue,
                      request_timeout=args.timeout)


def cmd_run(args) -> int:
    """Execute (or resume) a crash-safe pipeline run directory."""
    following = args.follow is not None
    runner_cls = FollowRunner if following else PipelineRunner
    try:
        if args.resume:
            if args.config or args.out:
                raise SystemExit("--resume takes the run directory only; "
                                 "the stored config.json drives the run")
            runner = runner_cls.resume(args.resume, workers=args.workers)
        else:
            if not args.config or not args.out:
                raise SystemExit("a new run needs a config json and --out DIR "
                                 "(or --resume RUN_DIR to continue one)")
            config = RunConfig.from_json(args.config)
            runner = runner_cls.create(config, args.out, workers=args.workers)
        if following:
            # --follow DIR watches that directory; bare --follow watches
            # the config's sequence directory as it is being written.
            report = runner.follow(args.follow or None, policy=args.follow_policy,
                                   poll=args.follow_poll,
                                   idle_timeout=args.follow_idle_timeout,
                                   max_steps=args.follow_max_steps)
        else:
            report = runner.run()
    except (ConfigError, RunError) as exc:
        raise SystemExit(str(exc)) from None
    for stage, status in report.stages.items():
        print(f"stage {stage}: {status}")
    print(f"tasks: {report.executed} executed, {report.skipped} skipped "
          f"({report.artifacts} artifacts in store)")
    if following:
        lags = report.lag_seconds
        p50 = f"{1e3 * float(np.percentile(lags, 50)):.1f}" if lags else "n/a"
        p95 = f"{1e3 * float(np.percentile(lags, 95)):.1f}" if lags else "n/a"
        print(f"follow: {report.steps} steps, {report.dropped} dropped, "
              f"lag p50/p95 ms: {p50}/{p95}")
    print(f"run directory: {report.run_dir}")
    return 0


def cmd_simulate(args) -> int:
    """Replay a saved sequence into a directory at a cadence (a stand-in
    simulation for exercising ``repro run --follow``)."""
    try:
        writer = SimulatedWriter.from_directory(
            args.source, args.out, cadence=args.cadence,
            torn_steps=args.torn or (), torn_hold=args.torn_hold)
    except OSError as exc:
        raise SystemExit(f"cannot read sequence {args.source}: {exc}") from None
    manifest = writer.run()
    print(f"wrote {len(writer.sequence)} steps to {writer.out_dir} "
          f"(manifest: {manifest})")
    return 0


# --------------------------------------------------------------------- #
# Parser
# --------------------------------------------------------------------- #
def _add_farm_options(p) -> None:
    """Task-farm fault-tolerance flags shared by the fan-out subcommands."""
    p.add_argument("--retries", type=_count, default=0,
                   help="times a failed step runs again, at once (default 0)")
    p.add_argument("--on-error", choices=["raise", "skip"], default="raise",
                   help="'skip' degrades gracefully: failed steps are "
                        "reported and omitted instead of aborting the run")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Intelligent feature extraction & tracking (SC'05 reproduction)"
    )
    parser.add_argument("--obs-sink", metavar="PATH",
                        help="append JSON-lines trace spans (task farm, "
                             "pipeline, renderer) to this file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="build a synthetic dataset")
    p.add_argument("dataset", choices=sorted(_GENERATORS))
    p.add_argument("out", help="output sequence directory")
    p.add_argument("--shape", type=int, nargs=3, metavar=("NZ", "NY", "NX"))
    p.add_argument("--times", type=int, nargs="+")
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("info", help="summarize a saved sequence")
    p.add_argument("seqdir")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("train-iatf", help="train an IATF from key frames")
    p.add_argument("seqdir")
    p.add_argument("--key-frames", type=int, nargs="+", required=True)
    p.add_argument("--mask", required=True,
                   help="ground-truth mask whose value band the key-frame tents cover")
    p.add_argument("--out", required=True, help="output IATF json")
    p.add_argument("--epochs", type=int, default=300)
    p.add_argument("--committee", type=int, default=5)
    p.add_argument("--tent-factor", type=float, default=2.5)
    p.add_argument("--seed", type=int, default=3)
    p.set_defaults(func=cmd_train_iatf)

    p = sub.add_parser("apply-iatf", help="regenerate per-step TFs from a saved IATF")
    p.add_argument("seqdir")
    p.add_argument("iatf", help="IATF json from train-iatf")
    p.add_argument("--mask", help="score retention against this mask")
    p.add_argument("--out", help="save per-step TFs as json")
    p.add_argument("--workers", type=_positive_int, default=1)
    _add_farm_options(p)
    p.set_defaults(func=cmd_apply_iatf)

    p = sub.add_parser("classify", help="train a data-space classifier "
                                        "and classify every step")
    p.add_argument("seqdir")
    p.add_argument("--mask", required=True,
                   help="ground-truth mask providing the training examples")
    p.add_argument("--train-steps", type=int, nargs="+", required=True,
                   help="step ids whose masks seed the training set")
    p.add_argument("--samples", type=int, default=150,
                   help="positive/negative examples sampled per training step")
    p.add_argument("--radius", type=int, default=0,
                   help="shell radius (0 = derive from the first training mask)")
    p.add_argument("--epochs", type=int, default=300)
    p.add_argument("--seed", type=int, default=11)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--fast", dest="mode", action="store_const", const="fast",
                      default="fast",
                      help="padded-view fused float32 inference (default)")
    mode.add_argument("--exact", dest="mode", action="store_const", const="exact",
                      help="reference float64 gather path")
    p.add_argument("--cache", nargs="?", const="shared", default=None,
                   metavar="DIR",
                   help="temporal-coherence brick cache across steps (fast "
                        "path only), backed by the shared on-disk store so "
                        "it composes with --workers; DIR overrides the "
                        "default cache root (~/.cache/repro/shared)")
    p.add_argument("--out", help="directory for per-step certainty .npy files")
    p.add_argument("--workers", type=_positive_int, default=1)
    _add_farm_options(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("render", help="render a sequence to image frames")
    p.add_argument("seqdir")
    p.add_argument("--out", required=True)
    p.add_argument("--iatf", help="saved IATF json (default: static box TF)")
    p.add_argument("--box", type=float, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--opacity", type=float, default=0.8)
    p.add_argument("--size", type=int, default=160)
    p.add_argument("--azimuth", type=float, default=30.0)
    p.add_argument("--elevation", type=float, default=20.0)
    p.add_argument("--no-shading", action="store_true")
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--fast", action="store_true",
                   help="renderer with empty-space skipping and early ray "
                        "termination (bit-identical to the reference at the "
                        "default --ert-alpha)")
    p.add_argument("--ert-alpha", type=_ert_alpha, default=ALPHA_CUTOFF,
                   help="fast-path early-termination opacity threshold; "
                        "below the default it trades a bounded compositing "
                        "tail for speed")
    p.add_argument("--cell", type=_positive_int, default=8,
                   help="fast-path macro-cell edge in voxels")
    p.add_argument("--cache", nargs="?", const="shared", default=None,
                   metavar="DIR",
                   help="reuse frames whose content digest repeats across "
                        "steps, backed by the shared on-disk store so it "
                        "composes with --workers; DIR overrides the default "
                        "cache root (~/.cache/repro/shared)")
    p.add_argument("--format", choices=["ppm", "png"], default="ppm",
                   help="frame file format")
    _add_farm_options(p)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("track", help="track a feature through a sequence")
    p.add_argument("seqdir")
    p.add_argument("--seed-voxel", type=int, nargs=4, required=True,
                   metavar=("STEP", "Z", "Y", "X"))
    p.add_argument("--range", type=float, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--iatf", help="saved IATF json for adaptive tracking")
    p.add_argument("--opacity-threshold", type=float, default=0.1)
    p.add_argument("--streaming", action="store_true",
                   help="consume the sequence one step at a time (peak "
                        "memory independent of the step count)")
    p.add_argument("--no-refine", action="store_true",
                   help="skip the streaming path's forward/backward "
                        "refinement sweeps (single forward pass)")
    p.add_argument("--match", type=float, nargs="?", const=0.7, default=None,
                   metavar="THRESHOLD",
                   help="descriptor-matching fallback: when a step's growth "
                        "finds zero overlap (fast motion, occlusion), match "
                        "candidate components against the lost feature's "
                        "descriptor and re-seed from the best one above "
                        "THRESHOLD cosine similarity (default 0.7); "
                        "lost/reacquired lineage shows in the events line")
    p.add_argument("--match-gap", type=_positive_int, default=4,
                   help="steps a feature may stay lost and still be "
                        "reacquired by --match")
    p.add_argument("--match-displacement", type=float, default=None,
                   metavar="VOXELS",
                   help="centroid travel allowed per elapsed step before a "
                        "--match candidate is rejected outright")
    p.add_argument("--out", help="save tracked masks as .npy")
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("match", help="find features similar to a query "
                                     "feature across a run (persisted "
                                     "descriptor index)")
    p.add_argument("seqdir")
    p.add_argument("--range", type=float, nargs=2, metavar=("LO", "HI"),
                   required=True,
                   help="criterion band whose connected components are the "
                        "indexed features")
    p.add_argument("--query", type=int, nargs=4,
                   metavar=("STEP", "Z", "Y", "X"),
                   help="describe the component containing this voxel "
                        "(step id) and print its nearest neighbours")
    p.add_argument("--k", type=_positive_int, default=5,
                   help="neighbours to print")
    p.add_argument("--metric", choices=["cosine", "l2"], default="cosine")
    p.add_argument("--min-voxels", type=_positive_int, default=8,
                   help="skip components smaller than this")
    p.add_argument("--store", metavar="DIR",
                   help="artifact store for the persisted index "
                        "(default: SEQDIR/.descriptor_index)")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("serve", help="resident pipeline daemon over stored "
                                     "sequences (classify/track/render/run "
                                     "over HTTP with request coalescing)")
    p.add_argument("--root", required=True,
                   help="directory whose subdirectories are stored sequences "
                        "(each with a sequence.json); also hosts the "
                        "daemon's cache, store, and run directories")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8737,
                   help="listen port (0 picks a free one; printed at startup)")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="resident worker-pool size shared by every request")
    p.add_argument("--max-queue", type=_positive_int, default=32,
                   help="distinct in-flight computes before new keys get 429 "
                        "(coalesced joins are never bounced)")
    p.add_argument("--timeout", type=float, default=300.0,
                   help="per-request compute timeout in seconds (504; "
                        "override per request with 'timeout_s')")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("run", help="crash-safe resumable pipeline run")
    p.add_argument("config", nargs="?",
                   help="run config json (see docs/reproduction_notes.md §13)")
    p.add_argument("--out", help="run directory for a new run")
    p.add_argument("--resume", metavar="RUN_DIR",
                   help="continue an interrupted run directory; completed "
                        "artifacts are verified and skipped")
    p.add_argument("--workers", type=_positive_int, default=None,
                   help="override the config's worker count for this "
                        "invocation (a pure throughput knob: not written "
                        "to config.json, outputs stay byte-identical)")
    p.add_argument("--follow", nargs="?", const="", default=None,
                   metavar="DIR",
                   help="in-situ online mode: watch DIR (default: the "
                        "config's sequence directory) while a simulation "
                        "is still writing it, processing steps as they "
                        "arrive; finalized outputs are byte-identical to "
                        "an offline run over the completed sequence")
    p.add_argument("--follow-policy", choices=["queue", "skip"],
                   default="queue",
                   help="backpressure when the writer outpaces the "
                        "follower: process every step in order (queue) "
                        "or jump to the newest and backfill the rest at "
                        "finalize (skip)")
    p.add_argument("--follow-poll", type=float, default=0.05, metavar="S",
                   help="seconds between directory scans while idle")
    p.add_argument("--follow-idle-timeout", type=float, default=None,
                   metavar="S",
                   help="give up (resumably) after S seconds with no new "
                        "step and no completion manifest")
    p.add_argument("--follow-max-steps", type=_positive_int, default=None,
                   metavar="N",
                   help="finalize after N distinct steps (bounded smoke "
                        "runs against endless writers)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("simulate", help="replay a saved sequence to a "
                       "directory at a cadence (stand-in simulation for "
                       "follow mode)")
    p.add_argument("source", help="completed sequence directory to replay")
    p.add_argument("out", help="directory the stand-in simulation writes "
                   "(what a follower watches)")
    p.add_argument("--cadence", type=float, default=0.1, metavar="S",
                   help="seconds between emitted steps")
    p.add_argument("--torn", type=int, nargs="+", metavar="STEP",
                   help="step indices first exposed as torn half-written "
                        "bricks before completing properly")
    p.add_argument("--torn-hold", type=float, default=0.2, metavar="S",
                   help="how long a torn state stays visible")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    """Entry point; returns the process exit code.

    A sequence directory that does not form readable volumes
    (:class:`VolumeFormatError`) exits 1 with one line, whichever
    subcommand read it.
    """
    args = build_parser().parse_args(argv)
    if args.obs_sink:
        get_metrics().configure_sink(args.obs_sink)
    try:
        return args.func(args)
    except VolumeFormatError as exc:
        raise SystemExit(str(exc)) from None


if __name__ == "__main__":
    sys.exit(main())
