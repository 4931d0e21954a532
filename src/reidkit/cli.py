"""Command-line entry point wiring the library into batch workflows:
embed -> dist -> eval, mask ablation, mining, EMA, camera analysis, t-SNE.

Exit codes: 0 success, 1 usage error, 2 data/file error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

# only what build_parser needs: each _cmd_* imports the modules it calls, so a
# stage pays for its own imports alone
from . import distance as distance_mod
from . import gallery
from .errors import DataError, ReidError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; remap to the documented exit code 1
    def error(self, message):
        raise _UsageError(message)


def _emit(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        gallery._write_file(out_path, text.encode("ascii"))


def _read_image(path):
    from . import imaging

    with open(path, "rb") as fh:
        return imaging.decode_image(fh.read())


def _load_aligned(index_path, emb_path):
    """An index and the embedding file whose rows it describes, checked to
    have the same number of rows. Without an index path the index is None."""
    index = None if index_path is None else gallery.load_index(index_path)
    emb = gallery.load_embeddings(emb_path)
    if index is not None and len(index) != emb.n:
        raise DataError(f"{index_path} has {len(index)} rows but {emb_path} has {emb.n}")
    return index, emb


def _distances(args, q_index=None, g_index=None):
    """(query index, gallery index, (Q, G), distance row blocks) for dist and
    eval, each side checked against its index file (q_index, g_index) if
    given. The local term comes first, whole, and is added to each block.
    Then the gallery is cast to float64 and its float32 file buffer freed,
    before the first block's matmul; the queries stay float32, and each
    block casts its own rows."""
    distance_mod.check_lambda(args.lam)
    queries, q = _load_aligned(q_index, args.emb_q)
    gal, g = _load_aligned(g_index, args.emb_g)
    shape = q.n, g.n
    dl = None
    if args.local_mode != "none":
        dl = distance_mod.local_distance_matrix(q, g, args.local_mode)
    q, g = q.global_, g.global_.astype(np.float64)
    blocks = distance_mod.global_distance_blocks(q, g, args.metric)
    if dl is not None:
        blocks = distance_mod.combine_distances(blocks, dl, args.lam)
    return queries, gal, shape, blocks


def _given(args, config) -> dict:
    """The fields of the dataclass config that the command line set; a flag
    left out reads None, so the field keeps the default of its type."""
    fields = (f.name for f in dataclasses.fields(config))
    return {n: getattr(args, n) for n in fields if getattr(args, n, None) is not None}


def _add_distance_flags(p):
    p.add_argument("--metric", choices=[m.value for m in distance_mod.Metric], default="euclidean")
    local_modes = [m.value for m in distance_mod.LocalMode] + ["none"]
    p.add_argument("--local-mode", choices=local_modes, default="none")
    p.add_argument("--lam", type=float, default=1.0, help="global/local mixing weight")


def _cmd_embed(args):
    from . import featurize

    cfg = featurize.FeaturizerConfig(**_given(args, featurize.FeaturizerConfig))
    paths = gallery.load_index(args.index).paths
    # a generator: one decoded image is alive at a time
    images = (_read_image(os.path.join(args.images_root, p)) for p in paths)
    gallery.save_embeddings(featurize.featurize_images(images, cfg), args.out)


def _cmd_mask(args):
    from . import imaging

    os.makedirs(args.out, exist_ok=True)
    names = sorted(n for n in os.listdir(args.images) if n.endswith(".ppm"))
    if not names:
        raise ReidError(f"no .ppm images in {args.images}")
    for name in names:
        img = _read_image(os.path.join(args.images, name))
        mask_path = os.path.join(args.masks, os.path.splitext(name)[0] + ".pgm")
        m = imaging.mask_from_image(_read_image(mask_path))
        if (m.height, m.width) != (img.height, img.width):
            m = imaging.resize_mask_nearest(m, img.width, img.height)
        masked = imaging.apply_mask(img, m)
        gallery._write_file(os.path.join(args.out, name), imaging.encode_image(masked))


def _cmd_dist(args):
    _, _, shape, blocks = _distances(args)
    gallery._write_file(args.out, distance_mod.encode_distance_matrix(blocks, shape))


def _cmd_eval(args):
    from . import metrics

    protocol = metrics.EvalProtocol(**_given(args, metrics.EvalProtocol))
    queries, gal, _, blocks = _distances(args, args.queries, args.gallery)
    report = metrics.evaluate(queries, gal, blocks, protocol)
    doc = report.to_dict()
    doc["config"] = {
        "metric": args.metric,
        "local_mode": args.local_mode,
        "lambda": args.lam,
    }
    _emit(gallery._json_report(doc), args.out)


def _cmd_mine(args):
    from . import mining

    cfg = mining.MiningConfig(**_given(args, mining.MiningConfig))
    index, emb = _load_aligned(args.index, args.emb)
    batch = mining.pk_sample(index, cfg)
    feats = emb.global_[batch]
    labels = index.person_ids[batch]
    d = distance_mod.distance_matrix(feats, feats, distance_mod.Metric.EUCLIDEAN)
    triplets = mining.batch_hard(d.values, labels)
    loss, grad = mining.triplet_loss_grad(feats, triplets, cfg.margin)
    doc = {
        "config": dataclasses.asdict(cfg),
        "batch_rows": [int(i) for i in batch],
        "triplets": [dataclasses.asdict(t) for t in triplets],
        "loss": float(loss),
        "grad_norm": float(np.linalg.norm(grad)),
    }
    _emit(gallery._json_report(doc), args.out)


def _cmd_ema(args):
    from . import ensemble

    # an update keeps the alpha and warm-up of its state
    given = _given(args, ensemble.EmaState)
    if not args.init and given:
        raise ReidError("--alpha and --warmup apply only with --init")
    student = ensemble.load_ema_state(args.student).tensors
    if args.init:
        state = ensemble.EmaState(student, **given)
    else:
        state = ensemble.load_ema_state(args.state)
        state = ensemble.ema_update(state, student)
    ensemble.save_ema_state(state, args.out)


def _cmd_camera(args):
    from . import camera

    if bool(args.residual or args.normalize) != bool(args.out_emb):
        raise ReidError("--out-emb is required with --normalize or --residual, and only with them")
    params = camera.load_residual_params(args.residual) if args.residual else None
    index, feats = _load_aligned(args.index, args.emb)
    feats, camids = feats.global_, index.camera_ids
    offsets = camera.camera_offsets(feats, camids, index.person_ids)
    if args.residual or args.normalize:
        # the float32 result overwrites the features, a writable view of the
        # file buffer that nothing reads again, and the writer writes it as
        # it is; the writer's check names an overflow to inf
        with np.errstate(over="ignore"):
            if params is not None:
                camera.apply_camera_residual(feats, params, camids, out=feats)
            else:
                camera.camera_normalize(feats, offsets, camids, out=feats)
        gallery.save_embeddings(gallery.EmbeddingSet(feats), args.out_emb)
    _emit(gallery._json_report(offsets.to_dict()), args.out)


def _cmd_tsne(args):
    from . import tsne

    params = tsne.TsneParams(**_given(args, tsne.TsneParams))
    index, emb = _load_aligned(args.index, args.emb)
    keep = np.flatnonzero((index.roles == args.role) | (args.role == "all"))
    if keep.size == 0:
        raise ReidError(f"no records with role {args.role!r}")
    coords, trace = tsne.run_tsne(emb.global_[keep], params)
    ids = zip(coords.tolist(), index.person_ids[keep].tolist(), index.camera_ids[keep].tolist())
    lines = ["x\ty\tperson_id\tcamera_id"] + [f"{x!r}\t{y!r}\t{p}\t{c}" for (x, y), p, c in ids]
    _emit("\n".join(lines) + "\n", args.out)
    if args.trace:
        _emit("\n".join(repr(v) for v in trace) + "\n", args.trace)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="reidkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("embed", help="featurize images into an embedding file")
    p.add_argument("--index", required=True)
    p.add_argument("--images-root", default=".")
    p.add_argument("--stripes", type=int)
    p.add_argument("--bins", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("mask", help="zero out image backgrounds using binary masks")
    p.add_argument("--images", required=True)
    p.add_argument("--masks", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_mask)

    p = sub.add_parser("dist", help="compute a query x gallery distance matrix")
    p.add_argument("--emb-q", required=True)
    p.add_argument("--emb-g", required=True)
    _add_distance_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("eval", help="run the retrieval protocol, emit a JSON report")
    p.add_argument("--queries", required=True)
    p.add_argument("--gallery", required=True)
    p.add_argument("--emb-q", required=True)
    p.add_argument("--emb-g", required=True)
    _add_distance_flags(p)
    p.add_argument("--no-cross-camera-filter", dest="cross_camera_filter", action="store_const", const=False)
    p.add_argument("--max-rank", type=int)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("mine", help="PK-sample a batch and mine hard triplets")
    p.add_argument("--index", required=True)
    p.add_argument("--emb", required=True)
    p.add_argument("--p", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--margin", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_mine)

    p = sub.add_parser("ema", help="initialize or advance a mean-teacher EMA state")
    base = p.add_mutually_exclusive_group(required=True)
    base.add_argument("--state", help="existing state directory to advance")
    base.add_argument("--init", action="store_true", help="start a new state from the student")
    p.add_argument("--student", required=True, help="student tensor directory")
    p.add_argument("--out", required=True)
    p.add_argument("--alpha", type=float, help="EMA decay, with --init only")
    p.add_argument("--warmup", action="store_const", const=True)
    p.set_defaults(func=_cmd_ema)

    p = sub.add_parser("camera", help="per-camera offset analysis and normalization")
    p.add_argument("--index", required=True)
    p.add_argument("--emb", required=True)
    transform = p.add_mutually_exclusive_group()
    transform.add_argument("--normalize", action="store_true")
    transform.add_argument("--residual", help="camera residual parameter file (JSON)")
    p.add_argument("--out-emb", help="output embedding file for normalize/residual")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_camera)

    p = sub.add_parser("tsne", help="embed features into 2-D for plotting")
    p.add_argument("--index", required=True)
    p.add_argument("--emb", required=True)
    p.add_argument("--role", choices=[r.value for r in gallery.Role] + ["all"],
                   default=gallery.Role.GALLERY.value)
    p.add_argument("--perplexity", type=float)
    p.add_argument("--iterations", type=int)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--trace", default=None, help="optional KL trace output path")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_tsne)

    return parser


def run_cli(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        for name, value in vars(args).items():  # only an in-process argv holds a NUL
            if isinstance(value, str) and "\0" in value:
                raise _UsageError(f"argument --{name.replace('_', '-')}: must not contain a NUL character")
        with np.errstate(over="raise"):
            args.func(args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:  # --help, printed
        return e.code
    except (ReidError, OSError, MemoryError, FloatingPointError) as e:
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
