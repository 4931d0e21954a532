"""The three workloads as chains of ``reidkit`` CLI stages.

Each stage is (name, argv); the name is the CLI subcommand, which is also
the ``cli.<name>_s`` per-layer metric the stage's CLI self time goes to.
"""

from __future__ import annotations

import glob
import os

WORKLOADS = ("market_global", "stripes_dp", "analysis")


def chain(workload: str, inp: str, out: str, sizes: dict, seed: int) -> list:
    """Stages of one round of ``workload``, reading ``inp`` and writing ``out``."""
    i = lambda name: os.path.join(inp, name)  # noqa: E731
    o = lambda name: os.path.join(out, name)  # noqa: E731
    if workload == "market_global":
        emb = ["--emb-q", i("query.remb"), "--emb-g", i("gallery.remb"), "--metric", "euclidean"]
        return [
            ("dist", ["dist", *emb, "--local-mode", "none", "--out", o("dist.rdmx")]),
            ("eval", ["eval", "--queries", i("query.csv"), "--gallery", i("gallery.csv"), *emb,
                      "--local-mode", "none", "--out", o("report.json")]),
        ]
    if workload == "stripes_dp":
        sz = sizes["stripes_dp"]
        embed = lambda role: ("embed", [  # noqa: E731
            "embed", "--index", i(f"{role}.csv"), "--images-root", o("masked"),
            "--stripes", str(sz["stripes"]), "--bins", str(sz["bins"]), "--out", o(f"{role}.remb")])
        idx = ["--queries", i("query.csv"), "--gallery", i("gallery.csv")]
        emb = ["--emb-q", o("query.remb"), "--emb-g", o("gallery.remb"), "--lam", "1.0"]
        return [
            ("mask", ["mask", "--images", i("images"), "--masks", i("masks"), "--out", o("masked")]),
            embed("query"),
            embed("gallery"),
            ("dist", ["dist", *emb, "--local-mode", "dp_aligned", "--out", o("dist_dp.rdmx")]),
            ("eval", ["eval", *idx, *emb, "--local-mode", "dp_aligned", "--out", o("report_dp.json")]),
            ("eval", ["eval", *idx, *emb, "--local-mode", "one_to_one", "--out", o("report_o2o.json")]),
        ]
    if workload == "analysis":
        sz = sizes["analysis"]
        train = ["--index", i("train.csv"), "--emb", i("train.remb")]
        return [
            ("camera", ["camera", *train, "--normalize", "--out-emb", o("normalized.remb"),
                        "--out", o("camera.json")]),
            ("tsne", ["tsne", "--index", i("tsne.csv"), "--emb", i("tsne.remb"), "--role", "gallery",
                      "--iterations", str(sz["tsne_iterations"]), "--seed", str(seed),
                      "--trace", o("tsne_kl.txt"), "--out", o("tsne.tsv")]),
            ("mine", ["mine", *train, "--p", str(sz["p"]), "--k", str(sz["k"]), "--seed", str(seed),
                      "--out", o("mine.json")]),
            ("ema", ["ema", "--init", "--student", i("student0"), "--alpha", str(sz["alpha"]),
                     "--out", o("ema0")]),
            ("ema", ["ema", "--state", o("ema0"), "--student", i("student1"), "--out", o("ema1")]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def setup_inputs(workload: str, inp: str) -> list:
    """(loader, path) pairs: the workload's inputs as its stages first read
    them, through ``gallery.load_index``, ``gallery.load_embeddings`` and
    ``imaging.decode_image``."""
    i = lambda name: os.path.join(inp, name)  # noqa: E731
    if workload == "market_global":
        return [("index", i("query.csv")), ("index", i("gallery.csv")),
                ("emb", i("query.remb")), ("emb", i("gallery.remb"))]
    if workload == "stripes_dp":
        images = sorted(glob.glob(i("images/*.ppm"))) + sorted(glob.glob(i("masks/*.pgm")))
        return [("index", i("query.csv")), ("index", i("gallery.csv"))] + [("image", p) for p in images]
    if workload == "analysis":
        students = sorted(glob.glob(i("student*/*.remb")))
        return [("index", i("train.csv")), ("index", i("tsne.csv")),
                ("emb", i("train.remb")), ("emb", i("tsne.remb"))] + [("emb", p) for p in students]
    raise ValueError(f"unknown workload {workload!r}")
