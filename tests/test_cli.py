import json
import shutil
import struct
import tracemalloc

import numpy as np
import pytest

from reidkit import camera, distance, gallery, imaging, metrics, tsne
from reidkit.cli import run_cli
from reidkit.ensemble import EmaState, load_ema_state, save_ema_state


def write_ppm(path, pixels):
    with open(path, "wb") as fh:
        fh.write(imaging.encode_image(imaging.Image(np.asarray(pixels, np.uint8))))


def write_pgm(path, values):
    v = np.asarray(values, np.uint8)
    with open(path, "wb") as fh:
        fh.write(imaging.encode_image(imaging.Image(v[:, :, None])))


def make_person_image(rng, person_color, background_color, h=16, w=8):
    """Figure of a fixed color on a flat background; center half is body."""
    px = np.zeros((h, w, 3), np.uint8)
    px[:, :] = background_color
    px[h // 4 : 3 * h // 4, w // 4 : 3 * w // 4] = person_color
    return px


def body_mask(h=16, w=8):
    m = np.zeros((h, w), np.uint8)
    m[h // 4 : 3 * h // 4, w // 4 : 3 * w // 4] = 255
    return m


@pytest.fixture
def dataset(tmp_path):
    """Tiny 3-person, 2-camera dataset with adversarial backgrounds."""
    rng = np.random.default_rng(0)
    colors = [(220, 30, 30), (30, 220, 30), (30, 30, 220)]
    img_dir = tmp_path / "images"
    mask_dir = tmp_path / "masks"
    img_dir.mkdir()
    mask_dir.mkdir()
    records = []
    i = 0
    for pid in range(3):
        for cam in range(2):
            # background reuses another person's color
            bg = colors[(pid + 1 + cam) % 3]
            name = f"{pid:04d}_c{cam}_{i:03d}.ppm"
            write_ppm(img_dir / name, make_person_image(rng, colors[pid], bg))
            write_pgm(mask_dir / f"{pid:04d}_c{cam}_{i:03d}.pgm", body_mask())
            role = "query" if cam == 0 else "gallery"
            records.append((i, pid, cam, role, name))
            i += 1
    meta_all = tmp_path / "all.csv"
    with open(meta_all, "w") as fh:
        fh.write("index,person_id,camera_id,role,path\n")
        for idx, pid, cam, role, name in records:
            fh.write(f"{idx},{pid},{cam},{role},{name}\n")
    # split csvs, re-indexed
    for role_name in ("query", "gallery"):
        rows = [r for r in records if r[3] == role_name]
        with open(tmp_path / f"{role_name}.csv", "w") as fh:
            fh.write("index,person_id,camera_id,role,path\n")
            for j, (_, pid, cam, role, name) in enumerate(rows):
                fh.write(f"{j},{pid},{cam},{role},{name}\n")
    return tmp_path


def assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def write_index(path, n, role="gallery"):
    with open(path, "w") as fh:
        fh.write("index,person_id,camera_id,role,path\n")
        for i in range(n):
            fh.write(f"{i},{i % 3},{i % 2},{role},x{i}.ppm\n")


class TestEvalPipeline:
    def _embed(self, ds, csv, images_root, out):
        rc = run_cli(
            [
                "embed",
                "--index", str(ds / csv),
                "--images-root", str(images_root),
                "--stripes", "4",
                "--bins", "8",
                "--out", str(out),
            ]
        )
        assert rc == 0

    def test_embed_dist_eval_happy_path(self, dataset, capsys):
        self._embed(dataset, "query.csv", dataset / "images", dataset / "q.remb")
        self._embed(dataset, "gallery.csv", dataset / "images", dataset / "g.remb")
        rc = run_cli(
            [
                "eval",
                "--queries", str(dataset / "query.csv"),
                "--gallery", str(dataset / "gallery.csv"),
                "--emb-q", str(dataset / "q.remb"),
                "--emb-g", str(dataset / "g.remb"),
                "--metric", "euclidean",
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) >= {"mAP", "cmc", "protocol", "config"}
        assert doc["num_valid_queries"] == 3

    def test_missing_file_exit_2(self, dataset, capsys):
        rc = run_cli(
            [
                "eval",
                "--queries", str(dataset / "nope.csv"),
                "--gallery", str(dataset / "gallery.csv"),
                "--emb-q", str(dataset / "q.remb"),
                "--emb-g", str(dataset / "g.remb"),
            ]
        )
        assert rc == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_directory_as_index_exit_2(self, dataset, capsys):
        rc = run_cli(
            [
                "eval",
                "--queries", str(dataset / "images"),
                "--gallery", str(dataset / "gallery.csv"),
                "--emb-q", str(dataset / "q.remb"),
                "--emb-g", str(dataset / "g.remb"),
            ]
        )
        assert rc == 2
        assert_one_line_error(capsys)

    def test_usage_error_exit_1(self, capsys):
        assert run_cli(["eval"]) == 1
        assert run_cli(["frobnicate"]) == 1

    def test_mask_ablation_pipeline(self, dataset, tmp_path):
        # mask -> embed -> eval beats the unmasked run on adversarial backgrounds
        masked_dir = tmp_path / "masked"
        rc = run_cli(
            [
                "mask",
                "--images", str(dataset / "images"),
                "--masks", str(dataset / "masks"),
                "--out", str(masked_dir),
            ]
        )
        assert rc == 0
        maps = {}
        for tag, root in (("plain", dataset / "images"), ("masked", masked_dir)):
            self._embed(dataset, "query.csv", root, tmp_path / f"q_{tag}.remb")
            self._embed(dataset, "gallery.csv", root, tmp_path / f"g_{tag}.remb")
            out = tmp_path / f"report_{tag}.json"
            rc = run_cli(
                [
                    "eval",
                    "--queries", str(dataset / "query.csv"),
                    "--gallery", str(dataset / "gallery.csv"),
                    "--emb-q", str(tmp_path / f"q_{tag}.remb"),
                    "--emb-g", str(tmp_path / f"g_{tag}.remb"),
                    "--out", str(out),
                ]
            )
            assert rc == 0
            maps[tag] = json.loads(out.read_text())["mAP"]
        assert maps["masked"] >= maps["plain"]

    @pytest.mark.parametrize("mask_shape", [(8, 4), (24, 11)])
    def test_mask_of_another_size_is_resized_nearest(self, tmp_path, mask_shape):
        rng = np.random.default_rng(1)
        (tmp_path / "img").mkdir()
        pixels = rng.integers(0, 256, (16, 8, 3))
        write_ppm(tmp_path / "img" / "a.ppm", pixels)
        write_pgm(tmp_path / "img" / "a.pgm", rng.integers(0, 256, mask_shape))
        out = tmp_path / "out"
        argv = ["mask", "--images", str(tmp_path / "img"), "--masks", str(tmp_path / "img"), "--out", str(out)]
        assert run_cli(argv) == 0
        img = imaging.decode_image((tmp_path / "img" / "a.ppm").read_bytes())
        m = imaging.mask_from_image(imaging.decode_image((tmp_path / "img" / "a.pgm").read_bytes()))
        expected = imaging.apply_mask(img, imaging.resize_mask_nearest(m, 8, 16))
        assert (out / "a.ppm").read_bytes() == imaging.encode_image(expected)
        assert sorted(p.name for p in out.iterdir()) == ["a.ppm"]

    def test_dist_subcommand_writes_container(self, dataset, tmp_path):
        self._embed(dataset, "query.csv", dataset / "images", tmp_path / "q.remb")
        self._embed(dataset, "gallery.csv", dataset / "images", tmp_path / "g.remb")
        out = tmp_path / "d.rdmx"
        rc = run_cli(
            [
                "dist",
                "--emb-q", str(tmp_path / "q.remb"),
                "--emb-g", str(tmp_path / "g.remb"),
                "--local-mode", "one_to_one",
                "--lam", "0.5",
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert out.read_bytes()[:4] == b"RDMX"

    def test_byte_identical_reports(self, dataset, tmp_path):
        self._embed(dataset, "query.csv", dataset / "images", tmp_path / "q.remb")
        self._embed(dataset, "gallery.csv", dataset / "images", tmp_path / "g.remb")
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"r_{tag}.json"
            run_cli(
                [
                    "eval",
                    "--queries", str(dataset / "query.csv"),
                    "--gallery", str(dataset / "gallery.csv"),
                    "--emb-q", str(tmp_path / "q.remb"),
                    "--emb-g", str(tmp_path / "g.remb"),
                    "--out", str(out),
                ]
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestMineCommand:
    def test_mine_emits_triplets(self, dataset, tmp_path, capsys):
        # training split: reuse all images as train rows
        meta = tmp_path / "train.csv"
        lines = (dataset / "all.csv").read_text().splitlines()
        with open(meta, "w") as fh:
            fh.write(lines[0] + "\n")
            for line in lines[1:]:
                idx, pid, cam, _, name = line.split(",")
                fh.write(f"{idx},{pid},{cam},train,{name}\n")
        rc = run_cli(
            [
                "embed",
                "--index", str(meta),
                "--images-root", str(dataset / "images"),
                "--stripes", "4",
                "--out", str(tmp_path / "t.remb"),
            ]
        )
        assert rc == 0
        rc = run_cli(
            [
                "mine",
                "--index", str(meta),
                "--emb", str(tmp_path / "t.remb"),
                "--p", "2",
                "--k", "2",
                "--seed", "5",
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["batch_rows"]) == 4
        assert len(doc["triplets"]) == 4
        assert doc["loss"] >= 0


class TestEmaCommand:
    def test_init_and_update(self, tmp_path):
        rng = np.random.default_rng(1)
        student1 = {"w": rng.standard_normal((2, 2))}
        save_ema_state(EmaState(student1, alpha=0.5), tmp_path / "s1")
        rc = run_cli(
            [
                "ema", "--init",
                "--student", str(tmp_path / "s1"),
                "--alpha", "0.5",
                "--out", str(tmp_path / "state0"),
            ]
        )
        assert rc == 0
        student2 = {"w": np.zeros((2, 2))}
        save_ema_state(EmaState(student2, alpha=0.5), tmp_path / "s2")
        rc = run_cli(
            [
                "ema",
                "--state", str(tmp_path / "state0"),
                "--student", str(tmp_path / "s2"),
                "--out", str(tmp_path / "state1"),
            ]
        )
        assert rc == 0
        state = load_ema_state(tmp_path / "state1")
        assert state.step == 1
        np.testing.assert_allclose(
            state.tensors["w"],
            0.5 * student1["w"].astype(np.float32),
            atol=1e-7,
        )

    @pytest.mark.parametrize(
        "manifest", ["{not json", '{"alpha": 0.5, "step": 0}', '{"tensors": [], "alpha": 0.5}']
    )
    def test_malformed_manifest_exit_2(self, tmp_path, capsys, manifest):
        (tmp_path / "s").mkdir()
        (tmp_path / "s" / "manifest.json").write_text(manifest)
        rc = run_cli(
            ["ema", "--init", "--student", str(tmp_path / "s"), "--out", str(tmp_path / "o")]
        )
        assert rc == 2
        assert_one_line_error(capsys)

    def test_update_without_state_fails(self, tmp_path):
        rc = run_cli(["ema", "--student", str(tmp_path), "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize(
        "role,fields",
        [
            ("state", {"step": -1, "warmup": True}),
            ("state", {"step": 2.5}),
            ("state", {"step": True}),
            ("state", {"warmup": "yes"}),
            ("student", {"tensors": {"../../escaped": {"file": "../../escaped.remb", "shape": [1, 2]}}}),
            ("student", {"tensors": {"w": {"file": "../w.remb", "shape": [1, 2]}}}),
        ],
        ids=["negative_step_warmup", "fractional_step", "bool_step", "string_warmup",
             "escaping_name", "file_not_named_after_tensor"],
    )
    def test_invalid_manifest_exit_2_writes_nothing_outside_out(self, tmp_path, capsys, role, fields):
        ev = tmp_path / "ev"
        for name in ("state", "student"):
            save_ema_state(EmaState({"w": np.ones((1, 2))}, alpha=0.5), ev / name)
        manifest = ev / role / "manifest.json"
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()), **fields}))
        # every file a manifest names exists, so only validation can stop the run
        for info in fields.get("tensors", {}).values():
            shutil.copy(ev / role / "w.remb", ev / role / info["file"])
        before = set(tmp_path.rglob("*"))
        out = ev / "out" / "state"
        argv = ["ema", "--student", str(ev / "student"), "--out", str(out)]
        argv += ["--init"] if role == "student" else ["--state", str(ev / "state")]
        assert run_cli(argv) == 2
        assert_one_line_error(capsys)
        assert all(p == out or out in p.parents for p in set(tmp_path.rglob("*")) - before)


class TestCameraCommand:
    def test_report_and_normalize(self, dataset, tmp_path, capsys):
        rc = run_cli(
            [
                "embed",
                "--index", str(dataset / "all.csv"),
                "--images-root", str(dataset / "images"),
                "--stripes", "4",
                "--out", str(tmp_path / "all.remb"),
            ]
        )
        assert rc == 0
        rc = run_cli(
            [
                "camera",
                "--index", str(dataset / "all.csv"),
                "--emb", str(tmp_path / "all.remb"),
                "--normalize",
                "--out-emb", str(tmp_path / "norm.remb"),
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert "consistency_score" in doc
        norm = gallery.load_embeddings(tmp_path / "norm.remb")
        assert norm.global_.shape[0] == 6

    @pytest.mark.parametrize("params", ["[1, 2", '{"0": {"bias": [0.0]}}', "[1, 2]"])
    def test_malformed_residual_params_exit_2(self, tmp_path, monkeypatch, capsys, params):
        monkeypatch.setattr(camera, "camera_offsets", fail_if_called)
        emb = gallery.EmbeddingSet(np.zeros((4, 1), np.float32))
        gallery.save_embeddings(emb, tmp_path / "e.remb")
        write_index(tmp_path / "meta.csv", 4)
        (tmp_path / "res.json").write_text(params)
        rc = run_cli(
            [
                "camera",
                "--index", str(tmp_path / "meta.csv"),
                "--emb", str(tmp_path / "e.remb"),
                "--residual", str(tmp_path / "res.json"),
                "--out-emb", str(tmp_path / "o.remb"),
            ]
        )
        assert rc == 2
        assert_one_line_error(capsys)

    def test_residual_writes_the_library_transform(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        n, dim = 30, 5
        feats = (rng.standard_normal((n, dim)) + 0.4).astype(np.float32)
        gallery.save_embeddings(gallery.EmbeddingSet(feats), tmp_path / "e.remb")
        write_index(tmp_path / "meta.csv", n)
        index = gallery.load_index(tmp_path / "meta.csv")
        cams, pids = index.camera_ids, index.person_ids
        params = camera.CameraResidualParams(
            {c: 0.1 * rng.standard_normal((dim, dim)) for c in (0, 1)},
            {c: rng.standard_normal(dim) for c in (0, 1)},
        )
        camera.save_residual_params(params, tmp_path / "res.json")
        rc = run_cli(
            [
                "camera",
                "--index", str(tmp_path / "meta.csv"),
                "--emb", str(tmp_path / "e.remb"),
                "--residual", str(tmp_path / "res.json"),
                "--out-emb", str(tmp_path / "o.remb"),
            ]
        )
        assert rc == 0
        expected = gallery.EmbeddingSet(camera.apply_camera_residual(feats, params, cams))
        assert (tmp_path / "o.remb").read_bytes() == gallery.encode_embeddings(expected)
        out = capsys.readouterr().out
        doc = camera.camera_offsets(feats, cams, pids).to_dict()
        doc["score_definition"] = json.loads(out)["score_definition"]
        assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_normalize_and_residual_together_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(gallery, "load_index", fail_if_called)
        rc = run_cli(
            [
                "camera", "--index", "meta.csv", "--emb", "e.remb", "--normalize",
                "--residual", "res.json", "--out-emb", str(tmp_path / "o.remb"),
            ]
        )
        assert rc == 1
        assert "not allowed with argument" in capsys.readouterr().err


def fail_if_called(*args, **kwargs):
    raise AssertionError("flag validation ran after the computation it guards")


def write_retrieval_inputs(tmp_path):
    """A 4-row index and a .remb with local stripes describing its rows."""
    rng = np.random.default_rng(0)
    emb = gallery.EmbeddingSet(
        rng.standard_normal((4, 3)).astype(np.float32),
        rng.standard_normal((4, 2, 3)).astype(np.float32),
    )
    gallery.save_embeddings(emb, tmp_path / "e.remb")
    write_index(tmp_path / "meta.csv", 4)
    emb_flags = ["--emb-q", str(tmp_path / "e.remb"), "--emb-g", str(tmp_path / "e.remb")]
    return {
        "dist": ["dist", *emb_flags, "--out", str(tmp_path / "d.rdmx")],
        "eval": ["eval", "--queries", str(tmp_path / "meta.csv"),
                 "--gallery", str(tmp_path / "meta.csv"), *emb_flags],
    }


@pytest.mark.parametrize("local_mode", ["dp_aligned", "one_to_one"])
@pytest.mark.parametrize("command", ["dist", "eval"])
def test_stripe_dimension_mismatch_exit_2(tmp_path, capsys, command, local_mode):
    argv = write_retrieval_inputs(tmp_path)[command]
    wide = gallery.EmbeddingSet(np.zeros((4, 3), np.float32), np.zeros((4, 2, 5), np.float32))
    gallery.save_embeddings(wide, tmp_path / "wide.remb")
    argv[argv.index("--emb-g") + 1] = str(tmp_path / "wide.remb")
    assert run_cli([*argv, "--local-mode", local_mode]) == 2
    assert capsys.readouterr().err == "error: stripe dimension mismatch: 3 vs 5\n"


@pytest.mark.parametrize("bins", ["1", "257", "100000000"])
def test_embed_bad_bins_exit_2_before_loading(monkeypatch, capsys, bins):
    monkeypatch.setattr(gallery, "load_index", fail_if_called)
    monkeypatch.setattr(imaging, "decode_image", fail_if_called)
    assert run_cli(["embed", "--index", "meta.csv", "--bins", bins, "--out", "e.remb"]) == 2
    assert capsys.readouterr().err == f"error: bins per channel must be in [2, 256], got {bins}\n"


@pytest.mark.parametrize("lam", ["-1", "nan", "inf"])
@pytest.mark.parametrize("local_mode", ["dp_aligned", "one_to_one", "none"])
@pytest.mark.parametrize("command", ["dist", "eval"])
def test_bad_lambda_exit_2_before_any_distance(tmp_path, monkeypatch, capsys, command, local_mode, lam):
    argv = write_retrieval_inputs(tmp_path)[command]
    monkeypatch.setattr(distance, "distance_matrix", fail_if_called)
    monkeypatch.setattr(distance, "local_distance_matrix", fail_if_called)
    assert run_cli([*argv, "--local-mode", local_mode, "--lam", lam]) == 2
    assert capsys.readouterr().err == "error: lambda must be finite and >= 0\n"


def test_eval_bad_max_rank_exit_2_before_any_distance(tmp_path, monkeypatch, capsys):
    argv = write_retrieval_inputs(tmp_path)["eval"]
    monkeypatch.setattr(distance, "distance_matrix", fail_if_called)
    assert run_cli([*argv, "--max-rank", "0"]) == 2
    assert capsys.readouterr().err == "error: max_rank must be >= 1\n"


@pytest.mark.parametrize("rows", [(5, 4), (4, 5)], ids=["query_index_longer", "gallery_index_longer"])
def test_eval_row_mismatch_exit_2_before_any_distance(tmp_path, monkeypatch, capsys, rows):
    argv = write_retrieval_inputs(tmp_path)["eval"]
    write_index(tmp_path / "q5.csv", 5)
    argv[argv.index("--queries" if rows[0] == 5 else "--gallery") + 1] = str(tmp_path / "q5.csv")
    monkeypatch.setattr(distance, "distance_matrix", fail_if_called)
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "q5.csv has 5 rows but" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["mine", "--seed", "-1"], "seed must be >= 0"),
        (["mine", "--p", "1"], "need P >= 2 and K >= 2 for valid triplets"),
        (["mine", "--margin", "nan"], "margin must be finite and >= 0"),
        (["tsne", "--seed", "-3"], "seed must be >= 0"),
        (["tsne", "--perplexity", "nan"], "perplexity must be finite and exceed 1"),
        (["tsne", "--perplexity", "inf"], "perplexity must be finite and exceed 1"),
        (["tsne", "--learning-rate", "nan"], "learning rate must be finite and > 0"),
        (["tsne", "--learning-rate", "-5"], "learning rate must be finite and > 0"),
        (["tsne", "--iterations", "0"], "iterations must be >= 1"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_bad_mine_tsne_params_exit_2_before_loading(monkeypatch, capsys, argv, message):
    monkeypatch.setattr(gallery, "load_index", fail_if_called)
    monkeypatch.setattr(gallery, "load_embeddings", fail_if_called)
    assert run_cli([*argv, "--index", "meta.csv", "--emb", "e.remb"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("flags", [["--normalize"], ["--residual", "res.json"]], ids=lambda f: f[0])
def test_camera_without_out_emb_exit_2_before_offsets(tmp_path, monkeypatch, capsys, flags):
    monkeypatch.chdir(tmp_path)
    gallery.save_embeddings(gallery.EmbeddingSet(np.zeros((4, 2), np.float32)), tmp_path / "e.remb")
    write_index(tmp_path / "meta.csv", 4)
    (tmp_path / "res.json").write_text("{}")
    monkeypatch.setattr(camera, "camera_offsets", fail_if_called)
    assert run_cli(["camera", "--index", "meta.csv", "--emb", "e.remb", *flags]) == 2
    assert_one_line_error(capsys)


def test_camera_out_emb_without_transform_exit_2_before_offsets(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    gallery.save_embeddings(gallery.EmbeddingSet(np.zeros((4, 2), np.float32)), tmp_path / "e.remb")
    write_index(tmp_path / "meta.csv", 4)
    monkeypatch.setattr(camera, "camera_offsets", fail_if_called)
    assert run_cli(["camera", "--index", "meta.csv", "--emb", "e.remb", "--out-emb", "o.remb"]) == 2
    assert_one_line_error(capsys)
    assert not (tmp_path / "o.remb").exists()


def write_raw_remb(path, main, local=None):
    """A .remb written past the encoder's finite check."""
    n, d = main.shape
    s, dl = (0, 0) if local is None else local.shape[1:]
    parts = [struct.pack("<4s5I", b"REMB", 1, n, d, s, dl), main.astype("<f4").tobytes()]
    if local is not None:
        parts.append(local.astype("<f4").tobytes())
    path.write_bytes(b"".join(parts))


INDEX_COMMANDS = [
    ["mine", "--p", "2", "--k", "2"],
    ["tsne", "--perplexity", "2", "--iterations", "5"],
    ["camera"],
]


@pytest.mark.parametrize(
    "bad,message",
    [(np.nan, "non-finite value at (5, 2)"), (-np.inf, "non-finite value at (5, 2)"),
     ("local", "non-finite local value at (1, 0, 2)")],
    ids=["nan", "minus_inf", "local_nan"],
)
@pytest.mark.parametrize("command", [["dist"], *INDEX_COMMANDS], ids=lambda c: c[0])
def test_non_finite_features_exit_2_names_cell(tmp_path, capsys, command, bad, message):
    rng = np.random.default_rng(0)
    main = rng.standard_normal((8, 3)).astype(np.float32)
    local = rng.standard_normal((8, 2, 3)).astype(np.float32)
    if bad == "local":
        local[1, 0, 2] = np.nan
    else:
        main[5, 2] = bad
    write_raw_remb(tmp_path / "e.remb", main, local)
    write_index(tmp_path / "meta.csv", 8, role="train")
    out = tmp_path / "out"
    if command == ["dist"]:
        argv = ["dist", "--emb-q", str(tmp_path / "e.remb"), "--emb-g", str(tmp_path / "e.remb")]
    else:
        argv = [*command, "--index", str(tmp_path / "meta.csv"), "--emb", str(tmp_path / "e.remb")]
    assert run_cli([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_dist_float32_overflow_exit_2_with_one_line(tmp_path, capsys):
    # finite features whose distance 6e38 is finite in float64 but not in
    # the float32 .rdmx; the error alone names the cell, with no warning
    emb = gallery.EmbeddingSet(np.array([[3e38], [-3e38]], np.float32))
    gallery.save_embeddings(emb, tmp_path / "e.remb")
    out = tmp_path / "d.rdmx"
    argv = ["dist", "--emb-q", str(tmp_path / "e.remb"), "--emb-g", str(tmp_path / "e.remb"),
            "--out", str(out)]
    assert run_cli(argv) == 2
    assert capsys.readouterr().err == "error: non-finite value at (0, 1)\n"


@pytest.mark.parametrize("command", INDEX_COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize("index_rows,emb_rows", [(40, 10), (10, 40)])
def test_index_embedding_row_mismatch_exit_2(tmp_path, capsys, command, index_rows, emb_rows):
    rng = np.random.default_rng(0)
    emb = gallery.EmbeddingSet(rng.standard_normal((emb_rows, 4)).astype(np.float32))
    gallery.save_embeddings(emb, tmp_path / "e.remb")
    write_index(tmp_path / "meta.csv", index_rows, role="train" if command[0] == "mine" else "gallery")
    rc = run_cli(
        [*command, "--index", str(tmp_path / "meta.csv"), "--emb", str(tmp_path / "e.remb")]
    )
    assert rc == 2
    assert_one_line_error(capsys)


@pytest.mark.parametrize(
    "argv,content",
    [
        (["mine", "--index", "meta.csv", "--emb", "e.remb"], b"\xff" + np.random.default_rng(0).bytes(199)),
        (
            ["eval", "--queries", "meta.csv", "--gallery", "meta.csv", "--emb-q", "e.remb", "--emb-g", "e.remb"],
            b"index,person_id,camera_id,role,path\n0,1,1,query," + b"x" * 200_000 + b"\n",
        ),
    ],
    ids=["non_utf8_index", "oversized_csv_field"],
)
def test_unreadable_index_exit_2(tmp_path, monkeypatch, capsys, argv, content):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "meta.csv").write_bytes(content)
    gallery.save_embeddings(gallery.EmbeddingSet(np.zeros((1, 2), np.float32)), tmp_path / "e.remb")
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: meta.csv: malformed metadata CSV")
    assert err.count("\n") == 1


INDEX_HEAD = "index,person_id,camera_id,role,path\n0,3,1,train,b.ppm\n"
NOT_DECIMAL = ":{}: index, person_id and camera_id must be decimal integers, got {}"


@pytest.mark.parametrize(
    "text,message",
    [
        (INDEX_HEAD + "1,-3,1,train,a.ppm\n", ":3: person_id and camera_id must be non-negative"),
        (INDEX_HEAD + "1,3,1,train, \n", ":3: path must be non-empty"),
        (INDEX_HEAD + "+1,3,1,train,a.ppm\n", NOT_DECIMAL.format(3, "'+1', '3', '1'")),
        (INDEX_HEAD + "1,1_000,1,train,a.ppm\n", NOT_DECIMAL.format(3, "'1', '1_000', '1'")),
        (INDEX_HEAD + "1,3,\u0663,train,a.ppm\n", NOT_DECIMAL.format(3, "'1', '3', '\u0663'")),
        (INDEX_HEAD + "1,--3,1,train,a.ppm\n", NOT_DECIMAL.format(3, "'1', '--3', '1'")),
        (INDEX_HEAD + "1,,1,train,a.ppm\n", NOT_DECIMAL.format(3, "'1', '', '1'")),
        ("", ": empty file, header line required"),
        (
            "index,pid,camera_id,role,path\n",
            ": bad header ['index', 'pid', 'camera_id', 'role', 'path'], "
            "expected index,person_id,camera_id,role,path",
        ),
        (INDEX_HEAD + "1,3,1,train\n", ":3: expected 5 fields, got 4"),
        (INDEX_HEAD + "1,3,1,probe,a.ppm\n", ":3: unknown role 'probe'"),
        # the blank line is skipped, and still counted
        (INDEX_HEAD + "\n1,+3,1,train,a.ppm\n", NOT_DECIMAL.format(4, "'1', '+3', '1'")),
    ],
    ids=[
        "negative_id", "blank_path", "plus_sign", "underscore", "non_ascii_digit", "double_minus",
        "empty_field", "empty_file", "bad_header", "field_count", "unknown_role", "blank_line",
    ],
)
def test_invalid_index_row_exit_2_names_line(tmp_path, monkeypatch, capsys, text, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "neg.csv").write_text(text, encoding="utf-8")
    gallery.save_embeddings(gallery.EmbeddingSet(np.zeros((2, 2), np.float32)), tmp_path / "e.remb")
    assert run_cli(["mine", "--index", "neg.csv", "--emb", "e.remb"]) == 2
    assert capsys.readouterr().err == f"error: neg.csv{message}\n"


def test_embed_zero_stripes_exit_2_before_loading(monkeypatch, capsys):
    monkeypatch.setattr(gallery, "load_index", fail_if_called)
    assert run_cli(["embed", "--index", "meta.csv", "--stripes", "0", "--out", "e.remb"]) == 2
    assert capsys.readouterr().err == "error: stripe count must be positive\n"


@pytest.mark.parametrize(
    "image,message",
    [
        (imaging.encode_image(imaging.Image(np.zeros((16, 8, 1), np.uint8))),
         "featurizer requires a 3-channel image"),
        (b"P6\n0 16\n255\n", "image dimensions must be positive"),
    ],
    ids=["gray_pgm", "zero_width_ppm"],
)
def test_embed_bad_image_exit_2(tmp_path, capsys, image, message):
    write_ppm(tmp_path / "x0.ppm", np.zeros((16, 8, 3)))
    (tmp_path / "x1.ppm").write_bytes(image)
    write_index(tmp_path / "meta.csv", 2)
    out = tmp_path / "e.remb"
    argv = ["embed", "--index", str(tmp_path / "meta.csv"), "--images-root", str(tmp_path),
            "--out", str(out)]
    assert run_cli(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_embed_holds_one_decoded_image_at_a_time(tmp_path):
    # 200 images of 128 x 64, 4.7 MiB of decoded pixels: decoding the whole
    # index before featurizing any image peaked above that total
    n, h, w = 200, 128, 64
    rng = np.random.default_rng(0)
    with open(tmp_path / "meta.csv", "w") as fh:
        fh.write("index,person_id,camera_id,role,path\n")
        for i in range(n):
            write_ppm(tmp_path / f"x{i}.ppm", rng.integers(0, 256, (h, w, 3)))
            fh.write(f"{i},{i},0,gallery,x{i}.ppm\n")
    argv = ["embed", "--index", str(tmp_path / "meta.csv"), "--images-root", str(tmp_path),
            "--out", str(tmp_path / "e.remb")]
    tracemalloc.start()
    try:
        rc = run_cli(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < n * h * w * 3 / 3


def test_mask_from_color_image_exit_2(tmp_path, capsys):
    for sub_dir in ("images", "masks"):
        (tmp_path / sub_dir).mkdir()
        write_ppm(tmp_path / sub_dir / "a.ppm", np.zeros((16, 8, 3)))
    (tmp_path / "masks" / "a.ppm").rename(tmp_path / "masks" / "a.pgm")
    assert run_cli(["mask", "--images", str(tmp_path / "images"), "--masks", str(tmp_path / "masks"),
                    "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: mask source must be a 1-channel image\n"


def test_mask_without_ppm_images_exit_2(tmp_path, capsys):
    (tmp_path / "images").mkdir()
    (tmp_path / "images" / "notes.txt").write_text("not an image\n")
    assert run_cli(["mask", "--images", str(tmp_path / "images"), "--masks", str(tmp_path),
                    "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: no .ppm images in {tmp_path / 'images'}\n"


@pytest.mark.parametrize("local_mode", ["dp_aligned", "one_to_one"])
def test_embed_header_only_index_then_dist(tmp_path, local_mode):
    write_index(tmp_path / "empty.csv", 0)
    emb = tmp_path / "e.remb"
    assert run_cli(["embed", "--index", str(tmp_path / "empty.csv"), "--out", str(emb)]) == 0
    # magic, version 1, N = 0, D = 3B, S = 8 stripes, Dl = 3B, and no payload
    assert emb.read_bytes() == struct.pack("<4s5I", b"REMB", 1, 0, 24, 8, 24)
    out = tmp_path / "d.rdmx"
    argv = ["dist", "--emb-q", str(emb), "--emb-g", str(emb), "--local-mode", local_mode, "--out", str(out)]
    assert run_cli(argv) == 0
    assert distance.decode_distance_matrix(out.read_bytes()).shape == (0, 0)


class TestTsneCommand:
    def test_coords_output(self, tmp_path, rng):
        # synthetic embeddings, gallery-role index
        n = 12
        emb = gallery.EmbeddingSet(rng.standard_normal((n, 4)).astype(np.float32))
        gallery.save_embeddings(emb, tmp_path / "e.remb")
        with open(tmp_path / "meta.csv", "w") as fh:
            fh.write("index,person_id,camera_id,role,path\n")
            for i in range(n):
                fh.write(f"{i},{i % 3},0,gallery,x{i}.ppm\n")
        out = tmp_path / "coords.tsv"
        rc = run_cli(
            [
                "tsne",
                "--index", str(tmp_path / "meta.csv"),
                "--emb", str(tmp_path / "e.remb"),
                "--perplexity", "4",
                "--iterations", "50",
                "--out", str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x\ty\tperson_id\tcamera_id"
        assert len(lines) == n + 1
        for line in lines[1:]:
            x, y = line.split("\t")[:2]
            float(x), float(y)

    def test_deterministic_given_seed(self, tmp_path, rng):
        emb = gallery.EmbeddingSet(rng.standard_normal((10, 3)).astype(np.float32))
        gallery.save_embeddings(emb, tmp_path / "e.remb")
        with open(tmp_path / "meta.csv", "w") as fh:
            fh.write("index,person_id,camera_id,role,path\n")
            for i in range(10):
                fh.write(f"{i},{i},0,gallery,x{i}.ppm\n")
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"c_{tag}.tsv"
            rc = run_cli(
                [
                    "tsne",
                    "--index", str(tmp_path / "meta.csv"),
                    "--emb", str(tmp_path / "e.remb"),
                    "--perplexity", "4",
                    "--iterations", "30",
                    "--seed", "9",
                    "--out", str(out),
                ]
            )
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("role", ["all", "query", "train"])
    def test_role_selects_rows_in_index_order(self, tmp_path, rng, role):
        n, roles = 24, ["query", "gallery", "train"]
        feats = rng.standard_normal((n, 4)).astype(np.float32)
        gallery.save_embeddings(gallery.EmbeddingSet(feats), tmp_path / "e.remb")
        with open(tmp_path / "meta.csv", "w") as fh:
            fh.write("index,person_id,camera_id,role,path\n")
            for i in range(n):
                fh.write(f"{i},{i % 5},{i % 3 + i % 2},{roles[i % 3]},x{i}.ppm\n")
        out, trace = tmp_path / "coords.tsv", tmp_path / "kl.txt"
        rc = run_cli(
            [
                "tsne",
                "--index", str(tmp_path / "meta.csv"),
                "--emb", str(tmp_path / "e.remb"),
                "--role", role,
                "--perplexity", "3",
                "--iterations", "30",
                "--seed", "5",
                "--trace", str(trace),
                "--out", str(out),
            ]
        )
        assert rc == 0
        keep = [i for i in range(n) if role in ("all", roles[i % 3])]
        params = tsne.TsneParams(perplexity=3, iterations=30, seed=5)
        coords, kl = tsne.run_tsne(feats[keep], params)
        lines = out.read_text().splitlines()
        assert lines[0] == "x\ty\tperson_id\tcamera_id"
        assert lines[1:] == [
            f"{float(x)!r}\t{float(y)!r}\t{i % 5}\t{i % 3 + i % 2}" for (x, y), i in zip(coords, keep)
        ]
        assert trace.read_text().splitlines() == [repr(v) for v in kl]
        assert len(kl) == 30 and all(type(v) is float for v in kl)

    def test_role_without_rows_exit_2(self, tmp_path, capsys):
        gallery.save_embeddings(gallery.EmbeddingSet(np.ones((6, 4), np.float32)), tmp_path / "e.remb")
        write_index(tmp_path / "meta.csv", 6)
        out = tmp_path / "coords.tsv"
        argv = ["tsne", "--index", str(tmp_path / "meta.csv"), "--emb", str(tmp_path / "e.remb"),
                "--role", "query", "--out", str(out)]
        assert run_cli(argv) == 2
        assert capsys.readouterr().err == "error: no records with role 'query'\n"
        assert not out.exists()

    def test_role_with_fewer_than_4_rows_exit_2(self, tmp_path, capsys):
        gallery.save_embeddings(gallery.EmbeddingSet(np.eye(6, dtype=np.float32)), tmp_path / "e.remb")
        with open(tmp_path / "meta.csv", "w") as fh:
            fh.write("index,person_id,camera_id,role,path\n")
            for i in range(6):
                fh.write(f"{i},{i},0,{'query' if i < 3 else 'gallery'},x{i}.ppm\n")
        out = tmp_path / "coords.tsv"
        argv = ["tsne", "--index", str(tmp_path / "meta.csv"), "--emb", str(tmp_path / "e.remb"),
                "--role", "query", "--out", str(out)]
        assert run_cli(argv) == 2
        assert capsys.readouterr().err == "error: need at least 4 points\n"
        assert not out.exists()

    def test_diverging_descent_exit_2_without_output(self, tmp_path, rng, capsys):
        emb = gallery.EmbeddingSet(rng.standard_normal((12, 4)).astype(np.float32))
        gallery.save_embeddings(emb, tmp_path / "e.remb")
        write_index(tmp_path / "meta.csv", 12)
        out = tmp_path / "coords.tsv"
        rc = run_cli(
            [
                "tsne",
                "--index", str(tmp_path / "meta.csv"),
                "--emb", str(tmp_path / "e.remb"),
                "--perplexity", "4",
                "--iterations", "50",
                "--learning-rate", "1e300",
                "--out", str(out),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: t-SNE diverged at iteration ") and err.count("\n") == 1
        assert not out.exists()


@pytest.mark.parametrize("command", ["dist", "eval"])
def test_global_stage_peak_is_float64_features_and_one_result(tmp_path, command):
    # Market-1501 in proportion (3,368 x 15,913 x 2,048, scaled down, with
    # nq/D = 1.6): without a local term the stage holds float64 q and g and
    # one result; neither the float32 file buffers (a fifth more here) nor
    # full-size boolean masks may come on top. Each 64-row block of the
    # global distance adds 64 result rows, so nq stays well above 64.
    nq, ng, dim = 984, 4_500, 600
    rng = np.random.default_rng(0)
    for side, n in (("q", nq), ("g", ng)):
        emb = gallery.EmbeddingSet(rng.standard_normal((n, dim)).astype(np.float32))
        gallery.save_embeddings(emb, tmp_path / f"{side}.remb")
        write_index(tmp_path / f"{side}.csv", n)
    emb_flags = ["--emb-q", str(tmp_path / "q.remb"), "--emb-g", str(tmp_path / "g.remb")]
    argv = {
        "dist": ["dist", *emb_flags, "--out", str(tmp_path / "d.rdmx")],
        "eval": ["eval", "--queries", str(tmp_path / "q.csv"), "--gallery", str(tmp_path / "g.csv"),
                 *emb_flags, "--out", str(tmp_path / "r.json")],
    }[command]
    tracemalloc.start()
    try:
        rc = run_cli(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < 1.1 * 8 * (nq * ng + nq * dim + ng * dim)


@pytest.mark.parametrize("local_mode", ["none", "dp_aligned", "one_to_one"])
@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
def test_dist_and_eval_write_the_library_composition(tmp_path, metric, local_mode):
    rng = np.random.default_rng(3)
    sides = {}
    for side, n, role in (("q", 6, "query"), ("g", 9, "gallery")):
        sides[side] = gallery.EmbeddingSet(
            rng.standard_normal((n, 5)).astype(np.float32),
            rng.standard_normal((n, 3, 4)).astype(np.float32),
        )
        gallery.save_embeddings(sides[side], tmp_path / f"{side}.remb")
        write_index(tmp_path / f"{side}.csv", n, role=role)
    q, g = sides["q"], sides["g"]
    expected = distance.distance_matrix(q.global_, g.global_, metric)
    if local_mode != "none":
        dl = distance.local_distance_matrix(q, g, local_mode)
        expected = distance.combine_distances(expected, dl, 0.37)
    flags = ["--emb-q", str(tmp_path / "q.remb"), "--emb-g", str(tmp_path / "g.remb"),
             "--metric", metric, "--local-mode", local_mode, "--lam", "0.37"]
    assert run_cli(["dist", *flags, "--out", str(tmp_path / "d.rdmx")]) == 0
    assert (tmp_path / "d.rdmx").read_bytes() == distance.encode_distance_matrix(expected)
    assert run_cli(["eval", "--queries", str(tmp_path / "q.csv"), "--gallery", str(tmp_path / "g.csv"),
                    *flags, "--out", str(tmp_path / "r.json")]) == 0
    queries, gal = gallery.load_index(tmp_path / "q.csv"), gallery.load_index(tmp_path / "g.csv")
    doc = metrics.evaluate(queries, gal, expected).to_dict()
    doc["config"] = {"metric": metric, "local_mode": local_mode, "lambda": 0.37}
    assert (tmp_path / "r.json").read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "command",
    [
        ["eval", "--queries", "meta.csv", "--gallery", "meta.csv", "--emb-q", "e.remb", "--emb-g", "e.remb"],
        ["camera", "--index", "meta.csv", "--emb", "e.remb"],
        ["mine", "--index", "meta.csv", "--emb", "e.remb", "--p", "2", "--k", "2"],
    ],
    ids=lambda c: c[0],
)
@pytest.mark.parametrize(
    "row",
    ["2,100000000000000000000,1,train,c.ppm", "2,9223372036854775808,1,train,c.ppm",
     "2,1,9223372036854775808,train,c.ppm"],
    ids=["person_1e20", "person_2^63", "camera_2^63"],
)
def test_ids_beyond_int64_exit_2_names_line(tmp_path, monkeypatch, capsys, command, row):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "meta.csv").write_text(
        "index,person_id,camera_id,role,path\n0,1,0,train,a.ppm\n1,2,1,train,b.ppm\n" + row + "\n"
    )
    gallery.save_embeddings(gallery.EmbeddingSet(np.ones((3, 2), np.float32)), tmp_path / "e.remb")
    assert run_cli(command) == 2
    assert capsys.readouterr().err == (
        "error: meta.csv:4: person_id and camera_id must be below 2^63 (int64)\n"
    )


@pytest.mark.parametrize("cameras", [6, 2])
def test_camera_normalize_peak_is_under_four_feature_copies(tmp_path, cameras):
    # in float32 feature sizes: the file buffer (1) and the float64 result
    # (2), then that result and its float32 cast, are alive together, each
    # input freed before the next step; camera_offsets gathers float32 rows,
    # so one camera's gather stays under 1 even with 2 cameras. Holding all
    # four copies with the writer's buffer was 5.1, and a float64 copy of the
    # features in camera_offsets 4.1 with 2 cameras
    n, dim = 6_000, 512
    rng = np.random.default_rng(0)
    gallery.save_embeddings(
        gallery.EmbeddingSet(rng.standard_normal((n, dim)).astype(np.float32)), tmp_path / "e.remb"
    )
    with open(tmp_path / "meta.csv", "w") as fh:
        fh.write("index,person_id,camera_id,role,path\n")
        for i in range(n):
            fh.write(f"{i},{i // 8},{i % cameras},train,x{i}.ppm\n")
    argv = ["camera", "--index", str(tmp_path / "meta.csv"), "--emb", str(tmp_path / "e.remb"),
            "--normalize", "--out-emb", str(tmp_path / "n.remb"), "--out", str(tmp_path / "c.json")]
    tracemalloc.start()
    try:
        rc = run_cli(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < 3.6 * 4 * n * dim
