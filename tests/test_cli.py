import json
import shutil

import numpy as np
import pytest

from reidkit import camera, distance, gallery, imaging
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


@pytest.mark.parametrize(
    "command",
    [
        ["mine", "--p", "2", "--k", "2"],
        ["tsne", "--perplexity", "2", "--iterations", "5"],
        ["camera"],
    ],
    ids=lambda c: c[0],
)
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


@pytest.mark.parametrize(
    "row,message",
    [
        ("1,-3,1,train,a.ppm", "person_id and camera_id must be non-negative"),
        ("1,3,1,train, ", "path must be non-empty"),
    ],
    ids=["negative_id", "blank_path"],
)
def test_invalid_index_row_exit_2_names_line(tmp_path, monkeypatch, capsys, row, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "neg.csv").write_text("index,person_id,camera_id,role,path\n0,3,1,train,b.ppm\n" + row + "\n")
    gallery.save_embeddings(gallery.EmbeddingSet(np.zeros((2, 2), np.float32)), tmp_path / "e.remb")
    assert run_cli(["mine", "--index", "neg.csv", "--emb", "e.remb"]) == 2
    assert capsys.readouterr().err == f"error: neg.csv:3: {message}\n"


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
