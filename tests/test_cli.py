import dataclasses
import errno
import io
import json
import os
import pathlib
import re
import shlex
import shutil
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from reidkit import camera, cli, distance, ensemble, featurize, gallery, imaging, metrics, mining, tsne
from reidkit.cli import run_cli
from reidkit.ensemble import EmaState, load_ema_state, save_ema_state
from reidkit.errors import ReidError

from conftest import config_stage


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


def assert_one_line_error(capsys, prefix="error: "):
    err = capsys.readouterr().err
    assert err.startswith(prefix)
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

    def test_batch_beyond_train_rows_exit_2(self, tmp_path, capsys):
        # P*K past the train rows fails before sampling, not with a MemoryError
        gallery.save_embeddings(gallery.EmbeddingSet(np.zeros((6, 2), np.float32)), tmp_path / "e.remb")
        write_index(tmp_path / "meta.csv", 6, role="train")
        argv = ["mine", "--index", str(tmp_path / "meta.csv"), "--emb", str(tmp_path / "e.remb"),
                "--p", "2", "--k", "1000000000000"]
        assert run_cli(argv) == 2
        assert capsys.readouterr().err == "error: P x K = 2000000000000 exceeds the 6 train rows\n"


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
        "manifest",
        ["{not json", '{"alpha": 0.5, "step": 0}', '{"tensors": [], "alpha": 0.5}',
         # save_ema_state always writes warmup, so a manifest without it is malformed
         '{"alpha": 0.5, "step": 0, "tensors": {}}'],
    )
    def test_malformed_manifest_exit_2(self, tmp_path, capsys, manifest):
        (tmp_path / "s").mkdir()
        (tmp_path / "s" / "manifest.json").write_text(manifest)
        rc = run_cli(
            ["ema", "--init", "--student", str(tmp_path / "s"), "--out", str(tmp_path / "o")]
        )
        assert rc == 2
        assert_one_line_error(capsys)

    def test_update_without_state_fails(self, tmp_path, capsys, monkeypatch):
        # the parser asks for one of --state and --init, as camera's pair
        forbid(monkeypatch, "ema", "ensemble.load_ema_state")
        rc = run_cli(["ema", "--student", str(tmp_path), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert_one_line_error(capsys, "usage error: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--state", "S", "--alpha", "0.5"],
            ["--state", "S", "--warmup"],
            ["--state", "S", "--alpha", "0.9", "--warmup"],
            ["--init", "--state", "does-not-exist"],
            ["--init", "--state", "S", "--alpha", "0.5"],
        ],
    )
    def test_flags_an_update_would_ignore_exit_2_before_reading(self, tmp_path, capsys, monkeypatch, flags):
        # an update keeps its state's alpha and warm-up (exit 2); --init reads
        # no state, and the parser takes --state with it as a usage error
        forbid(monkeypatch, "ema", "ensemble.load_ema_state")
        argv = ["ema", *flags, "--student", str(tmp_path / "T"), "--out", str(tmp_path / "o")]
        usage = "--init" in flags
        assert run_cli(argv) == (1 if usage else 2)
        assert_one_line_error(capsys, "usage error: " if usage else "error: ")
        assert not (tmp_path / "o").exists()

    def test_init_alpha_defaults_to_ema_state(self, tmp_path):
        save_ema_state(EmaState({"w": np.ones((1, 2))}, alpha=0.5), tmp_path / "s")
        assert run_cli(["ema", "--init", "--student", str(tmp_path / "s"), "--out", str(tmp_path / "o")]) == 0
        state = load_ema_state(tmp_path / "o")
        assert (state.alpha, state.warmup) == (EmaState.alpha, EmaState.warmup)

    @pytest.mark.parametrize(
        "manifest",
        [
            '{"alpha": 0.5, "alpha": 0.9, "step": 0, "tensors": {W}}',
            '{"alpha": 0.5, "step": 0, "step": 1, "tensors": {W}}',
            '{"alpha": 0.5, "step": 0, "tensors": {W, W}}',
        ],
        ids=["alpha", "step", "tensor"],
    )
    def test_key_written_twice_exit_2(self, tmp_path, capsys, manifest):
        # json.load alone would keep the last of the two
        save_ema_state(EmaState({"w": np.ones((1, 2))}, alpha=0.5), tmp_path / "s")
        entry = '"w": {"file": "w.remb", "shape": [1, 2]}'
        (tmp_path / "s" / "manifest.json").write_text(manifest.replace("W", entry))
        rc = run_cli(["ema", "--init", "--student", str(tmp_path / "s"), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "written twice" in err

    @pytest.mark.parametrize("kept", [None, 0.0, 0.5], ids=["untouched", "no_bytes", "half_the_bytes"])
    @pytest.mark.parametrize("k", range(5), ids=["a", "b", "c", "manifest", "none"])
    def test_update_in_place_cut_at_any_write_never_loads(self, tmp_path, capsys, monkeypatch, k, kept):
        # ENOSPC at the k-th of the four writes (three tensors, then the
        # manifest): the file is left as it was, or keeps that share of its bytes
        names = ("a", "b", "c")
        save_ema_state(EmaState({n: np.zeros(2) for n in names}, alpha=0.5), tmp_path / "S")
        save_ema_state(EmaState({n: np.ones(2) for n in names}), tmp_path / "T")
        writes, write_file = [], gallery._write_file

        def full_disk(path, data):
            writes.append(os.path.basename(path))
            if isinstance(data, list):  # a container's header and payload arrays
                data = b"".join(data)
            if len(writes) == k + 1:
                if kept is not None:
                    write_file(path, data[: int(len(data) * kept)])
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)
            write_file(path, data)

        monkeypatch.setattr(gallery, "_write_file", full_disk)
        state, student = str(tmp_path / "S"), str(tmp_path / "T")
        code = run_cli(["ema", "--state", state, "--student", student, "--out", state])
        if k == 4:
            assert code == 0 and writes == ["a.remb", "b.remb", "c.remb", "manifest.json"]
            assert load_ema_state(state).step == 1
            return
        assert code == 2
        assert_one_line_error(capsys)
        with pytest.raises((ReidError, OSError)):
            load_ema_state(state)
        assert run_cli(["ema", "--state", state, "--student", student, "--out", str(tmp_path / "o")]) == 2

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

    @pytest.mark.parametrize(
        "params",
        [
            "[1, 2",
            '{"0": {"bias": [0.0]}}',
            "[1, 2]",
            '{"1": {"matrix": [[0.0]], "bias": [0.0]}, "01": {"matrix": [[0.0]], "bias": [0.0]}}',
            '{"+2": {"matrix": [[0.0]], "bias": [0.0]}}',
            # Python's json reads NaN and +-Infinity
            '{"0": {"matrix": [[NaN]], "bias": [0]}, "1": {"matrix": [[0]], "bias": [0]}}',
            '{"0": {"matrix": [[0]], "bias": [0]}, "1": {"matrix": [[0]], "bias": [Infinity]}}',
            '{"0": {"matrix": [[0]], "bias": [-Infinity]}, "1": {"matrix": [[0]], "bias": [0]}}',
        ],
    )
    def test_malformed_residual_params_exit_2(self, tmp_path, monkeypatch, capsys, params):
        # rejected before camera_offsets runs: fail_if_called raises past run_cli
        forbid(monkeypatch, "camera", "camera.camera_offsets")
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
        doc = {str(c): {"matrix": params.matrices[c].tolist(), "bias": params.biases[c].tolist()} for c in (0, 1)}
        with open(tmp_path / "res.json", "w") as fh:
            json.dump(doc, fh)
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
        assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_normalize_and_residual_together_usage_error(self, tmp_path, monkeypatch, capsys):
        forbid(monkeypatch, "camera", "gallery.load_index")
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


# The calls that each command's flag checks must come before. A guard test
# makes some of them fail (forbid), and test_guarded_calls_are_made runs each
# command with good flags and checks that it makes every one, so a guard
# cannot stand on a call that its command no longer makes.
GUARDED_CALLS = {
    "dist": ["distance.global_distance_blocks", "distance.local_distance_matrix"],
    "eval": ["distance.global_distance_blocks", "distance.local_distance_matrix"],
    "embed": ["gallery.load_index", "imaging.decode_image"],
    "mine": ["gallery.load_index", "gallery.load_embeddings"],
    "tsne": ["gallery.load_index", "gallery.load_embeddings"],
    "camera": ["gallery.load_index", "camera.camera_offsets"],
    "ema": ["ensemble.load_ema_state"],
}


def forbid(monkeypatch, command, *names):
    """Make each of names, calls in GUARDED_CALLS[command], fail if called."""
    for name in names:
        assert name in GUARDED_CALLS[command], f"{name} is not a guarded call of {command}"
        module, attr = name.split(".")
        monkeypatch.setattr(globals()[module], attr, fail_if_called)


def write_train_and_images(tmp_path):
    """A train split of 12 rows (train.csv, train.remb) and two images
    (two.csv, x0.ppm, x1.ppm); returns the split's --index and --emb flags."""
    rng = np.random.default_rng(0)
    gallery.save_embeddings(gallery.EmbeddingSet(rng.standard_normal((12, 3)).astype(np.float32)),
                            tmp_path / "train.remb")
    write_index(tmp_path / "train.csv", 12, role="train")
    write_index(tmp_path / "two.csv", 2)
    for i in range(2):
        write_ppm(tmp_path / f"x{i}.ppm", np.zeros((16, 8, 3)))
    return ["--index", str(tmp_path / "train.csv"), "--emb", str(tmp_path / "train.remb")]


@pytest.mark.parametrize("command", sorted(GUARDED_CALLS))
def test_guarded_calls_are_made(tmp_path, monkeypatch, command):
    train = write_train_and_images(tmp_path)
    save_ema_state(EmaState({"w": np.ones((1, 2))}), tmp_path / "student")
    argv = {
        **{c: [*a, "--local-mode", "dp_aligned"] for c, a in write_retrieval_inputs(tmp_path).items()},
        "embed": ["embed", "--index", str(tmp_path / "two.csv"), "--images-root", str(tmp_path),
                  "--out", str(tmp_path / "two.remb")],
        "mine": ["mine", *train, "--p", "2", "--k", "2"],
        "tsne": ["tsne", *train, "--role", "train", "--perplexity", "4", "--iterations", "5"],
        "camera": ["camera", *train],
        "ema": ["ema", "--init", "--student", str(tmp_path / "student"), "--out", str(tmp_path / "state")],
    }[command]
    calls = dict.fromkeys(GUARDED_CALLS[command], 0)

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    for name in calls:
        module, attr = name.split(".")
        monkeypatch.setattr(globals()[module], attr, counted(name, getattr(globals()[module], attr)))
    assert run_cli(argv) == 0
    assert all(calls.values()), calls


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
    forbid(monkeypatch, "embed", "gallery.load_index", "imaging.decode_image")
    assert run_cli(["embed", "--index", "meta.csv", "--bins", bins, "--out", "e.remb"]) == 2
    assert capsys.readouterr().err == f"error: bins per channel must be in [2, 256], got {bins}\n"


@pytest.mark.parametrize("lam", ["-1", "nan", "inf"])
@pytest.mark.parametrize("local_mode", ["dp_aligned", "one_to_one", "none"])
@pytest.mark.parametrize("command", ["dist", "eval"])
def test_bad_lambda_exit_2_before_any_distance(tmp_path, monkeypatch, capsys, command, local_mode, lam):
    argv = write_retrieval_inputs(tmp_path)[command]
    forbid(monkeypatch, command, "distance.global_distance_blocks", "distance.local_distance_matrix")
    assert run_cli([*argv, "--local-mode", local_mode, "--lam", lam]) == 2
    assert capsys.readouterr().err == "error: lambda must be finite and >= 0\n"


def test_eval_bad_max_rank_exit_2_before_any_distance(tmp_path, monkeypatch, capsys):
    argv = write_retrieval_inputs(tmp_path)["eval"]
    forbid(monkeypatch, "eval", "distance.global_distance_blocks")
    assert run_cli([*argv, "--max-rank", "0"]) == 2
    assert capsys.readouterr().err == "error: max_rank must be >= 1\n"


@pytest.mark.parametrize("max_rank", [str(10**15), str(2**63), "5"])
def test_eval_max_rank_clamped_to_the_gallery_size(tmp_path, max_rank):
    # 10^15 used to end in MemoryError and 2^63 in OverflowError, from the
    # CMC's bincount after the whole distance pass
    argv = write_retrieval_inputs(tmp_path)["eval"]
    assert run_cli([*argv, "--max-rank", max_rank, "--out", str(tmp_path / "big.json")]) == 0
    assert run_cli([*argv, "--max-rank", "4", "--out", str(tmp_path / "four.json")]) == 0
    doc = json.loads((tmp_path / "big.json").read_text())
    assert doc["protocol"]["max_rank"] == 4 and len(doc["cmc"]) == 4
    assert (tmp_path / "big.json").read_bytes() == (tmp_path / "four.json").read_bytes()
    assert run_cli([*argv, "--max-rank", "3", "--out", str(tmp_path / "three.json")]) == 0
    doc = json.loads((tmp_path / "three.json").read_text())
    assert doc["protocol"]["max_rank"] == 3 and len(doc["cmc"]) == 3


@pytest.mark.parametrize("rows", [(5, 4), (4, 5)], ids=["query_index_longer", "gallery_index_longer"])
def test_eval_row_mismatch_exit_2_before_any_distance(tmp_path, monkeypatch, capsys, rows):
    argv = write_retrieval_inputs(tmp_path)["eval"]
    write_index(tmp_path / "q5.csv", 5)
    argv[argv.index("--queries" if rows[0] == 5 else "--gallery") + 1] = str(tmp_path / "q5.csv")
    forbid(monkeypatch, "eval", "distance.global_distance_blocks")
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
    forbid(monkeypatch, argv[0], "gallery.load_index", "gallery.load_embeddings")
    assert run_cli([*argv, "--index", "meta.csv", "--emb", "e.remb"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("flags", [["--normalize"], ["--residual", "res.json"]], ids=lambda f: f[0])
def test_camera_without_out_emb_exit_2_before_offsets(tmp_path, monkeypatch, capsys, flags):
    monkeypatch.chdir(tmp_path)
    gallery.save_embeddings(gallery.EmbeddingSet(np.zeros((4, 2), np.float32)), tmp_path / "e.remb")
    write_index(tmp_path / "meta.csv", 4)
    (tmp_path / "res.json").write_text("{}")
    forbid(monkeypatch, "camera", "camera.camera_offsets")
    assert run_cli(["camera", "--index", "meta.csv", "--emb", "e.remb", *flags]) == 2
    assert_one_line_error(capsys)


def test_camera_out_emb_without_transform_exit_2_before_offsets(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    gallery.save_embeddings(gallery.EmbeddingSet(np.zeros((4, 2), np.float32)), tmp_path / "e.remb")
    write_index(tmp_path / "meta.csv", 4)
    forbid(monkeypatch, "camera", "camera.camera_offsets")
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
    assert not out.exists()


def temporary_files(directory):
    return [p.name for p in directory.iterdir() if ".tmp-" in p.name]


def query_blocks_of(monkeypatch, rows, ng):
    # the block budget counts result cells: rows query rows of ng gallery items
    monkeypatch.setattr(distance, "_QUERY_BLOCK_CELLS", rows * ng)


@pytest.mark.parametrize("existing", [False, True], ids=["absent", "existing"])
def test_dist_overflow_in_the_last_block_names_the_whole_matrix_cell(tmp_path, capsys, monkeypatch, existing):
    # blocks of 3 query rows: two blocks are written before the last one
    # (rows 6 and 7), whose pair (7, 2) is 6e38 apart, beyond float32
    q = np.arange(8, dtype=np.float32)[:, None]
    q[7] = 3e38
    g = np.array([[0.0], [1.0], [-3e38]], np.float32)
    for side, x in (("q", q), ("g", g)):
        gallery.save_embeddings(gallery.EmbeddingSet(x), tmp_path / f"{side}.remb")
    out = tmp_path / "d.rdmx"
    if existing:
        out.write_bytes(b"previous bytes")
    query_blocks_of(monkeypatch, 3, len(g))
    argv = ["dist", "--emb-q", str(tmp_path / "q.remb"), "--emb-g", str(tmp_path / "g.remb"),
            "--out", str(out)]
    assert run_cli(argv) == 2
    assert capsys.readouterr().err == "error: non-finite value at (7, 2)\n"
    assert out.read_bytes() == b"previous bytes" if existing else not out.exists()
    assert temporary_files(tmp_path) == []


class CutFile(io.FileIO):
    """A file whose writes stop with ENOSPC once room bytes are written."""

    def __init__(self, path, mode, room):
        super().__init__(path, mode)
        self.room = room

    def write(self, b):
        b = memoryview(b).cast("B")
        if len(b) > self.room:
            super().write(b[: self.room])
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.room -= len(b)
        return super().write(b)


@pytest.mark.parametrize("existing", [False, True], ids=["absent", "existing"])
@pytest.mark.parametrize(
    "command",
    ["dist", "eval", "embed --out", "camera --out-emb", "camera --out", "mine --out", "tsne --out", "tsne --trace"],
    ids=lambda c: c.replace(" --", "-"),
)
def test_write_cut_at_k_bytes_leaves_the_previous_file_or_none(tmp_path, capsys, monkeypatch, command, existing):
    # each command writes one file, the one cut; what else it reports goes to stdout
    write_pair(tmp_path)
    query_blocks_of(monkeypatch, 1, 9)  # dist writes its header and six row blocks
    train = write_train_and_images(tmp_path)
    tsne_flags = ["tsne", *train, "--role", "train", "--perplexity", "4", "--iterations", "5"]
    out = tmp_path / "out"
    argv = {
        "dist": ["dist", *pair_flags(tmp_path), "--out", str(out)],
        "eval": ["eval", "--queries", str(tmp_path / "q.csv"), "--gallery", str(tmp_path / "g.csv"),
                 *pair_flags(tmp_path), "--out", str(out)],
        "embed --out": ["embed", "--index", str(tmp_path / "two.csv"), "--images-root", str(tmp_path),
                        "--out", str(out)],
        "camera --out-emb": ["camera", *train, "--normalize", "--out-emb", str(out)],
        "camera --out": ["camera", *train, "--out", str(out)],
        "mine --out": ["mine", *train, "--p", "2", "--k", "2", "--out", str(out)],
        "tsne --out": [*tsne_flags, "--out", str(out)],
        "tsne --trace": [*tsne_flags, "--trace", str(out)],
    }[command]
    assert run_cli(argv) == 0
    size = out.stat().st_size
    assert size > 24 + 4 * 9  # so that each k below cuts the write
    for k in (0, 10, 24, 24 + 4 * 9, size // 2, size - 1):
        if existing:
            out.write_bytes(b"previous bytes")
        else:
            out.unlink(missing_ok=True)
        with monkeypatch.context() as mp:
            mp.setattr(gallery, "open", lambda path, mode="r", *a, **kw:
                       CutFile(path, mode, k) if "w" in mode else open(path, mode, *a, **kw), raising=False)
            assert run_cli(argv) == 2
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
        assert out.read_bytes() == b"previous bytes" if existing else not out.exists()
        assert temporary_files(tmp_path) == []


@pytest.mark.parametrize("command", ["dist", "eval"])
def test_output_in_a_missing_directory_names_the_output(tmp_path, capsys, command):
    write_pair(tmp_path)
    out = tmp_path / "missing" / "out"
    index_flags = ["--queries", str(tmp_path / "q.csv"), "--gallery", str(tmp_path / "g.csv")]
    argv = [command, *(index_flags if command == "eval" else []), *pair_flags(tmp_path), "--out", str(out)]
    assert run_cli(argv) == 2
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"


def test_dist_writes_through_a_symlink_and_names_it(tmp_path, capsys):
    write_pair(tmp_path)
    (tmp_path / "real").mkdir()
    (tmp_path / "real" / "d.rdmx").write_bytes(b"previous bytes")
    link = tmp_path / "d.rdmx"
    link.symlink_to(tmp_path / "real" / "d.rdmx")
    assert run_cli(["dist", *pair_flags(tmp_path), "--out", str(link)]) == 0
    assert link.is_symlink()
    assert distance.decode_distance_matrix((tmp_path / "real" / "d.rdmx").read_bytes()).shape == (6, 9)
    assert temporary_files(tmp_path) == temporary_files(tmp_path / "real") == []
    # a link into a missing directory: the error names the path given
    dangling = tmp_path / "dangling.rdmx"
    dangling.symlink_to(tmp_path / "missing" / "d.rdmx")
    assert run_cli(["dist", *pair_flags(tmp_path), "--out", str(dangling)]) == 2
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{dangling}'\n"


def test_eval_writes_a_hard_linked_report_through_every_name(tmp_path):
    write_pair(tmp_path)
    out, other = tmp_path / "r.json", tmp_path / "also.json"
    out.write_bytes(b"previous bytes")
    os.link(out, other)
    argv = ["eval", "--queries", str(tmp_path / "q.csv"), "--gallery", str(tmp_path / "g.csv"),
            *pair_flags(tmp_path), "--out", str(out)]
    assert run_cli(argv) == 0
    assert json.loads(out.read_text())["num_valid_queries"] > 0
    assert other.read_bytes() == out.read_bytes()
    assert out.stat().st_nlink == other.stat().st_nlink == 2
    assert temporary_files(tmp_path) == []


@pytest.mark.parametrize("mode", [0o600, 0o755], ids=oct)
def test_eval_keeps_the_permission_bits_of_the_file_it_replaces(tmp_path, mode):
    write_pair(tmp_path)
    out = tmp_path / "r.json"
    out.write_bytes(b"previous bytes")
    out.chmod(mode)
    argv = ["eval", "--queries", str(tmp_path / "q.csv"), "--gallery", str(tmp_path / "g.csv"),
            *pair_flags(tmp_path), "--out", str(out)]
    assert run_cli(argv) == 0
    assert out.stat().st_mode & 0o777 == mode
    assert json.loads(out.read_text())["num_valid_queries"] > 0


def test_eval_on_an_empty_gallery_names_the_empty_evaluation(tmp_path, capsys):
    write_pair(tmp_path)
    write_index(tmp_path / "none.csv", 0)
    gallery.save_embeddings(gallery.EmbeddingSet(np.zeros((0, 5), np.float32)), tmp_path / "none.remb")
    argv = ["eval", "--queries", str(tmp_path / "q.csv"), "--gallery", str(tmp_path / "none.csv"),
            "--emb-q", str(tmp_path / "q.remb"), "--emb-g", str(tmp_path / "none.remb")]
    assert run_cli(argv) == 2
    assert capsys.readouterr().err == "error: empty evaluation: every query has zero valid positives\n"
    assert run_cli([*argv, "--max-rank", "0"]) == 2
    assert capsys.readouterr().err == "error: max_rank must be >= 1\n"


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
    forbid(monkeypatch, "embed", "gallery.load_index")
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


@pytest.mark.parametrize("stripes", ["4294967296", "8589934592"])
def test_embed_stripes_beyond_u32_header_exit_2(tmp_path, capsys, stripes):
    write_index(tmp_path / "empty.csv", 0)
    out = tmp_path / "e.remb"
    assert run_cli(["embed", "--index", str(tmp_path / "empty.csv"), "--stripes", stripes,
                    "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: S = {stripes} does not fit the container header's u32 field\n"


@pytest.mark.parametrize("existing", [None, b"earlier output"], ids=["new", "existing"])
@pytest.mark.parametrize("command", ["embed", "dist"])
def test_rejected_container_leaves_no_file(tmp_path, capsys, command, existing):
    # embed: S past the u32 header field; dist: a distance of 6e38 is finite
    # in float64 but not in the float32 .rdmx
    write_index(tmp_path / "empty.csv", 0)
    emb = gallery.EmbeddingSet(np.array([[3e38], [-3e38]], np.float32))
    gallery.save_embeddings(emb, tmp_path / "e.remb")
    argv = {
        "embed": ["embed", "--index", str(tmp_path / "empty.csv"), "--stripes", "8589934592"],
        "dist": ["dist", "--emb-q", str(tmp_path / "e.remb"), "--emb-g", str(tmp_path / "e.remb")],
    }[command]
    out = tmp_path / "out.bin"
    if existing is not None:
        out.write_bytes(existing)
    assert run_cli([*argv, "--out", str(out)]) == 2
    assert_one_line_error(capsys)
    if existing is None:
        assert not out.exists()
    else:
        assert out.read_bytes() == existing


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
def test_global_stage_peak_is_float64_gallery_and_one_block(tmp_path, monkeypatch, command):
    # Market-1501 in proportion (3,368 x 15,913 x 2,048, scaled down, with
    # nq/D = 1.6), in blocks of 256 query rows (four blocks): without a local
    # term the stage holds the float64 gallery and the float32 queries, and
    # then the larger of the float32 gallery buffer (alive only while it is
    # cast) and one result block, plus its float32 copy in dist. The float64
    # gallery and a whole (nq, ng) result alone exceed this bound.
    nq, ng, dim, rows = 984, 4_500, 600, 256
    rng = np.random.default_rng(0)
    for side, n in (("q", nq), ("g", ng)):
        emb = gallery.EmbeddingSet(rng.standard_normal((n, dim)).astype(np.float32))
        gallery.save_embeddings(emb, tmp_path / f"{side}.remb")
        write_index(tmp_path / f"{side}.csv", n)
    query_blocks_of(monkeypatch, rows, ng)
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
    block = (8 + 4 * (command == "dist")) * rows * ng
    bound = 1.1 * (8 * ng * dim + 4 * nq * dim + max(4 * ng * dim, block))
    assert peak < bound < 1.1 * 8 * (nq * ng + nq * dim + ng * dim)  # the whole-matrix bound
    assert 8 * (nq * ng + ng * dim) > bound


def write_pair(tmp_path):
    """6 queries and 9 gallery items with global and local features, written
    as q/g .remb and .csv; returns their embedding sets."""
    rng = np.random.default_rng(3)
    sides = {}
    for side, n, role in (("q", 6, "query"), ("g", 9, "gallery")):
        sides[side] = gallery.EmbeddingSet(
            rng.standard_normal((n, 5)).astype(np.float32),
            rng.standard_normal((n, 3, 4)).astype(np.float32),
        )
        gallery.save_embeddings(sides[side], tmp_path / f"{side}.remb")
        write_index(tmp_path / f"{side}.csv", n, role=role)
    return sides["q"], sides["g"]


def pair_flags(tmp_path, metric="euclidean", local_mode="none"):
    return ["--emb-q", str(tmp_path / "q.remb"), "--emb-g", str(tmp_path / "g.remb"),
            "--metric", metric, "--local-mode", local_mode, "--lam", "0.37"]


@pytest.mark.parametrize("local_mode", ["none", "dp_aligned", "one_to_one"])
@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
def test_dist_and_eval_write_the_library_composition(tmp_path, metric, local_mode):
    q, g = write_pair(tmp_path)
    expected = distance.distance_matrix(q.global_, g.global_, metric)
    if local_mode != "none":
        dl = distance.local_distance_matrix(q, g, local_mode)
        [expected] = distance.combine_distances(expected, dl, 0.37)
    flags = pair_flags(tmp_path, metric, local_mode)
    assert run_cli(["dist", *flags, "--out", str(tmp_path / "d.rdmx")]) == 0
    assert (tmp_path / "d.rdmx").read_bytes() == b"".join(distance.encode_distance_matrix(expected))
    assert run_cli(["eval", "--queries", str(tmp_path / "q.csv"), "--gallery", str(tmp_path / "g.csv"),
                    *flags, "--out", str(tmp_path / "r.json")]) == 0
    queries, gal = gallery.load_index(tmp_path / "q.csv"), gallery.load_index(tmp_path / "g.csv")
    # the default --max-rank 20 is clamped to the 9-item gallery
    doc = metrics.evaluate(queries, gal, expected, metrics.EvalProtocol(max_rank=len(gal))).to_dict()
    doc["config"] = {"metric": metric, "local_mode": local_mode, "lambda": 0.37}
    assert (tmp_path / "r.json").read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("local_mode", ["none", "dp_aligned", "one_to_one"])
@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
def test_dist_and_eval_bytes_do_not_depend_on_the_query_block(tmp_path, monkeypatch, metric, local_mode):
    write_pair(tmp_path)
    eval_flags = ["--queries", str(tmp_path / "q.csv"), "--gallery", str(tmp_path / "g.csv")]
    outputs = []
    for rows in (1, 3, 6):  # six blocks, two, and all six query rows in one
        query_blocks_of(monkeypatch, rows, 9)
        d, r = tmp_path / f"d{rows}.rdmx", tmp_path / f"r{rows}.json"
        assert run_cli(["dist", *pair_flags(tmp_path, metric, local_mode), "--out", str(d)]) == 0
        assert run_cli(["eval", *eval_flags, *pair_flags(tmp_path, metric, local_mode), "--out", str(r)]) == 0
        outputs.append((d.read_bytes(), r.read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("command", ["dist", "eval"])
def test_local_term_checked_once_whole_not_again_per_block(tmp_path, monkeypatch, command):
    write_pair(tmp_path)
    query_blocks_of(monkeypatch, 1, 9)
    checked, post_init = [], distance.DistanceMatrix.__post_init__
    monkeypatch.setattr(distance.DistanceMatrix, "__post_init__",
                        lambda self: checked.append(np.shape(self.values)) or post_init(self))
    index_flags = ["--queries", str(tmp_path / "q.csv"), "--gallery", str(tmp_path / "g.csv")]
    argv = [command, *(index_flags if command == "eval" else []),
            *pair_flags(tmp_path, local_mode="dp_aligned"), "--out", str(tmp_path / "out")]
    assert run_cli(argv) == 0
    # the whole local term, then each one-row global block and its sum
    assert checked == [(6, 9)] + [(1, 9)] * 12


@pytest.mark.parametrize("command", ["dist", "eval"])
@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
def test_gallery_terms_built_once_and_every_block_checked(tmp_path, monkeypatch, metric, command):
    write_pair(tmp_path)
    query_blocks_of(monkeypatch, 1, 9)
    normed, checked = [], []
    sq_norms, post_init = distance._sq_norms, distance.DistanceMatrix.__post_init__
    monkeypatch.setattr(distance, "_sq_norms", lambda x: normed.append(len(x)) or sq_norms(x))
    monkeypatch.setattr(distance.DistanceMatrix, "__post_init__",
                        lambda self: checked.append(np.shape(self.values)) or post_init(self))
    index_flags = ["--queries", str(tmp_path / "q.csv"), "--gallery", str(tmp_path / "g.csv")]
    argv = [command, *(index_flags if command == "eval" else []), *pair_flags(tmp_path, metric),
            "--out", str(tmp_path / "out")]
    assert run_cli(argv) == 0
    # the gallery's norms once per stage, each one-row block's own norm once
    assert normed == [9] + [1] * 6
    assert checked == [(1, 9)] * 6


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


def write_camera_inputs(tmp_path, n, dim, cameras):
    rng = np.random.default_rng(0)
    gallery.save_embeddings(
        gallery.EmbeddingSet(rng.standard_normal((n, dim)).astype(np.float32)), tmp_path / "e.remb"
    )
    with open(tmp_path / "meta.csv", "w") as fh:
        fh.write("index,person_id,camera_id,role,path\n")
        for i in range(n):
            fh.write(f"{i},{i // 8},{i % cameras},train,x{i}.ppm\n")
    return ["camera", "--index", str(tmp_path / "meta.csv"), "--emb", str(tmp_path / "e.remb"),
            "--out-emb", str(tmp_path / "n.remb"), "--out", str(tmp_path / "c.json")]


def traced_cli_peak(argv):
    tracemalloc.start()
    try:
        rc = run_cli(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    return peak


@pytest.mark.parametrize("cameras", [6, 2])
def test_camera_normalize_peak_is_under_four_feature_copies(tmp_path, cameras):
    # in float32 feature sizes: the file buffer (1), which the transform
    # overwrites a block of rows at a time and the writer writes as it is,
    # and camera_offsets' gather of one camera's float32 rows (0.5 with 2
    # cameras), 1.4 and 1.6 in all. A float64 result cast into a float32
    # copy, which the writer copied again, was 3.1
    n, dim = 6_000, 512
    argv = write_camera_inputs(tmp_path, n, dim, cameras)
    assert traced_cli_peak([*argv, "--normalize"]) < 1.8 * 4 * n * dim


@pytest.mark.parametrize("cameras, bound", [(6, 2.4), (2, 4.0)])
def test_camera_residual_peak_is_two_copies_below_the_float64_result(tmp_path, monkeypatch, cameras, bound):
    # the file buffer (1), which the transform overwrites, and one camera's
    # gather with its float64 temporaries: 1.9 with 6 cameras, 3.6 with 2.
    # A float64 result cast into a float32 copy was 3.9 and 5.6. The
    # parameters are built before tracing: parsing their JSON makes more
    # Python floats than there are feature values
    n, dim = 6_000, 512
    argv = write_camera_inputs(tmp_path, n, dim, cameras)
    rng = np.random.default_rng(1)
    params = camera.CameraResidualParams(
        {c: 0.1 * rng.standard_normal((dim, dim)) for c in range(cameras)},
        {c: rng.standard_normal(dim) for c in range(cameras)},
    )
    monkeypatch.setattr(camera, "load_residual_params", lambda path: params)
    assert traced_cli_peak([*argv, "--residual", "params.json"]) < bound * 4 * n * dim


def test_camera_residual_float32_overflow_exit_2_with_one_line(tmp_path, capsys):
    # 2 * 3e38 is finite in float64 but not in the float32 .remb: the
    # writer's check names the cell, with no numpy warning, and writes nothing
    emb = gallery.EmbeddingSet(np.array([[1.0, 3e38], [2.0, 1.0]], np.float32))
    gallery.save_embeddings(emb, tmp_path / "e.remb")
    write_index(tmp_path / "meta.csv", 2, role="train")
    (tmp_path / "p.json").write_text(json.dumps({
        "0": {"matrix": [[1.0, 0.0], [0.0, 1.0]], "bias": [0.0, 0.0]},
        "1": {"matrix": [[0.0, 0.0], [0.0, 0.0]], "bias": [0.0, 0.0]},
    }))
    out = tmp_path / "n.remb"
    argv = ["camera", "--index", str(tmp_path / "meta.csv"), "--emb", str(tmp_path / "e.remb"),
            "--residual", str(tmp_path / "p.json"), "--out-emb", str(out), "--out", str(tmp_path / "c.json")]
    assert run_cli(argv) == 2
    assert capsys.readouterr().err == "error: non-finite value at (0, 1)\n"
    assert not out.exists()


_IMPORTED_MODULES = """
import sys
from reidkit.cli import run_cli
assert run_cli(sys.argv[1:]) == 0
print(" ".join(sorted(m for m in sys.modules if m.startswith("reidkit."))))
"""


@pytest.mark.parametrize(
    "command, called, absent",
    [("dist", "distance", ["camera", "ensemble", "featurize", "imaging", "metrics", "mining", "tsne"]),
     ("ema", "ensemble", ["camera", "featurize", "imaging", "metrics", "mining", "tsne"])],
)
def test_stage_imports_only_the_modules_it_calls(tmp_path, command, called, absent):
    # a fresh process: this one has imported every module already
    if command == "dist":
        argv = write_retrieval_inputs(tmp_path)["dist"]
    else:
        save_ema_state(EmaState({"w": np.ones((2, 2))}, alpha=0.5), tmp_path / "s")
        argv = ["ema", "--init", "--student", str(tmp_path / "s"), "--out", str(tmp_path / "o")]
    src = os.path.dirname(os.path.dirname(gallery.__file__))
    res = subprocess.run([sys.executable, "-c", _IMPORTED_MODULES, *argv], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert res.returncode == 0, res.stderr
    imported = set(res.stdout.split())
    assert f"reidkit.{called}" in imported
    assert imported.isdisjoint(f"reidkit.{m}" for m in absent)


_UNDER_1_GIB = """
import resource, sys
from reidkit.cli import run_cli
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
sys.exit(run_cli(sys.argv[1:]))
"""


def test_remb_larger_than_memory_exit_2_with_one_line(tmp_path):
    # a 4 TiB sparse file: truncate writes no data, and the loader's buffer
    # exceeds a 1 GiB address-space limit whatever the kernel's overcommit mode
    big = tmp_path / "big.remb"
    big.touch()
    os.truncate(big, 4 << 40)
    argv = ["dist", "--emb-q", str(big), "--emb-g", str(big), "--out", str(tmp_path / "d.rdmx")]
    src = os.path.dirname(os.path.dirname(gallery.__file__))
    res = subprocess.run([sys.executable, "-c", _UNDER_1_GIB, *argv], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"), timeout=60)
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1, res.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.remb"]


def test_memory_error_without_a_message_is_named(tmp_path, monkeypatch, capsys):
    # Python's own allocations (bytes, bytearray) raise a bare MemoryError()
    def no_memory(*args):
        raise MemoryError()

    monkeypatch.setattr(gallery, "load_embeddings", no_memory)
    assert run_cli(write_retrieval_inputs(tmp_path)["dist"]) == 2
    assert capsys.readouterr().err == "error: MemoryError\n"


SUBPARSERS = next(a.choices for a in cli.build_parser()._actions if a.dest == "command")
SUBCOMMANDS = sorted(SUBPARSERS)


@pytest.mark.parametrize("argv", [["--help"]] + [[c, "--help"] for c in SUBCOMMANDS], ids=" ".join)
def test_help_returns_0(capsys, argv):
    assert run_cli(argv) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: reidkit") and err == ""


@pytest.mark.parametrize(
    "argv, code", [(["--help"], 0), (["ema", "--init", "--state", "S", "--student", "T", "--out", "O"], 1)]
)
def test_main_exits_with_the_code_of_run_cli(monkeypatch, capsys, argv, code):
    monkeypatch.setattr(sys, "argv", ["reidkit", *argv])
    with pytest.raises(SystemExit) as exit_:
        cli.main()
    assert exit_.value.code == code


CONFIG_TYPES = {"embed": featurize.FeaturizerConfig, "eval": metrics.EvalProtocol,
                "mine": mining.MiningConfig, "ema": ensemble.EmaState, "tsne": tsne.TsneParams}


@pytest.mark.parametrize("command", sorted(CONFIG_TYPES))
def test_config_flags_leave_their_defaults_to_the_config_type(command):
    fields = {f.name for f in dataclasses.fields(CONFIG_TYPES[command])}
    flags = [a for a in SUBPARSERS[command]._actions if a.dest in fields]
    assert flags
    assert {a.dest: a.default for a in flags if a.default is not None} == {}


# (flags given, the config fields the output then states)
GIVEN_FLAGS = {
    "embed": (["--stripes", "4", "--bins", "4"], {"stripes": 4, "bins": 4}),
    "eval": (["--no-cross-camera-filter", "--max-rank", "5"], {"cross_camera_filter": False, "max_rank": 5}),
    "mine": (["--p", "3", "--k", "2", "--margin", "0.5", "--seed", "7"],
             {"p": 3, "k": 2, "margin": 0.5, "seed": 7}),
    "ema": (["--alpha", "0.5", "--warmup"], {"alpha": 0.5, "warmup": True}),
    "tsne": (["--iterations", "7"], {"iterations": 7}),
}


def stated_config(command, out) -> dict:
    """The config fields that command's output at out states: the embedding
    header's S and D = 3 x bins, the KL trace's length, or a JSON field."""
    if command == "embed":
        _, _, _, d, s, _ = struct.unpack_from("<4s5I", out.read_bytes())
        return {"stripes": s, "bins": d // 3}
    if command == "tsne":
        return {"iterations": len(out.with_suffix(".kl").read_text().splitlines())}
    if command == "ema":
        doc = json.loads((out / "manifest.json").read_text())
        return {"alpha": doc["alpha"], "warmup": doc["warmup"]}
    doc = json.loads(out.read_text())
    return doc["protocol"] if command == "eval" else doc["config"]


@pytest.mark.parametrize("given", [True, False], ids=["given", "left_out"])
@pytest.mark.parametrize("command", sorted(GIVEN_FLAGS))
def test_each_config_flag_reaches_its_config(tiny_inputs, tmp_path, command, given):
    flags, stated = GIVEN_FLAGS[command]
    out = tmp_path / "out"
    trace = ["--trace", str(out.with_suffix(".kl"))] if command == "tsne" else []
    assert run_cli(config_stage(command, tiny_inputs, out) + trace + (flags if given else [])) == 0
    defaults = {f.name: f.default for f in dataclasses.fields(CONFIG_TYPES[command])}
    assert stated_config(command, out) == (stated if given else {k: defaults[k] for k in stated})


def readme_cli_lines():
    """Every `reidkit ...` line of README.md's sh blocks, `\\` continuations joined."""
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = "".join(re.findall(r"```sh\n(.*?)```", readme, re.S))
    return [line for line in re.sub(r" *\\\n\s*", " ", blocks).splitlines() if line.startswith("reidkit ")]


def test_readme_shows_cli_examples():
    assert len(readme_cli_lines()) >= 8  # one per subcommand at least


class _ExactParser(cli._Parser):
    """The CLI's parser without argparse's prefix matching, so that a README
    flag must name an option in full: `--lam` would still parse as `--lambda`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **{**kwargs, "allow_abbrev": False})


@pytest.mark.parametrize("line", readme_cli_lines())
def test_readme_cli_example_parses(monkeypatch, line):
    # a flag renamed or removed in the parser but still shown in the docs fails here
    monkeypatch.setattr(cli, "_Parser", _ExactParser)
    args = cli.build_parser().parse_args(shlex.split(line)[1:])
    assert callable(args.func)
