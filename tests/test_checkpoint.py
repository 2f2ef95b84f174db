"""Checkpoint format: JSON header plus raw little-endian blobs."""

import json
import os
import struct

import numpy as np
import pytest

from aggnet.checkpoint import load_checkpoint, read_header, save_checkpoint
from aggnet.experiment import ExperimentConfig, build_model


def tiny_config(aggregation="threeway-hybrid"):
    return ExperimentConfig(
        arch="mlp", aggregation=aggregation, proj_dim=6, hidden_dim=5, classes=3
    )


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        cfg = tiny_config()
        model = build_model(cfg)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, extra={"config": cfg.to_dict()})

        other = build_model(tiny_config())
        for p in other.parameters():
            p.data = p.data + 1.0  # desync
        load_checkpoint(other, path)
        for a, b in zip(model.parameters(), other.parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_header_is_plain_json(self, tmp_path):
        model = build_model(tiny_config("baseline"))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<Q", raw[:8])
        header = json.loads(raw[8 : 8 + hlen].decode("utf-8"))
        assert header["format"] == "aggnet-checkpoint"
        names = [p["name"] for layer in header["layers"] for p in layer["params"]]
        assert names == [p.name for p in model.parameters()]

    def test_blobs_in_declaration_order_little_endian(self, tmp_path):
        model = build_model(tiny_config("fmean-hybrid"))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<Q", raw[:8])
        offset = 8 + hlen
        for p in model.parameters():
            count = p.data.size
            blob = np.frombuffer(raw[offset : offset + 8 * count], dtype="<f8")
            np.testing.assert_array_equal(blob.reshape(p.data.shape), p.data)
            offset += 8 * count
        assert offset == len(raw)

    def test_novel_parameter_names_present(self, tmp_path):
        """Checkpoints expose p, log_sigma and alpha_raw by those names."""
        model = build_model(tiny_config("threeway-hybrid"))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        names = {
            p["name"]
            for layer in read_header(path)["layers"]
            for p in layer["params"]
        }
        assert {"p", "log_sigma", "alpha_raw"} <= names

    def test_layer_type_strings_are_not_matched(self, tmp_path):
        """The loader matches parameter names and shapes only, so a header
        whose layer ``type`` strings differ (such as one written when the
        aggregation layer had another class name) still loads."""
        model = build_model(tiny_config())
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<Q", raw[:8])
        header = json.loads(raw[8 : 8 + hlen].decode("utf-8"))
        assert "HybridLayer" in {layer["type"] for layer in header["layers"]}
        for layer in header["layers"]:
            layer["type"] = "FMeanLayer" if layer["type"] == "HybridLayer" else "Renamed"
        new_header = json.dumps(header).encode("utf-8")
        path.write_bytes(struct.pack("<Q", len(new_header)) + new_header + raw[8 + hlen :])

        other = build_model(tiny_config())
        for p in other.parameters():
            p.data = p.data + 1.0  # desync
        load_checkpoint(other, path)
        for a, b in zip(model.parameters(), other.parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_shape_mismatch_rejected(self, tmp_path):
        model = build_model(tiny_config())
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        wrong = build_model(
            ExperimentConfig(arch="mlp", aggregation="threeway-hybrid",
                             proj_dim=7, hidden_dim=5, classes=3)
        )
        with pytest.raises(ValueError):
            load_checkpoint(wrong, path)

    def test_layer_count_mismatch_rejected(self, tmp_path):
        model = build_model(tiny_config())
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        from aggnet.model import Model

        with pytest.raises(ValueError):
            load_checkpoint(Model(model.layers[:-1]), path)

    def test_config_echo_survives(self, tmp_path):
        cfg = tiny_config()
        model = build_model(cfg)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, extra={"config": cfg.to_dict()})
        assert read_header(path)["extra"]["config"]["aggregation"] == "threeway-hybrid"


def _split(path):
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<Q", raw[:8])
    return json.loads(raw[8 : 8 + hlen].decode("utf-8")), raw[8 + hlen :]


def _write(path, header, blob):
    raw = json.dumps(header).encode("utf-8")
    path.write_bytes(struct.pack("<Q", len(raw)) + raw + blob)


class TestCheckpointReader:
    """Fault injection: every damaged file is refused with a ValueError
    naming the file, by both the loader and ``read_header``."""

    @pytest.fixture
    def saved(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_model(cfg), path, extra={"config": cfg.to_dict()})
        return path

    def assert_rejected(self, path, reason):
        model = build_model(tiny_config())
        before = model.state()
        for read in (lambda: load_checkpoint(model, path), lambda: read_header(path)):
            with pytest.raises(ValueError, match=reason) as info:
                read()
            assert str(path) in str(info.value)
        for a, b in zip(before, model.state()):
            np.testing.assert_array_equal(a, b)

    def test_shorter_than_the_length_field(self, saved):
        saved.write_bytes(saved.read_bytes()[:5])
        self.assert_rejected(saved, "truncated")

    def test_cut_inside_the_blobs(self, saved):
        saved.write_bytes(saved.read_bytes()[:-12])
        self.assert_rejected(saved, "truncated")

    def test_cut_inside_the_header(self, saved):
        saved.write_bytes(saved.read_bytes()[:20])
        self.assert_rejected(saved, "malformed header")

    def test_oversized_header_length(self, saved):
        raw = saved.read_bytes()
        saved.write_bytes(struct.pack("<Q", 1 << 40) + raw[8:])
        self.assert_rejected(saved, "header length")

    def test_wrong_format(self, saved):
        header, blob = _split(saved)
        header["format"] = "something-else"
        _write(saved, header, blob)
        self.assert_rejected(saved, "format 'something-else'")

    def test_wrong_version(self, saved):
        header, blob = _split(saved)
        header["version"] = 99
        _write(saved, header, blob)
        self.assert_rejected(saved, "version 99")

    def test_big_endian_dtype(self, saved):
        """A '>f8' header over the same bytes would load byte-swapped
        values if it were accepted."""
        header, blob = _split(saved)
        for layer in header["layers"]:
            for pm in layer["params"]:
                pm["dtype"] = ">f8"
        _write(saved, header, blob)
        self.assert_rejected(saved, "dtype")

    def test_trailing_bytes(self, saved):
        saved.write_bytes(saved.read_bytes() + b"\0\0\0\0")
        self.assert_rejected(saved, "trailing data")

    def test_negative_shape(self, saved):
        header, blob = _split(saved)
        header["layers"][0]["params"][0]["shape"] = [-1, 6]
        _write(saved, header, blob)
        self.assert_rejected(saved, "malformed header")

    def test_header_not_an_object(self, saved):
        _write(saved, ["aggnet-checkpoint", 1], b"")
        self.assert_rejected(saved, "malformed header")

    def test_extra_not_an_object(self, saved):
        """``aggnet eval`` looks the config echo up in ``extra``."""
        header, blob = _split(saved)
        header["extra"] = ["config"]
        _write(saved, header, blob)
        self.assert_rejected(saved, "malformed header")


class TestNonFiniteRefused:
    """A NaN or infinite parameter value is refused before anything is
    assigned, naming the file, the layer and the parameter."""

    @pytest.fixture(params=[np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def damaged(self, request, tmp_path):
        cfg = ExperimentConfig(arch="mlp", aggregation="threeway-hybrid", proj_dim=6,
                               hidden_dim=5, classes=3, synthetic_train=30,
                               synthetic_val=10, synthetic_test=10)
        model = build_model(cfg)
        model.layers[2].log_sigma.data[1] = request.param
        path = tmp_path / "best.ckpt"
        save_checkpoint(model, path, extra={"config": cfg.to_dict()})
        return cfg, path

    def test_load_checkpoint_refuses(self, damaged):
        cfg, path = damaged
        model = build_model(cfg)
        before = model.state()
        with pytest.raises(ValueError, match="non-finite value in layer 2 "
                                             r"\(HybridLayer\) parameter log_sigma") as info:
            load_checkpoint(model, path)
        assert str(path) in str(info.value)
        for a, b in zip(before, model.state()):
            np.testing.assert_array_equal(a, b)

    def test_eval_exits_2(self, damaged, capsys):
        from aggnet.cli import main

        _, path = damaged
        assert main(["eval", "--checkpoint", str(path), "--noise-sigma", "0.15"]) == 2
        out, err = capsys.readouterr()
        lines = err.strip().splitlines()
        assert out == "" and len(lines) == 1
        assert str(path) in lines[0] and "log_sigma" in lines[0]


class TestNoPartialLoad:
    """A desynced model is left exactly as it was when a load fails."""

    def desynced(self):
        model = build_model(
            ExperimentConfig(arch="mlp", aggregation="threeway-hybrid",
                             proj_dim=6, hidden_dim=5, classes=4)
        )
        for p in model.parameters():
            p.data = p.data + 1.0
        return model, model.state()

    def test_load_checkpoint_assigns_nothing(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_model(tiny_config()), path)  # classes=3
        model, before = self.desynced()
        with pytest.raises(ValueError, match="shape mismatch for W") as info:
            load_checkpoint(model, path)
        assert str(path) in str(info.value)
        for a, b in zip(before, model.state()):
            np.testing.assert_array_equal(a, b)

    def test_load_state_assigns_nothing(self):
        state = build_model(tiny_config()).state()  # classes=3
        model, before = self.desynced()
        with pytest.raises(ValueError, match="shape mismatch for W"):
            model.load_state(state)
        with pytest.raises(ValueError, match="arrays"):
            model.load_state(state[:-1])
        for a, b in zip(before, model.state()):
            np.testing.assert_array_equal(a, b)

    def test_renamed_parameter_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_model(tiny_config()), path)
        header, blob = _split(path)
        header["layers"][2]["params"][2]["name"] = "q"
        _write(path, header, blob)
        model = build_model(tiny_config())
        before = model.state()
        with pytest.raises(ValueError, match="parameters per layer"):
            load_checkpoint(model, path)
        for a, b in zip(before, model.state()):
            np.testing.assert_array_equal(a, b)


class TestEvalReads:
    def test_eval_reads_the_blobs_once(self, tmp_path, monkeypatch):
        """``aggnet eval`` reads the header for the config echo and again to
        load, but the parameter blobs only once."""
        from aggnet import checkpoint
        from aggnet.cli import main

        cfg = ExperimentConfig(arch="mlp", aggregation="threeway-hybrid", proj_dim=6,
                               hidden_dim=5, classes=3, synthetic_train=30,
                               synthetic_val=10, synthetic_test=10)
        path = tmp_path / "best.ckpt"
        save_checkpoint(build_model(cfg), path, extra={"config": cfg.to_dict()})
        counts = []

        class Counted:
            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def __getattr__(self, name):
                return getattr(self.f, name)

            def read(self, n=-1):
                data = self.f.read(n)
                counts.append(len(data))
                return data

        monkeypatch.setattr(checkpoint, "open", lambda *a, **kw: Counted(open(*a, **kw)),
                            raising=False)
        assert main(["eval", "--checkpoint", str(path)]) == 0
        header_bytes = 8 + struct.unpack("<Q", path.read_bytes()[:8])[0]
        blob_bytes = path.stat().st_size - header_bytes
        assert sum(counts) <= 2 * header_bytes + blob_bytes


class TestAtomicWrite:
    def test_failed_replace_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_model(tiny_config()), path)
        old = path.read_bytes()

        def refuse(src, dst):
            assert os.path.getsize(src) > 0  # the temporary file was written
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            save_checkpoint(build_model(tiny_config("baseline")), path)
        assert path.read_bytes() == old
        assert sorted(tmp_path.iterdir()) == [path]
