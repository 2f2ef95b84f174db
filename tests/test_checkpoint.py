"""Checkpoint format: JSON header plus raw little-endian blobs."""

import json
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
