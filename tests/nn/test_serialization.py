"""Checkpoint save/load tests."""

import os

import numpy as np
import pytest

from repro.nn.serialization import load_state, save_state


class TestStateIO:
    def test_save_load_round_trip(self, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        state = {"a": np.arange(3, dtype=np.float32), "b": np.ones((2, 2))}
        save_state(state, path)
        loaded = load_state(path)
        assert set(loaded) == {"a", "b"}
        assert np.array_equal(loaded["a"], state["a"])

    def test_save_creates_directories(self, tmp_path):
        path = str(tmp_path / "deep" / "nested" / "ckpt.npz")
        save_state({"x": np.zeros(1)}, path)
        assert os.path.exists(path)


class TestCheckpointErrors:
    def test_missing_file_raises_named_error(self, tmp_path):
        from repro.nn.serialization import CheckpointError

        path = str(tmp_path / "missing.npz")
        with pytest.raises(CheckpointError, match="missing.npz"):
            load_state(path)

    def test_truncated_archive_raises(self, tmp_path):
        from repro.nn.serialization import CheckpointError

        path = str(tmp_path / "ckpt.npz")
        save_state({"x": np.arange(200, dtype=np.float32)}, path)
        data = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(data[: len(data) // 2])
        with pytest.raises(CheckpointError, match="ckpt.npz"):
            load_state(path)

    def test_non_npz_junk_raises(self, tmp_path):
        from repro.nn.serialization import CheckpointError

        path = str(tmp_path / "junk.npz")
        with open(path, "wb") as handle:
            handle.write(b"definitely not a zip archive")
        with pytest.raises(CheckpointError, match="junk.npz"):
            load_state(path)


class TestAtomicWrites:
    def test_no_tmp_files_left_behind(self, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        save_state({"x": np.ones(4)}, path)
        assert sorted(os.listdir(tmp_path)) == ["ckpt.npz"]

    def test_overwrite_replaces_content(self, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        save_state({"x": np.zeros(4)}, path)
        save_state({"x": np.ones(4)}, path)
        assert np.array_equal(load_state(path)["x"], np.ones(4))

    def test_suffix_appended_like_np_savez(self, tmp_path):
        # np.savez appends .npz to suffix-less paths; save_state must match.
        path = str(tmp_path / "ckpt")
        save_state({"x": np.ones(2)}, path)
        assert os.path.exists(path + ".npz")
