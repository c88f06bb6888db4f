"""ArtifactStore: atomic writes, checksummed loads, corruption self-healing."""

import os
import threading
import time

import numpy as np

from repro.orchestrator.artifacts import ArtifactStore, content_hash


class TestContentHash:
    def test_stable(self):
        assert content_hash({"a": 1, "b": [2, 3]}) == content_hash({"b": [2, 3], "a": 1})

    def test_varies(self):
        assert content_hash({"a": 1}) != content_hash({"a": 2})


class TestStateArtifacts:
    def test_round_trip(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        state = {"w": np.arange(6, dtype=np.float32).reshape(2, 3), "b": np.zeros(3)}
        store.put_state("model1", state)
        loaded = store.get_state("model1")
        assert set(loaded) == {"w", "b"}
        assert np.array_equal(loaded["w"], state["w"])

    def test_miss_returns_none(self, tmp_path):
        assert ArtifactStore(str(tmp_path)).get_state("nope") is None

    def test_sidecar_written(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put_state("k", {"x": np.ones(2)})
        assert os.path.exists(store.path("k", ".npz") + ".sha256")

    def test_corrupt_file_is_dropped(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put_state("k", {"x": np.ones(2)})
        path = store.path("k", ".npz")
        with open(path, "r+b") as handle:
            handle.seek(10)
            handle.write(b"\xde\xad\xbe\xef")
        assert store.get_state("k") is None
        assert not os.path.exists(path)  # self-healed: bad artifact removed
        assert not os.path.exists(path + ".sha256")

    def test_truncated_file_is_dropped(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put_state("k", {"x": np.arange(100)})
        path = store.path("k", ".npz")
        data = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(data[: len(data) // 2])
        assert store.get_state("k") is None
        assert not os.path.exists(path)

    def test_legacy_file_without_sidecar_loads(self, tmp_path):
        # Files written by older code have no checksum; still readable.
        store = ArtifactStore(str(tmp_path))
        np.savez(store.path("old", ".npz"), x=np.ones(3))
        loaded = store.get_state("old")
        assert np.array_equal(loaded["x"], np.ones(3))

    def test_no_tmp_litter(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put_state("k", {"x": np.ones(2)})
        leftovers = [f for f in os.listdir(tmp_path) if ".tmp." in f]
        assert leftovers == []


class TestJsonArtifacts:
    def test_round_trip(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put_json("t1", {"acc": 0.9, "asr": 0.1})
        assert store.get_json("t1") == {"acc": 0.9, "asr": 0.1}

    def test_corrupt_json_dropped(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put_json("t1", {"acc": 0.9})
        path = store.path("t1", ".json")
        with open(path, "w") as handle:
            handle.write('{"acc": 0.')  # truncated write
        assert store.get_json("t1") is None
        assert not os.path.exists(path)

    def test_overwrite(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put_json("k", {"v": 1})
        store.put_json("k", {"v": 2})
        assert store.get_json("k") == {"v": 2}

    def test_delete(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put_json("k", {"v": 1})
        store.delete("k", ".json")
        assert store.get_json("k") is None
        assert not os.path.exists(store.path("k", ".json") + ".sha256")


class TestCacheRoot:
    def test_env_var_roots_every_default_directory(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main
        from repro.eval import experiment_spec
        from repro.eval.runner import ScenarioCache, TrialCache
        from repro.orchestrator.orchestrator import _default_run_dir

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert ScenarioCache().directory == os.path.join(str(tmp_path), "models")
        assert TrialCache().directory == os.path.join(str(tmp_path), "trials")
        run_dir = _default_run_dir(experiment_spec("table1"), "0" * 64)
        assert os.path.dirname(run_dir) == os.path.join(str(tmp_path), "runs")
        assert main(["registry", "gc"]) == 1
        assert capsys.readouterr().out.strip() == (
            f"no registry at {os.path.join(str(tmp_path), 'registry')}"
        )


class _RacingStore(ArtifactStore):
    """Store whose publish sequence runs a callback between atomic steps."""

    def __init__(self, root, on_step):
        super().__init__(root)
        self._on_step = on_step

    def _between_steps(self, stage):
        self._on_step(stage)


class TestConcurrentReadDuringPut:
    """A get() racing a put() of the same key never sees a partial artifact.

    Load-bearing for the serving gateway's hot-swap: the registry get()s a
    checkpoint key that a concurrent publisher may be re-put()ing.  The
    reader must observe either the old or the new artifact at every
    interleaving point of the writer's atomic steps — never a miss caused
    by the reader "self-healing" a perfectly good file mid-publish.
    """

    STAGES = ("staged", "sealed", "published", "compacted")

    def _interleaved_put(self, tmp_path, put, observe):
        seen = {}

        def on_step(stage):
            seen[stage] = observe()

        put(_RacingStore(str(tmp_path), on_step))
        assert list(seen) == list(self.STAGES)
        return seen

    def test_state_overwrite_never_misses(self, tmp_path):
        reader = ArtifactStore(str(tmp_path))
        writer_seed = ArtifactStore(str(tmp_path))
        writer_seed.put_state("k", {"x": np.zeros(4)})

        def observe():
            state = reader.get_state("k")
            assert state is not None, "reader observed a partially-visible artifact"
            return float(state["x"][0])

        seen = self._interleaved_put(
            tmp_path, lambda s: s.put_state("k", {"x": np.ones(4)}), observe
        )
        assert seen["staged"] == 0.0 and seen["sealed"] == 0.0
        assert seen["published"] == 1.0 and seen["compacted"] == 1.0
        # And the artifact file itself was never dropped by the reader.
        assert reader.get_state("k") is not None

    def test_legacy_file_overwrite_never_misses(self, tmp_path):
        # The pre-existing artifact has no sidecar (written by older code):
        # sealing must hash it so readers keep accepting it until publish.
        reader = ArtifactStore(str(tmp_path))
        seed = ArtifactStore(str(tmp_path))
        np.savez(seed.path("k", ".npz"), x=np.zeros(2))
        assert not os.path.exists(seed.path("k", ".npz") + ".sha256")

        def observe():
            state = reader.get_state("k")
            assert state is not None
            return float(state["x"][0])

        seen = self._interleaved_put(
            tmp_path, lambda s: s.put_state("k", {"x": np.ones(2)}), observe
        )
        assert seen["sealed"] == 0.0 and seen["compacted"] == 1.0

    def test_json_overwrite_never_misses(self, tmp_path):
        reader = ArtifactStore(str(tmp_path))
        ArtifactStore(str(tmp_path)).put_json("k", {"v": 1})

        def observe():
            doc = reader.get_json("k")
            assert doc is not None
            return doc["v"]

        seen = self._interleaved_put(
            tmp_path, lambda s: s.put_json("k", {"v": 2}), observe
        )
        assert seen["sealed"] == 1 and seen["compacted"] == 2

    def test_crash_between_seal_and_publish_keeps_old(self, tmp_path):
        # A writer that dies after sealing leaves old data + widened sidecar:
        # readers keep loading the old artifact, and a later put completes.
        store = ArtifactStore(str(tmp_path))
        store.put_state("k", {"x": np.zeros(3)})

        class Boom(RuntimeError):
            pass

        def on_step(stage):
            if stage == "sealed":
                raise Boom()

        try:
            _RacingStore(str(tmp_path), on_step).put_state("k", {"x": np.ones(3)})
        except Boom:
            pass
        state = store.get_state("k")
        assert state is not None and state["x"][0] == 0.0
        store.put_state("k", {"x": np.full(3, 2.0)})
        assert store.get_state("k")["x"][0] == 2.0
        # Sidecar compacted back to exactly the live digest.
        with open(store.path("k", ".npz") + ".sha256") as handle:
            assert len(handle.read().split()) == 1

    def test_corruption_still_detected_after_multi_digest_era(self, tmp_path):
        # Widened sidecars must not weaken integrity checking: flip bytes in
        # the live artifact and it is still dropped as corrupt.
        store = ArtifactStore(str(tmp_path))
        store.put_state("k", {"x": np.arange(50)})
        store.put_state("k", {"x": np.arange(50) * 2})
        path = store.path("k", ".npz")
        with open(path, "r+b") as handle:
            handle.seek(12)
            handle.write(b"\xba\xad")
        assert store.get_state("k") is None
        assert not os.path.exists(path)


class TestChurnedKey:
    def test_reader_never_misses_under_continuous_overwrite(self, tmp_path):
        # A hot key being re-put with alternating contents must stay readable
        # the whole time: a reader whose digest/sidecar reads straddle two
        # publish generations must retry, not misdiagnose corruption and
        # self-heal (delete) a healthy artifact.
        store = ArtifactStore(str(tmp_path))
        store.put_state("hot", {"w": np.zeros(2048, dtype=np.float32)})
        stop = threading.Event()

        def churn():
            i = 0
            while not stop.is_set():
                store.put_state("hot", {"w": np.full(2048, i % 5, dtype=np.float32)})
                i += 1

        writer = threading.Thread(target=churn)
        writer.start()
        try:
            deadline = time.perf_counter() + 2.0
            reads = 0
            while time.perf_counter() < deadline:
                assert store.get_state("hot") is not None
                reads += 1
        finally:
            stop.set()
            writer.join(timeout=30)
        assert reads > 10
        assert os.path.exists(store.path("hot", ".npz"))

    def test_drop_corrupt_tolerates_concurrent_heal(self, tmp_path):
        # Two readers can both diagnose the same corrupt file; the loser of
        # the os.remove race must not blow up.
        store = ArtifactStore(str(tmp_path))
        store._drop_corrupt(str(tmp_path / "gone.npz"), "test")  # nothing exists

    def test_stable_corruption_still_dropped(self, tmp_path):
        # The retry logic must not weaken quiescent-corruption detection.
        store = ArtifactStore(str(tmp_path))
        store.put_state("k", {"x": np.arange(32)})
        with open(store.path("k", ".npz"), "r+b") as handle:
            handle.seek(10)
            handle.write(b"\xde\xad\xbe\xef")
        assert store.get_state("k") is None
        assert not os.path.exists(store.path("k", ".npz"))
