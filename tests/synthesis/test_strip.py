"""STRIP detector tests."""

import numpy as np
import pytest

from repro.synthesis import StripDetector, prediction_entropy


class TestPredictionEntropy:
    def test_range(self, backdoored_tiny_model, tiny_test):
        entropy = prediction_entropy(backdoored_tiny_model, tiny_test.images)
        assert entropy.shape == (len(tiny_test),)
        assert (entropy >= 0).all()
        assert (entropy <= np.log(3) + 1e-6).all()  # 3 classes

    def test_uniform_model_max_entropy(self, tiny_test):
        from repro.nn import Module, Tensor

        class Uniform(Module):
            def forward(self, x):
                return Tensor(np.zeros((x.shape[0], 3), dtype=np.float32))

        entropy = prediction_entropy(Uniform(), tiny_test.images[:8])
        assert np.allclose(entropy, np.log(3), atol=1e-5)


class TestStripDetector:
    def test_calibration_respects_fpr(self, backdoored_tiny_model, tiny_reservoir):
        detector = StripDetector(
            backdoored_tiny_model, tiny_reservoir,
            num_overlays=8, false_positive_rate=0.1, seed=0,
        )
        detector.calibrate()
        result = detector.detect(tiny_reservoir.images)
        # Clean inputs flagged at ~ the calibrated FPR (quantile definition).
        assert result.flagged.mean() <= 0.2

    def test_triggered_inputs_flagged_under_strip_premise(self, tiny_reservoir, tiny_test, tiny_attack):
        # STRIP's premise — the trigger dominates blends more than natural
        # features do — is attack/task dependent (it does NOT hold for the
        # trivial dominant-channel fixture task).  Test the detector's
        # separation logic against an oracle that embodies the premise: any
        # corner that still resembles the checker yields a confident target
        # prediction, everything else is maximally uncertain.
        from repro.nn import Module, Tensor

        class StripPremiseOracle(Module):
            def forward(self, x):
                data = x.data
                n = data.shape[0]
                corner = data[:, :, -2:, -2:].mean(axis=1)
                checker = (np.indices((2, 2)).sum(axis=0) % 2).astype(np.float32)
                correlation = ((corner - corner.mean(axis=(1, 2), keepdims=True)) *
                               (checker - checker.mean())).sum(axis=(1, 2))
                logits = np.zeros((n, 3), dtype=np.float32)
                logits[correlation > 0.1, 0] = 12.0  # confident target
                return Tensor(logits)

        detector = StripDetector(
            StripPremiseOracle(), tiny_reservoir,
            num_overlays=12, blend_alpha=0.5, false_positive_rate=0.1, seed=0,
        )
        triggered = tiny_attack.apply(tiny_test.images)
        clean_result = detector.detect(tiny_test.images)
        triggered_result = detector.detect(triggered)
        assert triggered_result.entropies.mean() < clean_result.entropies.mean()
        assert triggered_result.flagged.mean() > 0.5
        assert clean_result.flagged.mean() < 0.3

    def test_validation_errors(self, backdoored_tiny_model, tiny_reservoir):
        from repro.data import ImageDataset

        tiny_pool = ImageDataset(tiny_reservoir.images[:1], tiny_reservoir.labels[:1])
        with pytest.raises(ValueError, match="pool"):
            StripDetector(backdoored_tiny_model, tiny_pool)
        with pytest.raises(ValueError, match="blend_alpha"):
            StripDetector(backdoored_tiny_model, tiny_reservoir, blend_alpha=1.0)
        with pytest.raises(ValueError, match="false_positive"):
            StripDetector(backdoored_tiny_model, tiny_reservoir, false_positive_rate=0.0)

    def test_detect_autocalibrates(self, backdoored_tiny_model, tiny_reservoir, tiny_test):
        detector = StripDetector(backdoored_tiny_model, tiny_reservoir, num_overlays=4, seed=0)
        result = detector.detect(tiny_test.images[:10])
        assert result.threshold is not None
        assert result.entropies.shape == (10,)


class TestVectorizedScoring:
    def test_matches_per_overlay_reference_loop(self, backdoored_tiny_model, tiny_reservoir, tiny_test):
        # The stacked (chunk * num_overlays) forward must reproduce the old
        # per-overlay loop bit-for-bit given the same overlay assignment.
        from repro.synthesis import strip_entropy_scores

        images = tiny_test.images[:12]
        pool = tiny_reservoir.images
        rng = np.random.default_rng(3)
        overlay_idx = rng.integers(0, len(pool), size=(6, len(images)))

        reference = np.zeros(len(images))
        for k in range(overlay_idx.shape[0]):
            blended = 0.5 * images + 0.5 * pool[overlay_idx[k]]
            blended = np.clip(blended, 0.0, 1.0).astype(np.float32)
            from repro.synthesis import prediction_entropy

            reference += prediction_entropy(backdoored_tiny_model, blended)
        reference /= overlay_idx.shape[0]

        vectorized = strip_entropy_scores(
            backdoored_tiny_model, images, pool, overlay_idx, blend_alpha=0.5
        )
        np.testing.assert_allclose(vectorized, reference, rtol=1e-5, atol=1e-6)

    def test_chunking_invariant(self, backdoored_tiny_model, tiny_reservoir, tiny_test):
        # Tiny batch_size forces many chunks; scores must not change.
        from repro.synthesis import strip_entropy_scores

        images = tiny_test.images[:9]
        pool = tiny_reservoir.images
        overlay_idx = np.random.default_rng(5).integers(0, len(pool), size=(4, len(images)))
        big = strip_entropy_scores(backdoored_tiny_model, images, pool, overlay_idx, 0.5, batch_size=512)
        small = strip_entropy_scores(backdoored_tiny_model, images, pool, overlay_idx, 0.5, batch_size=2)
        np.testing.assert_allclose(big, small, rtol=1e-5, atol=1e-6)

    def test_shape_mismatch_rejected(self, backdoored_tiny_model, tiny_reservoir, tiny_test):
        from repro.synthesis import strip_entropy_scores

        with pytest.raises(ValueError):
            strip_entropy_scores(
                backdoored_tiny_model,
                tiny_test.images[:4],
                tiny_reservoir.images,
                np.zeros((3, 5), dtype=int),
                0.5,
            )

    def test_shared_overlays_match_tiled_index_table(
        self, backdoored_tiny_model, tiny_reservoir, tiny_test
    ):
        # A 1-D overlay_idx (one shared overlay set, the serving-gateway
        # form) must equal the 2-D form with that set tiled to every input.
        from repro.synthesis import strip_entropy_scores

        images = tiny_test.images[:7]
        pool = tiny_reservoir.images
        shared_idx = np.random.default_rng(9).integers(0, len(pool), size=5)
        tiled_idx = np.repeat(shared_idx[:, None], len(images), axis=1)

        shared = strip_entropy_scores(
            backdoored_tiny_model, images, pool, shared_idx, 0.5, batch_size=16
        )
        tiled = strip_entropy_scores(
            backdoored_tiny_model, images, pool, tiled_idx, 0.5, batch_size=16
        )
        np.testing.assert_allclose(shared, tiled, rtol=1e-5, atol=1e-6)
