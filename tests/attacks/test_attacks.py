"""Attack trigger tests: determinism, locality, registry behavior."""

import numpy as np
import pytest

from repro.attacks import (
    ATTACK_REGISTRY,
    BadNetsAttack,
    BlendedAttack,
    BPPAttack,
    LowFrequencyAttack,
    build_attack,
    floyd_steinberg_dither,
)
from repro.attacks.low_frequency import _dct_basis
from repro.data import ImageDataset

SHAPE = (3, 16, 16)


def images(n=4, seed=0):
    return np.random.default_rng(seed).uniform(0, 1, (n, *SHAPE)).astype(np.float32)


@pytest.mark.parametrize("name", sorted(ATTACK_REGISTRY))
class TestCommonContract:
    def test_output_in_unit_range(self, name):
        attack = build_attack(name, image_shape=SHAPE)
        out = attack.apply(images())
        assert out.min() >= 0.0
        assert out.max() <= 1.0
        assert out.dtype == np.float32

    def test_deterministic(self, name):
        attack = build_attack(name, image_shape=SHAPE)
        x = images()
        assert np.array_equal(attack.apply(x), attack.apply(x))

    def test_does_not_mutate_input(self, name):
        attack = build_attack(name, image_shape=SHAPE)
        x = images()
        before = x.copy()
        attack.apply(x)
        assert np.array_equal(x, before)

    def test_changes_images(self, name):
        attack = build_attack(name, image_shape=SHAPE)
        x = images()
        assert not np.array_equal(attack.apply(x), x)

    def test_shape_check(self, name):
        attack = build_attack(name, image_shape=SHAPE)
        with pytest.raises(ValueError):
            attack.apply(np.zeros((2, 3, 8, 8), dtype=np.float32))

    def test_poisoned_copy_labels(self, name):
        attack = build_attack(name, target_class=2, image_shape=SHAPE)
        ds = ImageDataset(images(6), np.arange(6) % 3)
        poisoned = attack.poisoned_copy(ds)
        assert np.all(poisoned.labels == 2)

    def test_triggered_with_true_labels(self, name):
        attack = build_attack(name, image_shape=SHAPE)
        ds = ImageDataset(images(6), np.arange(6) % 3)
        triggered = attack.triggered_with_true_labels(ds)
        assert np.array_equal(triggered.labels, ds.labels)
        assert not np.array_equal(triggered.images, ds.images)


class TestBadNets:
    def test_patch_only_touches_corner(self):
        attack = BadNetsAttack(image_shape=SHAPE, patch_size=3, corner="br")
        x = images()
        out = attack.apply(x)
        diff = (out != x).any(axis=(0, 1))
        assert diff[-3:, -3:].all()
        assert not diff[:-3, :].any()
        assert not diff[:, :-3].any()

    def test_checkerboard_values(self):
        attack = BadNetsAttack(image_shape=SHAPE, patch_size=2)
        out = attack.apply(np.full((1, *SHAPE), 0.5, dtype=np.float32))
        patch = out[0, 0, -2:, -2:]
        assert patch.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    @pytest.mark.parametrize("corner", ["tl", "tr", "bl", "br"])
    def test_all_corners(self, corner):
        attack = BadNetsAttack(image_shape=SHAPE, patch_size=2, corner=corner)
        assert attack.apply(images()).shape == (4, *SHAPE)

    def test_bad_corner_raises(self):
        with pytest.raises(ValueError):
            BadNetsAttack(image_shape=SHAPE, corner="center")

    def test_oversized_patch_raises(self):
        with pytest.raises(ValueError):
            BadNetsAttack(image_shape=SHAPE, patch_size=99)


class TestBlended:
    def test_blend_is_convex_combination(self):
        attack = BlendedAttack(image_shape=SHAPE, blend_ratio=0.2)
        x = images()
        out = attack.apply(x)
        expected = 0.8 * x + 0.2 * attack.pattern[None]
        assert np.allclose(out, np.clip(expected, 0, 1), atol=1e-6)

    def test_every_pixel_affected(self):
        attack = BlendedAttack(image_shape=SHAPE, blend_ratio=0.5)
        x = np.zeros((1, *SHAPE), dtype=np.float32)
        out = attack.apply(x)
        assert (out > 0).mean() > 0.95  # pattern covers the whole image

    def test_invalid_ratio_raises(self):
        with pytest.raises(ValueError):
            BlendedAttack(image_shape=SHAPE, blend_ratio=0.0)

    def test_seed_changes_pattern(self):
        a = BlendedAttack(image_shape=SHAPE, seed=1)
        b = BlendedAttack(image_shape=SHAPE, seed=2)
        assert not np.array_equal(a.pattern, b.pattern)


class TestLowFrequency:
    def test_perturbation_amplitude_bounded(self):
        attack = LowFrequencyAttack(image_shape=SHAPE, amplitude=0.1)
        assert np.abs(attack.perturbation).max() <= 0.1 + 1e-6

    def test_perturbation_is_low_frequency(self):
        from scipy.fft import dctn

        attack = LowFrequencyAttack(image_shape=SHAPE, cutoff=3, amplitude=0.2)
        coeffs = dctn(attack.perturbation.astype(np.float64), axes=(1, 2), norm="ortho")
        hf_energy = float((coeffs[:, 3:, 3:] ** 2).sum())
        total = float((coeffs ** 2).sum())
        assert hf_energy / total < 1e-8

    def test_dc_term_zeroed(self):
        from scipy.fft import dctn

        attack = LowFrequencyAttack(image_shape=SHAPE)
        coeffs = dctn(attack.perturbation.astype(np.float64), axes=(1, 2), norm="ortho")
        assert np.abs(coeffs[:, 0, 0]).max() < 1e-6

    def test_invalid_params_raise(self):
        with pytest.raises(ValueError):
            LowFrequencyAttack(image_shape=SHAPE, cutoff=0)
        with pytest.raises(ValueError):
            LowFrequencyAttack(image_shape=SHAPE, amplitude=-1.0)
        # cutoff 1 keeps only the zeroed DC term: an all-zero trigger.
        with pytest.raises(ValueError, match=r"\[2, 16\]"):
            LowFrequencyAttack(image_shape=SHAPE, cutoff=1)
        with pytest.raises(ValueError, match=r"\[2, 8\]"):
            LowFrequencyAttack(image_shape=(3, 8, 8), cutoff=9)

    @pytest.mark.parametrize(
        "shape", [(3, 32, 32), (3, 16, 16), (1, 28, 28), (3, 32, 24)], ids=lambda s: "x".join(map(str, s))
    )
    def test_basis_product_matches_scipy_idctn(self, shape):
        from scipy.fft import idctn

        _, h, w = shape
        coeffs = np.random.default_rng(0).normal(size=shape)
        spatial = _dct_basis(h).T @ coeffs @ _dct_basis(w)
        assert np.abs(spatial - idctn(coeffs, axes=(1, 2), norm="ortho")).max() < 1e-12

    def test_default_trigger_is_bitwise_the_scipy_one(self):
        from scipy.fft import idctn

        # The grids' trigger: seed 11, cutoff 3, amplitude 0.25 on 32x32 images.
        shape, cutoff, amplitude, seed = (3, 32, 32), 3, 0.25, 11
        rng = np.random.default_rng(seed)
        coeffs = np.zeros(shape)
        coeffs[:, :cutoff, :cutoff] = rng.normal(size=(3, cutoff, cutoff))
        coeffs[:, 0, 0] = 0.0
        spatial = idctn(coeffs, axes=(1, 2), norm="ortho")
        expected = (spatial / np.abs(spatial).max() * amplitude).astype(np.float32)
        attack = LowFrequencyAttack(image_shape=shape, cutoff=cutoff, amplitude=amplitude, seed=seed)
        assert np.array_equal(attack.perturbation, expected)


class TestBPP:
    def test_quantization_levels(self):
        attack = BPPAttack(image_shape=SHAPE, bit_depth=2)
        out = attack.apply(images())
        unique = np.unique(out)
        assert len(unique) <= 4
        assert np.allclose(unique * 3, np.round(unique * 3), atol=1e-6)

    def test_binarization_at_depth_one(self):
        attack = BPPAttack(image_shape=SHAPE, bit_depth=1)
        out = attack.apply(images())
        assert set(np.unique(out).tolist()) <= {0.0, 1.0}

    def test_idempotent(self):
        attack = BPPAttack(image_shape=SHAPE, bit_depth=2)
        once = attack.apply(images())
        twice = attack.apply(once)
        assert np.array_equal(once, twice)

    def test_invalid_depth_raises(self):
        with pytest.raises(ValueError):
            BPPAttack(image_shape=SHAPE, bit_depth=0)

    def test_dither_version_runs(self):
        attack = BPPAttack(image_shape=(3, 8, 8), bit_depth=2, dither=True)
        out = attack.apply(np.random.default_rng(0).uniform(0, 1, (2, 3, 8, 8)).astype(np.float32))
        assert out.shape == (2, 3, 8, 8)
        assert out.min() >= 0 and out.max() <= 1

    def test_floyd_steinberg_quantizes(self):
        img = np.random.default_rng(0).uniform(0, 1, (3, 8, 8)).astype(np.float32)
        out = floyd_steinberg_dither(img, levels=2)
        # Interior gets diffused error, but values stay in range and most
        # pixels land on quantization levels.
        assert out.min() >= 0 and out.max() <= 1

    def test_dither_preserves_mean_brightness(self):
        img = np.full((3, 16, 16), 0.3, dtype=np.float32)
        out = floyd_steinberg_dither(img, levels=2)
        assert abs(float(out.mean()) - 0.3) < 0.05


class TestRegistry:
    def test_build_unknown_raises(self):
        with pytest.raises(KeyError):
            build_attack("sleeper_agent")

    def test_kwargs_forwarded(self):
        attack = build_attack("badnets", image_shape=SHAPE, patch_size=5)
        assert attack.patch_size == 5
