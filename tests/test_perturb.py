import numpy as np
import pytest

from asibench.errors import ParameterError
from asibench.image import Image
from asibench.perturb import (
    Kind,
    PerturbationStep,
    apply_gaussian_noise,
    apply_salt_pepper,
    apply_sequence,
    derive_seed,
    rotate,
)
from conftest import gradient_image


class TestSaltPepper:
    def test_zero_density_is_identity(self):
        img = gradient_image()
        assert apply_salt_pepper(img, 0.0, 1) == img

    def test_full_density_forces_extremes(self):
        out = apply_salt_pepper(Image.constant(8, 8, 0.5), 1.0, 3)
        assert set(np.unique(out.pixels)) <= {0.0, 1.0}

    def test_exact_count_on_constant_image(self):
        # brute-force pixel diff against the stated count
        img = Image.constant(10, 10, 0.5)
        out = apply_salt_pepper(img, 0.2, 42)
        changed = (out.pixels != img.pixels).any(axis=2)
        assert changed.sum() == 20
        hit_values = out.pixels[changed]
        assert set(np.unique(hit_values)) <= {0.0, 1.0}

    def test_count_matches_round(self):
        img = Image.constant(7, 9, 0.5)  # 63 pixels
        for density, expected in ((0.1, 6), (0.15, 9), (0.2, 13)):
            out = apply_salt_pepper(img, density, 11)
            assert (out.pixels != img.pixels).any(axis=2).sum() == expected

    def test_rgb_hits_all_channels_same_extreme(self):
        img = Image.constant(6, 6, 0.5, channels=3)
        out = apply_salt_pepper(img, 0.5, 9)
        changed = (out.pixels != img.pixels).any(axis=2)
        hit = out.pixels[changed]
        assert np.all((hit == hit[:, :1]))  # all channels equal per pixel

    def test_deterministic(self):
        img = gradient_image()
        a = apply_salt_pepper(img, 0.3, 123)
        b = apply_salt_pepper(img, 0.3, 123)
        assert np.array_equal(a.pixels, b.pixels)

    def test_density_out_of_range(self):
        with pytest.raises(ParameterError):
            apply_salt_pepper(Image.constant(4, 4, 0.5), 1.5, 0)
        with pytest.raises(ParameterError):
            apply_salt_pepper(Image.constant(4, 4, 0.5), -0.1, 0)


class TestGaussianNoise:
    def test_zero_sigma_is_identity(self):
        img = gradient_image()
        assert apply_gaussian_noise(img, 0.0, 5) == img

    def test_moment_oracle(self):
        # far from the clamp bounds the output moments match the normal draw
        img = Image.constant(256, 256, 0.5)
        out = apply_gaussian_noise(img, 0.1, 77)
        assert abs(out.pixels.mean() - 0.5) < 0.005
        assert abs(out.pixels.std() - 0.1) < 0.01

    def test_clamping_at_upper_bound(self):
        img = Image.constant(64, 64, 1.0)
        out = apply_gaussian_noise(img, 0.1, 3)
        assert out.pixels.max() <= 1.0
        assert out.pixels.mean() < 1.0  # negative draws survive, positive clamp

    def test_deterministic(self):
        img = gradient_image()
        a = apply_gaussian_noise(img, 0.15, 99)
        b = apply_gaussian_noise(img, 0.15, 99)
        assert np.array_equal(a.pixels, b.pixels)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ParameterError):
            apply_gaussian_noise(Image.constant(4, 4, 0.5), -0.1, 0)


class TestRotate:
    def test_zero_degrees_identity(self):
        img = gradient_image()
        out = rotate(img, 0.0)
        assert np.array_equal(out.pixels, img.pixels)

    def test_dimensions_preserved(self):
        img = Image.constant(13, 7, 0.4)
        out = rotate(img, 45.0)
        assert (out.height, out.width, out.channels) == (13, 7, 1)

    def test_center_fixed_point(self):
        arr = np.zeros((11, 11))
        arr[5, 5] = 1.0
        for deg in (17.0, -60.0, 120.0):
            out = rotate(Image(arr), deg)
            peak = np.unravel_index(out.pixels.argmax(), out.pixels.shape)
            assert peak[:2] == (5, 5)

    def test_positive_is_clockwise(self):
        # a pixel right of center rotates to below center under +90 (y down)
        arr = np.zeros((11, 11))
        arr[5, 8] = 1.0
        out = rotate(Image(arr), 90.0)
        peak = np.unravel_index(out.pixels.argmax(), out.pixels.shape)
        assert peak[:2] == (8, 5)

    def test_round_trip_central_region(self):
        # borders excluded: fill and edge resampling only affect the rim
        arr = np.zeros((40, 40))
        arr[5:35, 5:35] = 0.9
        img = Image(arr)
        back = rotate(rotate(img, 30.0), -30.0)
        central = (slice(10, 30), slice(10, 30))
        assert np.abs(back.pixels[central] - img.pixels[central]).max() <= 0.02

    def test_fill_is_zero(self):
        out = rotate(Image.constant(20, 20, 1.0), 45.0)
        # corners sample from outside the source square
        assert out.pixels[0, 0, 0] == 0.0

    def test_degrees_out_of_range(self):
        with pytest.raises(ParameterError):
            rotate(Image.constant(4, 4, 0.5), 360.0)


class TestSteps:
    def test_step_validation(self):
        with pytest.raises(ParameterError):
            PerturbationStep(Kind.SALT_PEPPER, 2.0)
        with pytest.raises(ParameterError):
            PerturbationStep(Kind.GAUSSIAN, -1.0)
        with pytest.raises(ParameterError):
            PerturbationStep(Kind.ROTATION, -360.0)


class TestSequence:
    def test_empty_sequence_identity(self):
        img = gradient_image()
        assert apply_sequence(img, [], 4) == img

    def test_identity_steps_compose_to_identity(self):
        img = gradient_image()
        steps = [PerturbationStep(Kind.GAUSSIAN, 0.0), PerturbationStep(Kind.SALT_PEPPER, 0.0)]
        assert apply_sequence(img, steps, 4) == img

    def test_order_matters(self):
        img = gradient_image()
        sp = PerturbationStep(Kind.SALT_PEPPER, 0.1)
        rot = PerturbationStep(Kind.ROTATION, 30.0)
        a = apply_sequence(img, [sp, rot], 7)
        b = apply_sequence(img, [rot, sp], 7)
        assert not np.array_equal(a.pixels, b.pixels)

    def test_sequence_deterministic(self):
        img = gradient_image()
        steps = [PerturbationStep(Kind.SALT_PEPPER, 0.15), PerturbationStep(Kind.GAUSSIAN, 0.1)]
        a = apply_sequence(img, steps, 21)
        b = apply_sequence(img, steps, 21)
        assert np.array_equal(a.pixels, b.pixels)

    def test_step_randomness_keyed_by_index(self):
        # same kernel at a different position draws a different stream
        img = Image.constant(16, 16, 0.5)
        sp = PerturbationStep(Kind.SALT_PEPPER, 0.2)
        ident = PerturbationStep(Kind.GAUSSIAN, 0.0)
        first = apply_sequence(img, [sp], 33)
        second = apply_sequence(img, [ident, sp], 33)
        assert not np.array_equal(first.pixels, second.pixels)

    def test_matches_manual_composition(self):
        img = gradient_image()
        sp = PerturbationStep(Kind.SALT_PEPPER, 0.1)
        ga = PerturbationStep(Kind.GAUSSIAN, 0.1)
        seq = apply_sequence(img, [sp, ga], 55)
        manual = apply_gaussian_noise(
            apply_salt_pepper(img, 0.1, derive_seed(55, 0)), 0.1, derive_seed(55, 1)
        )
        assert np.array_equal(seq.pixels, manual.pixels)


def test_closure_bounds():
    img = gradient_image()
    for out in (
        apply_salt_pepper(img, 0.5, 1),
        apply_gaussian_noise(img, 0.5, 1),
        rotate(img, 33.0),
    ):
        assert out.pixels.min() >= 0.0 and out.pixels.max() <= 1.0
        assert out.pixels.shape == img.pixels.shape
