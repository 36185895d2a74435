"""Structural Similarity (SSIM) — full-reference video metric (§8.1).

Clean-room implementation of Wang et al. 2004.  Local statistics use the
8x8 uniform window of the original paper's fast variant; constants are
the standard C1=(0.01 L)^2, C2=(0.03 L)^2.

A clip is scored one frame at a time in one :class:`Workspace`, so the
memory scoring takes does not grow with the clip.
"""

import numpy as np
from scipy.ndimage import uniform_filter

C1 = 0.01 ** 2
C2 = 0.03 ** 2
WINDOW = 8


class Workspace:
    """Float64 frames to score frame pairs of one shape in.

    Allocated once and reused for every frame of a clip: the filters
    write into it (``uniform_filter(..., output=)``) and the arithmetic
    runs in place (ufunc ``out=``).  The operations and their order are
    those of the textbook formula, so the scores are the same floats.
    """

    __slots__ = ("reference", "degraded", "scratch", "mu_x", "mu_y",
                 "mu_xx", "mu_yy", "mu_xy", "sigma_xy")

    def __init__(self, shape):
        for name in self.__slots__:
            setattr(self, name, np.empty(shape))

    def load(self, reference, degraded):
        """Copy one frame pair in as float64."""
        shape = self.reference.shape
        if np.shape(reference) != shape or np.shape(degraded) != shape:
            raise ValueError("shape mismatch %s vs %s"
                             % (np.shape(reference), np.shape(degraded)))
        np.copyto(self.reference, reference)
        np.copyto(self.degraded, degraded)

    def ssim(self):
        """Mean SSIM of the loaded pair."""
        x, y, product = self.reference, self.degraded, self.scratch
        mu_x, mu_y = self.mu_x, self.mu_y
        mu_xx, mu_yy, mu_xy = self.mu_xx, self.mu_yy, self.mu_xy
        uniform_filter(x, size=WINDOW, output=mu_x)
        uniform_filter(y, size=WINDOW, output=mu_y)
        np.multiply(mu_x, mu_x, out=mu_xx)
        np.multiply(mu_y, mu_y, out=mu_yy)
        np.multiply(mu_x, mu_y, out=mu_xy)
        # The means are spent: their frames take sigma_xx and sigma_yy.
        sigma_xx, sigma_yy, sigma_xy = mu_x, mu_y, self.sigma_xy
        for a, b, sigma, mu in ((x, x, sigma_xx, mu_xx),
                                (y, y, sigma_yy, mu_yy),
                                (x, y, sigma_xy, mu_xy)):
            np.multiply(a, b, out=product)
            uniform_filter(product, size=WINDOW, output=sigma)
            np.subtract(sigma, mu, out=sigma)
        # numerator = (2 mu_xy + C1) (2 sigma_xy + C2), in mu_xy
        numerator = mu_xy
        np.multiply(2.0, mu_xy, out=numerator)
        np.add(numerator, C1, out=numerator)
        np.multiply(2.0, sigma_xy, out=sigma_xy)
        np.add(sigma_xy, C2, out=sigma_xy)
        np.multiply(numerator, sigma_xy, out=numerator)
        # denominator = (mu_xx + mu_yy + C1) (sigma_xx + sigma_yy + C2),
        # in mu_xx
        denominator = mu_xx
        np.add(mu_xx, mu_yy, out=denominator)
        np.add(denominator, C1, out=denominator)
        np.add(sigma_xx, sigma_yy, out=sigma_xx)
        np.add(sigma_xx, C2, out=sigma_xx)
        np.multiply(denominator, sigma_xx, out=denominator)
        np.divide(numerator, denominator, out=numerator)
        return float(np.mean(numerator))

    def mse(self):
        """Mean squared error of the loaded pair."""
        error = self.scratch
        np.subtract(self.reference, self.degraded, out=error)
        np.square(error, out=error)
        return np.mean(error)


def ssim(reference, degraded):
    """Mean SSIM between two images in [0, 1].  Identity gives 1.0."""
    workspace = Workspace(np.shape(reference))
    workspace.load(reference, degraded)
    return workspace.ssim()


def _frame_pairs(reference_frames, degraded_frames):
    """Pair up two frame sequences; ValueError if their lengths differ."""
    degraded = iter(degraded_frames)
    for reference in reference_frames:
        frame = next(degraded, None)
        if frame is None:
            raise ValueError("sequence length mismatch: fewer degraded "
                             "than reference frames")
        yield reference, frame
    if next(degraded, None) is not None:
        raise ValueError("sequence length mismatch: more degraded than "
                         "reference frames")


def ssim_sequence(reference_frames, degraded_frames, frame_mse=None):
    """Mean SSIM across a frame sequence (the paper's per-video score).

    ``degraded_frames`` may be any iterable, such as the stream
    :func:`repro.media.codec.decode` yields: each frame is scored as it
    arrives, in one :class:`Workspace`.  When ``frame_mse`` is a list,
    each frame's mean squared error is appended to it, from the same
    float64 frames, for :func:`repro.qoe.psnr.psnr_sequence`.

    A frame equal to its reference scores 1.0 and MSE 0.0 without
    filtering: there the numerator and denominator of the SSIM formula
    are the same floats.
    """
    workspace = None
    scores = []
    for reference, degraded in _frame_pairs(reference_frames,
                                            degraded_frames):
        if np.array_equal(reference, degraded):
            score, mse = 1.0, 0.0
        else:
            if workspace is None:
                workspace = Workspace(np.shape(reference))
            workspace.load(reference, degraded)
            score, mse = workspace.ssim(), workspace.mse()
        scores.append(score)
        if frame_mse is not None:
            frame_mse.append(mse)
    if not scores:
        return 1.0
    return float(np.mean(scores))
