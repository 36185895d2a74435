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
    """Five float64 planes to score frame pairs of one shape in.

    Allocated once and reused for every frame of a clip.  The loaded
    frames are read where they are, in their own dtype: the filters read
    them directly (``uniform_filter(..., output=)``), the products and
    the difference are taken in float64 (ufunc ``dtype=``), and the
    filtered products are filtered in place.  The operations and
    operands are those of the textbook formula, so the scores are the
    floats a float64 copy of the frames gives.
    """

    __slots__ = ("reference", "degraded", "planes")

    def __init__(self, shape):
        self.reference = self.degraded = None
        self.planes = tuple(np.empty(shape) for __ in range(5))

    def load(self, reference, degraded):
        """Point the workspace at one frame pair (no copy is made).

        The frames must stay unchanged until they are scored.
        """
        shape = self.planes[0].shape
        if np.shape(reference) != shape or np.shape(degraded) != shape:
            raise ValueError("shape mismatch %s vs %s"
                             % (np.shape(reference), np.shape(degraded)))
        self.reference = np.asarray(reference)
        self.degraded = np.asarray(degraded)

    def ssim(self):
        """Mean SSIM of the loaded pair."""
        x, y = self.reference, self.degraded
        mu_x, mu_y, sigma, numerator, sigma_yy = self.planes
        uniform_filter(x, size=WINDOW, output=mu_x)
        uniform_filter(y, size=WINDOW, output=mu_y)
        # numerator = (2 mu_x mu_y + C1) (2 sigma_xy + C2)
        sigma_xy = _filtered_product(x, y, sigma)
        np.multiply(mu_x, mu_y, out=numerator)
        np.subtract(sigma_xy, numerator, out=sigma_xy)
        np.multiply(2.0, numerator, out=numerator)
        np.add(numerator, C1, out=numerator)
        np.multiply(2.0, sigma_xy, out=sigma_xy)
        np.add(sigma_xy, C2, out=sigma_xy)
        np.multiply(numerator, sigma_xy, out=numerator)
        # sigma_xy is spent: its plane takes sigma_xx.  The means square
        # in place.
        sigma_xx = _filtered_product(x, x, sigma)
        np.multiply(mu_x, mu_x, out=mu_x)
        np.subtract(sigma_xx, mu_x, out=sigma_xx)
        _filtered_product(y, y, sigma_yy)
        np.multiply(mu_y, mu_y, out=mu_y)
        np.subtract(sigma_yy, mu_y, out=sigma_yy)
        # denominator = (mu_x^2 + mu_y^2 + C1) (sigma_xx + sigma_yy + C2)
        denominator = mu_x
        np.add(mu_x, mu_y, out=denominator)
        np.add(denominator, C1, out=denominator)
        np.add(sigma_xx, sigma_yy, out=sigma_xx)
        np.add(sigma_xx, C2, out=sigma_xx)
        np.multiply(denominator, sigma_xx, out=denominator)
        np.divide(numerator, denominator, out=numerator)
        return float(np.mean(numerator))

    def mse(self):
        """Mean squared error of the loaded pair."""
        error = self.planes[0]
        np.subtract(self.reference, self.degraded, out=error,
                     dtype=np.float64)
        np.square(error, out=error)
        return np.mean(error)


def _filtered_product(a, b, out):
    """``uniform_filter(a * b)`` in float64, computed in ``out``."""
    np.multiply(a, b, out=out, dtype=np.float64)
    uniform_filter(out, size=WINDOW, output=out)
    return out


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
    loaded pair, for :func:`repro.qoe.psnr.psnr_sequence`.

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
