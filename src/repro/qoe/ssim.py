"""Structural Similarity (SSIM) — full-reference video metric (§8.1).

Clean-room implementation of Wang et al. 2004.  Default local statistics
use the 8x8 uniform window of the original paper's fast variant (a
Gaussian 11x11 window is available via ``window="gaussian"``); constants
are the standard C1=(0.01 L)^2, C2=(0.03 L)^2.
"""

import numpy as np
from scipy.ndimage import gaussian_filter, uniform_filter

C1 = 0.01 ** 2
C2 = 0.03 ** 2


def _local_stats(window):
    """The local-mean filter of an SSIM window (``uniform``/``gaussian``)."""
    if window == "gaussian":
        def smooth(x):
            return gaussian_filter(x, sigma=1.5, truncate=3.5)
    elif window == "uniform":
        def smooth(x):
            return uniform_filter(x, size=8)
    else:
        raise ValueError("unknown SSIM window %r (use 'uniform' or "
                         "'gaussian')" % (window,))
    return smooth


def ssim(reference, degraded, window="uniform"):
    """Mean SSIM between two images in [0, 1].  Identity gives 1.0."""
    reference = np.asarray(reference, dtype=np.float64)
    degraded = np.asarray(degraded, dtype=np.float64)
    if reference.shape != degraded.shape:
        raise ValueError("shape mismatch %s vs %s"
                         % (reference.shape, degraded.shape))
    smooth = _local_stats(window)
    mu_x = smooth(reference)
    mu_y = smooth(degraded)
    mu_xx = mu_x * mu_x
    mu_yy = mu_y * mu_y
    mu_xy = mu_x * mu_y
    sigma_xx = smooth(reference * reference) - mu_xx
    sigma_yy = smooth(degraded * degraded) - mu_yy
    sigma_xy = smooth(reference * degraded) - mu_xy
    numerator = (2.0 * mu_xy + C1) * (2.0 * sigma_xy + C2)
    denominator = (mu_xx + mu_yy + C1) * (sigma_xx + sigma_yy + C2)
    return float(np.mean(numerator / denominator))


def ssim_sequence(reference_frames, degraded_frames, window="uniform"):
    """Mean SSIM across a frame sequence (the paper's per-video score).

    A frame equal to its reference scores 1.0 without filtering: there
    the numerator and denominator of the formula are the same floats.
    """
    if len(reference_frames) != len(degraded_frames):
        raise ValueError("sequence length mismatch %d vs %d"
                         % (len(reference_frames), len(degraded_frames)))
    _local_stats(window)  # reject a bad window even if no frame is filtered
    scores = [
        1.0 if np.array_equal(ref, deg) else ssim(ref, deg, window=window)
        for ref, deg in zip(reference_frames, degraded_frames)
    ]
    if not scores:
        return 1.0
    return float(np.mean(scores))
