"""Peak Signal-to-Noise Ratio — the paper's secondary video metric.

PSNR "enables a quality ranking of the same content subject to
different impairments" (§8.1) even though it correlates worse with
perception than SSIM; the paper reports that both produced equivalent
rankings.
"""

import numpy as np

from repro.qoe.ssim import Workspace

#: Peak pixel value: frames are luminance in [0, 1].
PEAK = 1.0

#: Score of a lossless frame in :func:`psnr_sequence`, in dB.
CAP_DB = 60.0


def _decibels(mse):
    """PSNR in dB of a mean squared error; zero error gives +inf."""
    if mse == 0:
        return float("inf")
    return float(10.0 * np.log10(PEAK * PEAK / mse))


def psnr(reference, degraded):
    """PSNR in dB between two images; identical images give +inf."""
    workspace = Workspace(np.shape(reference))
    workspace.load(reference, degraded)
    return _decibels(workspace.mse())


def psnr_sequence(frame_mse):
    """Mean PSNR over a sequence, with lossless frames capped at
    :data:`CAP_DB`.

    ``frame_mse`` holds each frame's mean squared error, as
    :func:`repro.qoe.ssim.ssim_sequence` collects it while it scores the
    frames.  A frame with zero error scores ``CAP_DB``.
    """
    scores = [min(_decibels(mse), CAP_DB) for mse in frame_mse]
    if not scores:
        return CAP_DB
    return float(np.mean(scores))
