"""Peak Signal-to-Noise Ratio — the paper's secondary video metric.

PSNR "enables a quality ranking of the same content subject to
different impairments" (§8.1) even though it correlates worse with
perception than SSIM; the paper reports that both produced equivalent
rankings.
"""

import numpy as np

from repro.qoe.ssim import Workspace


def _decibels(mse, peak):
    """PSNR in dB of a mean squared error; zero error gives +inf."""
    if mse == 0:
        return float("inf")
    return float(10.0 * np.log10(peak * peak / mse))


def psnr(reference, degraded, peak=1.0):
    """PSNR in dB between two images; identical images give +inf."""
    workspace = Workspace(np.shape(reference))
    workspace.load(reference, degraded)
    return _decibels(workspace.mse(), peak)


def psnr_sequence(frame_mse, peak=1.0, cap=60.0):
    """Mean PSNR over a sequence, with lossless frames capped at ``cap``.

    ``frame_mse`` holds each frame's mean squared error, as
    :func:`repro.qoe.ssim.ssim_sequence` collects it while it scores the
    frames.  A frame with zero error scores ``cap``.
    """
    scores = [min(_decibels(mse, peak), cap) for mse in frame_mse]
    if not scores:
        return cap
    return float(np.mean(scores))
