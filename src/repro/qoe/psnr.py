"""Peak Signal-to-Noise Ratio — the paper's secondary video metric.

PSNR "enables a quality ranking of the same content subject to
different impairments" (§8.1) even though it correlates worse with
perception than SSIM; the paper reports that both produced equivalent
rankings.
"""

import numpy as np


def psnr(reference, degraded, peak=1.0):
    """PSNR in dB between two images; identical images give +inf."""
    reference = np.asarray(reference, dtype=np.float64)
    degraded = np.asarray(degraded, dtype=np.float64)
    if reference.shape != degraded.shape:
        raise ValueError("shape mismatch %s vs %s"
                         % (reference.shape, degraded.shape))
    mse = np.mean((reference - degraded) ** 2)
    if mse == 0:
        return float("inf")
    return float(10.0 * np.log10(peak * peak / mse))


def psnr_sequence(reference_frames, degraded_frames, peak=1.0, cap=60.0):
    """Mean PSNR over a sequence, with lossless frames capped at ``cap``.

    A frame equal to its reference scores ``cap`` without computing its
    (infinite) PSNR.
    """
    if len(reference_frames) != len(degraded_frames):
        raise ValueError("sequence length mismatch %d vs %d"
                         % (len(reference_frames), len(degraded_frames)))
    scores = [
        cap if np.array_equal(ref, deg)
        else min(psnr(ref, deg, peak=peak), cap)
        for ref, deg in zip(reference_frames, degraded_frames)
    ]
    if not scores:
        return cap
    return float(np.mean(scores))


def psnr_to_mos(psnr_db):
    """Map PSNR to the ACR MOS scale (piecewise linear, Zinner et al.)."""
    anchors_db = [20.0, 25.0, 31.0, 37.0, 45.0]
    anchors_mos = [1.0, 2.0, 3.0, 4.0, 5.0]
    return float(np.interp(psnr_db, anchors_db, anchors_mos))
