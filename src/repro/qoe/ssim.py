"""Structural Similarity (SSIM) — full-reference video metric (§8.1).

Clean-room implementation of Wang et al. 2004.  Local statistics use the
8x8 uniform window of the original paper's fast variant, with "reflect"
edges (``d c b a | a b c d | d c b a``, repeated as often as a line
shorter than the window needs); constants are the standard
C1=(0.01 L)^2, C2=(0.03 L)^2.

The window mean is this module's own.  Each window sum is three doubling
adds per axis (pairs, pairs of pairs, pairs of fours), a balanced tree
of six roundings that no running sum carries from one pixel to the
next, and the 1/64 scale is exact.  A frame is scored in bands of rows,
so its scratch is one full float64 plane for the SSIM map and a few
band-sized planes; a clip is scored one frame at a time in one
:class:`Workspace`, so the memory scoring takes does not grow with the
clip.  Only the rows whose window reaches a row where the two frames
differ are scored: every other row scores exactly 1.0, and is written
as such (see :meth:`Workspace.ssim`).
"""

from functools import lru_cache

import numpy as np

C1 = 0.01 ** 2
C2 = 0.03 ** 2
#: Window side: the three doubling adds per axis fix it at 8.
WINDOW = 8

#: Pixels the window reaches before its own; ``WINDOW - 1 - BEFORE``
#: follow it.
BEFORE = WINDOW // 2

#: Rows of one band.  A band's statistics do not depend on where the
#: bands split, so neither do the scores.
BAND_ROWS = 64

#: Largest reference pixel magnitude at which an unchanged window is
#: known to score exactly 1.0: below it nothing overflows, and the
#: rounding of a variance stays far above ``-C2 / 2``, so the
#: denominator is never zero.  Inf and NaN are outside it.
TAME = 2.0 ** 16


def _reflect_indices(length):
    """The source index of each position of a line of ``length`` padded
    for the window (``BEFORE`` positions before it, the rest after)."""
    return np.pad(np.arange(length), (BEFORE, WINDOW - 1 - BEFORE),
                  mode="symmetric")


@lru_cache(maxsize=1024)
def band_runs(height, start, stop):
    """``((first, last, begin, end), ...)``: the padded rows that output
    rows ``start:stop`` of a frame ``height`` rows tall read, as runs of
    consecutive source rows, buffer rows ``first:last`` taking source
    rows ``begin:end``, for :meth:`Workspace.window_mean`.  Cached: the
    bands of a frame shape recur frame after frame."""
    rows = _reflect_indices(height)
    runs = []
    for position in range(start, stop + WINDOW - 1):
        source = int(rows[position])
        if runs and runs[-1][3] == source:
            first, __, begin, __ = runs[-1]
            runs[-1] = (first, position - start + 1, begin, source + 1)
        else:
            runs.append((position - start, position - start + 1, source,
                         source + 1))
    return tuple(runs)


class Workspace:
    """The float64 scratch to score frame pairs of one shape in.

    Allocated once and reused for every frame of a clip: one full
    ``plane`` (the SSIM map, or the squared error), five band planes for
    the local statistics and two padded band buffers for the window
    mean.  The loaded frames are read where they are, in their own
    dtype.  The operations and operands are those of the textbook
    formula, applied pixel by pixel, so the scores are the floats a
    float64 copy of the frames gives.

    A row whose 8-row window holds no row where the frames differ
    scores exactly 1.0, so :meth:`ssim` writes 1.0 there instead of
    computing it.  This is exact: in such a window ``x * y`` and
    ``x * x`` are the same floats, so the formula's numerator and
    denominator are too (``2.0 * a == a + a``).  A reference frame with
    a pixel of magnitude above :data:`TAME` (an inf or a NaN among
    them) is scored in full.
    """

    __slots__ = ("reference", "degraded", "plane", "_rows", "_band_rows",
                 "_stats", "_buffers", "_pad_columns", "_pad_sources")

    def __init__(self, shape):
        self.reference = self.degraded = None
        self.plane = np.empty(shape)
        height, width = shape
        # The source row of each padded row; output row r reads padded
        # rows r to r + WINDOW - 1.
        self._rows = _reflect_indices(height)
        self._band_rows = band = min(BAND_ROWS, height)
        self._stats = tuple(np.empty((band, width)) for __ in range(5))
        # Zeroed so that the columns past a row's end, which the sums
        # pass through but nothing reads, always hold finite values.
        self._buffers = tuple(np.zeros((band + WINDOW - 1,
                                        width + WINDOW - 1))
                              for __ in range(2))
        self._pad_columns = np.r_[0:BEFORE, BEFORE + width:width + WINDOW - 1]
        self._pad_sources = BEFORE + _reflect_indices(width)[self._pad_columns]

    def load(self, reference, degraded):
        """Point the workspace at one frame pair (no copy is made).

        The frames must stay unchanged until they are scored.
        """
        shape = self.plane.shape
        if np.shape(reference) != shape or np.shape(degraded) != shape:
            raise ValueError("shape mismatch %s vs %s"
                             % (np.shape(reference), np.shape(degraded)))
        self.reference = np.asarray(reference)
        self.degraded = np.asarray(degraded)

    def window_mean(self, a, b, runs, out):
        """The 8x8 window mean of ``a`` (of ``a * b`` unless ``b`` is
        None) in float64 over the band whose row runs are ``runs`` (see
        :func:`band_runs`), written to ``out`` (its rows by the frame's
        width)."""
        __, width = self.plane.shape
        rows = len(out)
        padded, partial = self._buffers
        inner = slice(BEFORE, BEFORE + width)
        for first, last, begin, end in runs:
            np.copyto(padded[first:last, inner], a[begin:end])
            if b is not None:
                np.copyto(partial[first:last, inner], b[begin:end])
        if b is not None:
            # The pad columns hold stale sums until the reflect below:
            # zero one side so that their products stay finite.
            partial[:, :BEFORE] = partial[:, BEFORE + width:] = 0.0
            np.multiply(padded[:rows + 7], partial[:rows + 7],
                        out=padded[:rows + 7])
        # Down the columns, whole padded rows at a time; the reflect
        # then fills the pad columns from the inner sums...
        np.add(padded[0:rows + 6], padded[1:rows + 7], out=partial[:rows + 6])
        np.add(partial[0:rows + 4], partial[2:rows + 6], out=padded[:rows + 4])
        np.add(padded[0:rows], padded[4:rows + 4], out=partial[:rows])
        partial[:rows, self._pad_columns] = partial[:rows, self._pad_sources]
        # ...then along the rows, the band taken as one line: a sum that
        # runs into the next row lands past the frame's width, unread.
        n = rows * padded.shape[1]
        p, q = padded.reshape(-1), partial.reshape(-1)
        np.add(q[0:n - 1], q[1:n], out=p[:n - 1])
        np.add(p[0:n - 3], p[2:n - 1], out=q[:n - 3])
        np.add(q[0:n - 7], q[4:n - 3], out=p[:n - 7])
        np.copyto(out, padded[:rows, :width])
        return np.multiply(out, 1.0 / WINDOW ** 2, out=out)

    def scored_rows(self):
        """``[(start, stop)]``: the runs of rows whose window reaches a
        row where the loaded frames differ, in order.  Every row when the
        reference holds a pixel beyond :data:`TAME`."""
        x = self.reference
        height, width = self.plane.shape
        # False, then whether each row is scored, then False.
        scored = np.zeros(height + 2, dtype=bool)
        if x.max() <= TAME and x.min() >= -TAME:
            # The plane is free until the scores are written: its first
            # bytes hold the comparison.
            differs = self.plane.reshape(-1).view(np.bool_)[:height * width]
            differs = differs.reshape(height, width)
            np.not_equal(x, self.degraded, out=differs)
            # Differing rows among padded rows 0 to p - 1, at p.
            reached = np.zeros(height + WINDOW, dtype=np.intp)
            np.cumsum(differs.any(axis=1)[self._rows], out=reached[1:])
            np.greater(reached[WINDOW:], reached[:-WINDOW],
                       out=scored[1:-1])
        else:
            scored[1:-1] = True
        edges = np.flatnonzero(scored[1:] != scored[:-1]).tolist()
        return list(zip(edges[::2], edges[1::2]))

    def ssim(self):
        """Mean SSIM of the loaded pair.

        The rows of :meth:`scored_rows` are scored band by band; every
        other row scores exactly 1.0 (see :class:`Workspace`).
        """
        x, y, plane = self.reference, self.degraded, self.plane
        unscored = 0
        for first, last in self.scored_rows():
            plane[unscored:first] = 1.0
            for start in range(first, last, self._band_rows):
                self._score_band(x, y, start,
                                 min(start + self._band_rows, last))
            unscored = last
        plane[unscored:] = 1.0
        return float(np.mean(plane))

    def _score_band(self, x, y, start, stop):
        """The SSIM map of output rows ``start:stop`` into the plane."""
        runs = band_runs(len(self.plane), start, stop)
        mu_x, mu_y, sigma, numerator, sigma_yy = (
            stat[:stop - start] for stat in self._stats)
        self.window_mean(x, None, runs, mu_x)
        self.window_mean(y, None, runs, mu_y)
        # numerator = (2 mu_x mu_y + C1) (2 sigma_xy + C2)
        sigma_xy = self.window_mean(x, y, runs, sigma)
        np.multiply(mu_x, mu_y, out=numerator)
        np.subtract(sigma_xy, numerator, out=sigma_xy)
        np.multiply(2.0, numerator, out=numerator)
        np.add(numerator, C1, out=numerator)
        np.multiply(2.0, sigma_xy, out=sigma_xy)
        np.add(sigma_xy, C2, out=sigma_xy)
        np.multiply(numerator, sigma_xy, out=numerator)
        # sigma_xy is spent: its plane takes sigma_xx.  The means
        # square in place.
        sigma_xx = self.window_mean(x, x, runs, sigma)
        np.multiply(mu_x, mu_x, out=mu_x)
        np.subtract(sigma_xx, mu_x, out=sigma_xx)
        self.window_mean(y, y, runs, sigma_yy)
        np.multiply(mu_y, mu_y, out=mu_y)
        np.subtract(sigma_yy, mu_y, out=sigma_yy)
        # denominator = (mu_x^2 + mu_y^2 + C1) (sigma_xx + sigma_yy + C2)
        denominator = mu_x
        np.add(mu_x, mu_y, out=denominator)
        np.add(denominator, C1, out=denominator)
        np.add(sigma_xx, sigma_yy, out=sigma_xx)
        np.add(sigma_xx, C2, out=sigma_xx)
        np.multiply(denominator, sigma_xx, out=denominator)
        np.divide(numerator, denominator, out=self.plane[start:stop])

    def mse(self):
        """Mean squared error of the loaded pair."""
        error = self.plane
        np.subtract(self.reference, self.degraded, out=error,
                     dtype=np.float64)
        np.square(error, out=error)
        return np.mean(error)


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
            score, error = 1.0, 0.0
        else:
            if workspace is None:
                workspace = Workspace(np.shape(reference))
            workspace.load(reference, degraded)
            score, error = workspace.ssim(), workspace.mse()
        scores.append(score)
        if frame_mse is not None:
            frame_mse.append(error)
    if not scores:
        return 1.0
    return float(np.mean(scores))
