"""The paper's reported numbers, transcribed for side-by-side comparison.

The figure catalog (:data:`repro.report.figures.REPORT_FIGURES`) pairs
each grid with the reproduced column it is drawn beside and scored
against.  Grid keys are ``(workload, buffer_packets)``; Figure 9's
SD/HD grids are separate tables.

Transcription notes
-------------------
* Figure 4a's per-cell values are ambiguous in the source text (the
  OCR interleaves the two sub-areas), so only its qualitative envelope
  is recorded; Figures 4b/4c transcribe cleanly.
* Figure 7a's "user listens"/"user talks" halves are transcribed
  column-by-column as printed.
"""

from repro.core.buffers import ACCESS_BUFFER_SIZES, BACKBONE_BUFFER_SIZES

ACCESS_WORKLOAD_ROWS = ("noBG", "long-few", "long-many", "short-few",
                        "short-many")
BACKBONE_WORKLOAD_ROWS = ("noBG", "short-low", "short-medium", "short-high",
                          "short-overload", "long")


def _grid(rows, cols, column_major_values):
    """Build {(row, col): value} from column-major value lists."""
    table = {}
    index = 0
    for col in cols:
        for row in rows:
            table[(row, col)] = column_major_values[index]
            index += 1
    return table


# ---------------------------------------------------------------------------
# Table 1 (selected measured columns): {(workload, direction):
#   (up util %, down util %, up loss %, down loss %, concurrent flows)}
# ---------------------------------------------------------------------------
TABLE1_ACCESS = {
    ("short-few", "up"): (98.9, 0.3, 34.7, 0.0, 0.7),
    ("short-few", "bidir"): (95.0, 8.5, 58.6, 0.7, 15.2),
    ("short-few", "down"): (27.8, 44.1, 1.4, 3.0, 25.1),
    ("short-many", "up"): (98.9, 0.3, 33.1, 0.0, 0.7),
    ("short-many", "bidir"): (93.3, 10.7, 60.9, 1.3, 20.1),
    ("short-many", "down"): (53.8, 78.7, 4.0, 4.5, 23.5),
    ("long-few", "up"): (99.0, 0.2, 1.0, 0.0, 0.7),
    ("long-few", "bidir"): (71.9, 83.1, 41.7, 0.6, 12.6),
    ("long-few", "down"): (39.5, 99.9, 0.1, 0.5, 0.6),
    ("long-many", "up"): (98.9, 0.3, 14.4, 0.0, 0.7),
    ("long-many", "bidir"): (83.8, 61.8, 60.7, 0.2, 26.4),
    ("long-many", "down"): (68.5, 99.6, 0.03, 9.3, 4.9),
}

#: Backbone Table 1: {workload: (down util %, util sd, loss %, flows)}
TABLE1_BACKBONE = {
    "short-low": (16.5, 11.6, 0.0, 18),
    "short-medium": (49.5, 18.8, 0.0, 49),
    "short-high": (98.0, 6.5, 0.2, 206),
    "short-overload": (99.7, 2.2, 5.2, 2170),
    "long": (99.7, 0.1, 3.8, 675),
}

# ---------------------------------------------------------------------------
# Table 2: maximum queueing delays (ms) per buffer size.
# ---------------------------------------------------------------------------
TABLE2_ACCESS = {  # packets: (uplink ms, downlink ms)
    8: (98, 6), 16: (198, 12), 32: (395, 24),
    64: (788, 49), 128: (1583, 97), 256: (3167, 195),
}
TABLE2_BACKBONE = {8: 0.6, 28: 2.2, 749: 58.0, 7490: 580.0}

# ---------------------------------------------------------------------------
# Figure 4: mean queueing delay (ms).  Rows run long-few, long-many,
# short-few, short-many; "down"/"up" are the two heatmap sub-areas.
# ---------------------------------------------------------------------------
_FIG4_ROWS = ("long-few", "long-many", "short-few", "short-many")

FIG4_BIDIR_DOWNLINK = _grid(_FIG4_ROWS, ACCESS_BUFFER_SIZES, [
    1, 0, 0, 0,   2, 1, 0, 0,   7, 4, 0, 0,
    16, 14, 0, 0,   32, 46, 0, 0,   75, 120, 0, 0,
])
FIG4_BIDIR_UPLINK = _grid(_FIG4_ROWS, ACCESS_BUFFER_SIZES, [
    19, 58, 90, 88,   47, 128, 188, 185,   138, 293, 384, 380,
    412, 646, 774, 771,   851, 1399, 1545, 1538,   1609, 2857, 3066, 3023,
])
FIG4_UP_ONLY_UPLINK = _grid(_FIG4_ROWS, ACCESS_BUFFER_SIZES, [
    52, 96, 98, 91,   123, 184, 196, 192,   227, 348, 392, 391,
    450, 665, 788, 788,   870, 1282, 1572, 1573,   1858, 2448, 3083, 3044,
])
#: Figure 4a (downstream-only): qualitative envelope — downlink mean
#: delay stays under ~200 ms at every size; uplink stays near zero.
FIG4_DOWN_ONLY_DOWNLINK_MAX_MS = 200.0

# ---------------------------------------------------------------------------
# Figure 7: access VoIP median MOS.
# ---------------------------------------------------------------------------
FIG7A_LISTENS = _grid(ACCESS_WORKLOAD_ROWS, ACCESS_BUFFER_SIZES, [
    4.1, 3.9, 2.7, 3.8, 3.6,   4.1, 3.7, 2.7, 3.6, 3.3,
    4.2, 4.0, 2.7, 3.6, 3.4,   4.1, 3.9, 2.8, 3.5, 3.3,
    4.2, 3.7, 3.2, 3.6, 3.3,   4.2, 3.2, 2.9, 3.5, 3.1,
])
FIG7A_TALKS = _grid(ACCESS_WORKLOAD_ROWS, ACCESS_BUFFER_SIZES, [
    4.2, 4.1, 3.5, 4.0, 3.7,   4.2, 4.1, 3.2, 4.0, 3.4,
    4.2, 4.1, 3.5, 3.9, 3.4,   4.2, 4.1, 3.7, 4.0, 3.4,
    4.2, 4.2, 4.1, 4.0, 3.7,   4.2, 4.0, 3.8, 4.0, 3.8,
])
FIG7B_LISTENS = _grid(ACCESS_WORKLOAD_ROWS, ACCESS_BUFFER_SIZES, [
    4.1, 4.3, 4.4, 4.3, 4.4,   4.3, 4.2, 4.2, 4.3, 4.3,
    4.1, 4.0, 3.8, 4.1, 3.7,   4.1, 3.4, 3.0, 3.3, 3.6,
    4.2, 2.7, 2.4, 2.6, 2.7,   4.2, 2.3, 2.2, 2.3, 2.1,
])
FIG7B_TALKS = _grid(ACCESS_WORKLOAD_ROWS, ACCESS_BUFFER_SIZES, [
    4.2, 3.2, 2.6, 2.8, 2.7,   4.2, 3.0, 2.4, 2.4, 2.3,
    4.2, 2.7, 1.6, 1.3, 1.3,   4.2, 1.4, 1.2, 1.0, 1.0,
    4.2, 1.0, 1.0, 1.0, 1.0,   4.2, 1.0, 1.0, 1.0, 1.0,
])

# ---------------------------------------------------------------------------
# Figure 8: backbone VoIP median MOS.
# ---------------------------------------------------------------------------
FIG8 = _grid(BACKBONE_WORKLOAD_ROWS, BACKBONE_BUFFER_SIZES, [
    4.4, 4.4, 4.4, 3.5, 1.5, 2.8,   4.4, 4.4, 4.2, 3.5, 1.7, 2.7,
    4.4, 4.4, 4.3, 3.5, 1.5, 3.2,   4.4, 4.4, 4.2, 3.1, 1.2, 1.6,
])

# ---------------------------------------------------------------------------
# Figure 9: median SSIM.
# ---------------------------------------------------------------------------
FIG9A_SD = _grid(ACCESS_WORKLOAD_ROWS, ACCESS_BUFFER_SIZES, [
    1, 0.47, 0.41, 0.47, 0.44,   1, 0.47, 0.40, 0.48, 0.43,
    1, 0.47, 0.40, 0.48, 0.42,   1, 0.47, 0.41, 0.48, 0.41,
    1, 0.47, 0.42, 0.48, 0.45,   1, 0.47, 0.44, 0.48, 0.46,
])
FIG9A_HD = _grid(ACCESS_WORKLOAD_ROWS, ACCESS_BUFFER_SIZES, [
    1, 0.55, 0.46, 0.56, 0.53,   1, 0.56, 0.46, 0.56, 0.51,
    1, 0.55, 0.47, 0.56, 0.50,   1, 0.56, 0.45, 0.56, 0.48,
    1, 0.56, 0.47, 0.56, 0.48,   1, 0.56, 0.51, 0.57, 0.48,
])
FIG9B_SD = _grid(BACKBONE_WORKLOAD_ROWS, BACKBONE_BUFFER_SIZES, [
    1, 1, 0.95, 0.46, 0.40, 0.38,   1, 1, 0.95, 0.47, 0.40, 0.38,
    1, 1, 0.88, 0.48, 0.41, 0.40,   1, 1, 0.88, 0.49, 0.46, 0.48,
])
FIG9B_HD = _grid(BACKBONE_WORKLOAD_ROWS, BACKBONE_BUFFER_SIZES, [
    1, 0.99, 0.58, 0.52, 0.45, 0.44,   1, 0.99, 0.58, 0.53, 0.45, 0.44,
    1, 1, 0.59, 0.56, 0.46, 0.45,   1, 1, 0.59, 0.58, 0.54, 0.56,
])

# ---------------------------------------------------------------------------
# Figures 10/11: median page-load times (seconds).
# ---------------------------------------------------------------------------
FIG10A = _grid(ACCESS_WORKLOAD_ROWS, ACCESS_BUFFER_SIZES, [
    1.0, 0.8, 3.8, 0.8, 1.4,   0.6, 0.9, 3.7, 0.8, 1.3,
    0.6, 1.1, 3.4, 0.8, 1.1,   0.6, 1.4, 4.4, 0.7, 1.0,
    0.6, 2.1, 4.9, 0.6, 1.0,   0.6, 3.1, 5.8, 0.6, 1.2,
])
FIG10B = _grid(ACCESS_WORKLOAD_ROWS, ACCESS_BUFFER_SIZES, [
    1.0, 1.3, 8.2, 4.0, 7.0,   0.6, 2.1, 6.2, 7.1, 8.3,
    0.6, 3.1, 3.9, 10.1, 11.4,   0.6, 5.1, 7.4, 13.0, 14.0,
    0.6, 8.9, 14.6, 16.6, 16.1,   0.6, 20.5, 24.4, 18.7, 19.2,
])
FIG11 = _grid(BACKBONE_WORKLOAD_ROWS, BACKBONE_BUFFER_SIZES, [
    0.9, 0.8, 0.9, 1.3, 3.4, 5.0,   0.8, 0.8, 1.0, 1.3, 3.5, 4.8,
    0.8, 0.8, 0.8, 1.5, 4.5, 5.9,   0.8, 0.8, 0.8, 1.6, 9.5, 9.2,
])

#: Buffer sizes the paper's discussion highlights (§6–§7): the uplink
#: BDP, the downlink BDP and the bufferbloat extreme on access; tiny /
#: Stanford / BDP / 10x BDP on the backbone.  Fidelity trend checks are
#: anchored at the smallest/largest highlighted size of each testbed.
HIGHLIGHT_BUFFERS = {
    "access": (8, 64, 256),
    "backbone": (8, 749, 7490),
}

