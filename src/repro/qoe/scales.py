"""MOS scales (Figure 6) and ITU-T G.114 delay classification.

The paper colours its figures with two MOS scales:

* Figure 6a — the G.711/E-model user-satisfaction scale used for VoIP
  (P.862.2 mapping): 4.3+ "very satisfied" down to <2.6 "not
  recommended".
* Figure 6b — the classic ACR scale used for video and web: 5 excellent,
  4 good, 3 fair, 2 poor, 1 bad.

Figure 4's queueing-delay heatmap uses ITU-T Recommendation G.114, which
classifies one-way delay for interactive applications: below 150 ms
acceptable, up to 400 ms problematic, above that causing problems.
"""

#: G.114 one-way delay thresholds (milliseconds).
G114_ACCEPTABLE_MS = 150.0
G114_PROBLEMATIC_MS = 400.0


def g114_class(delay_seconds):
    """Classify a one-way delay per ITU-T G.114.

    Returns ``"acceptable"`` (green in the paper), ``"problematic"``
    (orange) or ``"bad"`` (red).
    """
    delay_ms = delay_seconds * 1000.0
    if delay_ms <= G114_ACCEPTABLE_MS:
        return "acceptable"
    if delay_ms <= G114_PROBLEMATIC_MS:
        return "problematic"
    return "bad"


#: Figure 6a: VoIP (G.711 / P.862.2) user-satisfaction bands,
#: as (lower MOS bound, label) in descending order.
VOIP_MOS_BANDS = (
    (4.3, "very satisfied"),
    (4.0, "satisfied"),
    (3.6, "some users satisfied"),
    (3.1, "many users dissatisfied"),
    (2.6, "nearly all users dissatisfied"),
    (1.0, "not recommended"),
)

#: Figure 6b: ACR quality bands for video and web.
ACR_MOS_BANDS = (
    (4.5, "excellent"),
    (3.5, "good"),
    (2.5, "fair"),
    (1.5, "poor"),
    (1.0, "bad"),
)


def _classify(mos, bands):
    for lower_bound, label in bands:
        if mos >= lower_bound:
            return label
    return bands[-1][1]


def voip_mos_class(mos):
    """User-satisfaction label for a VoIP MOS (Figure 6a)."""
    return _classify(mos, VOIP_MOS_BANDS)


def mos_class(mos):
    """ACR label for a video/web MOS (Figure 6b)."""
    return _classify(mos, ACR_MOS_BANDS)


#: Quality markers of the report's heatmap cells, mirroring the paper's
#: green/orange/red colouring: '+' fine, 'o' degraded, '!' bad
#: (:data:`repro.report.svg.MARKER_COLORS` colours them).
def heat_marker_from_mos(mos):
    """One-character quality marker for heatmap cells."""
    if mos >= 3.5:
        return "+"
    if mos >= 2.5:
        return "o"
    return "!"


def heat_marker_from_delay(delay_seconds):
    """One-character G.114 marker for delay heatmap cells."""
    cls = g114_class(delay_seconds)
    if cls == "acceptable":
        return "+"
    if cls == "problematic":
        return "o"
    return "!"
