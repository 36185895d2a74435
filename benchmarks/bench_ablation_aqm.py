"""A1 (extension): AQM ablation — drop-tail vs RED vs CoDel.

The paper motivates CoDel as the bufferbloat community's answer (§1,
§3).  The registered ``aqm-voip`` sweep replays the worst VoIP cell —
upload congestion with a bloated 256-packet uplink buffer — under the
three queue disciplines.  AQM should recover most of the MOS that
drop-tail loses to standing queues.
"""

from repro import api

from benchmarks.common import comparison_table


def test_aqm_rescues_bloated_uplink():
    results = api.run_sweep("aqm-voip")
    rows = [("%s @ %d pkts" % (record.discipline, record.buffer_packets),
             "%.1f" % record["talks"], "%.1f" % record["listens"],
             "%.0f ms" % (record["delay"]["talks"] * 1000))
            for record in results]
    comparison_table(
        "A1: VoIP under upload congestion per queue discipline",
        ("queue @ buffer", "talks MOS", "listens MOS", "mouth-to-ear"), rows)
    # CoDel must bound the standing queue that drop-tail lets grow.
    droptail = results[("long-few", 256, "droptail")]
    codel = results[("long-few", 256, "codel")]
    assert codel["delay"]["talks"] < droptail["delay"]["talks"]
    assert codel["talks"] >= droptail["talks"]
