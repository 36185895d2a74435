"""Synthetic CDN sRTT dataset (Section 3's data substrate).

The paper analyses kernel-level TCP statistics of 430M connections from
a major CDN: per connection the minimum / average / maximum smoothed
RTT and the sample count, plus a whois/DNS-based access-technology
label.  That corpus is proprietary, so this module generates records
from a statistical model calibrated to every aggregate the paper
reports:

* access mix: ~70% ADSL, 1.4% Cable, 0.02% FTTH, rest unlabelled;
* ~80% of flows see < 100 ms of estimated queueing delay (max - min);
* ~2.8% exceed 500 ms and ~1% exceed 1 s;
* flows with min RTT <= 100 ms see even less queueing (95% < 100 ms);
* FTTH < Cable < ADSL in queueing-delay distribution (Figure 1c).

The queueing delay per flow is a two-component lognormal mixture: a
"light" component (most flows barely queue — access uplinks are seldom
utilized) and a rare "heavy" bufferbloat component.
"""

from enum import Enum

import numpy as np


class AccessTech(str, Enum):
    """Access technology labels used in Figure 1c."""

    ADSL = "adsl"
    CABLE = "cable"
    FTTH = "ftth"
    UNKNOWN = "unknown"


#: Mixture fractions per the paper (§3).
TECH_MIX = (
    (AccessTech.ADSL, 0.70),
    (AccessTech.CABLE, 0.014),
    (AccessTech.FTTH, 0.0002),
    (AccessTech.UNKNOWN, 0.2858),
)

#: Per-tech model parameters:
#: (min-RTT lognormal median s, sigma; light qd median s, sigma;
#:  heavy probability; heavy qd median s, sigma)
_TECH_PARAMS = {
    AccessTech.ADSL: (0.080, 0.70, 0.030, 1.05, 0.035, 0.70, 0.80),
    AccessTech.CABLE: (0.050, 0.60, 0.020, 1.00, 0.020, 0.55, 0.80),
    AccessTech.FTTH: (0.015, 0.45, 0.006, 0.90, 0.006, 0.30, 0.80),
    AccessTech.UNKNOWN: (0.120, 0.80, 0.028, 1.05, 0.025, 0.65, 0.85),
}


def generate_dataset(n_flows=200_000, seed=7):
    """Generate ``n_flows`` records; returns a structured numpy bundle.

    Returns a dict of arrays: ``min``, ``avg``, ``max`` (seconds),
    ``samples`` (int) and ``tech`` (object array of AccessTech values) —
    array form keeps 200k-flow analyses instant.
    """
    rng = np.random.default_rng(seed)
    techs = [t for t, __ in TECH_MIX]
    probs = np.array([p for __, p in TECH_MIX])
    probs = probs / probs.sum()
    assignment = rng.choice(len(techs), size=n_flows, p=probs)

    min_srtt = np.empty(n_flows)
    queueing = np.empty(n_flows)
    for index, tech in enumerate(techs):
        mask = assignment == index
        count = int(mask.sum())
        if count == 0:
            continue
        (min_med, min_sigma, light_med, light_sigma,
         heavy_p, heavy_med, heavy_sigma) = _TECH_PARAMS[tech]
        min_srtt[mask] = rng.lognormal(np.log(min_med), min_sigma, count)
        heavy = rng.random(count) < heavy_p
        qd = rng.lognormal(np.log(light_med), light_sigma, count)
        qd[heavy] = rng.lognormal(np.log(heavy_med), heavy_sigma,
                                  int(heavy.sum()))
        queueing[mask] = qd

    # Queueing correlates mildly with path length: flows close to the
    # CDN caches traverse fewer (and better-provisioned) segments — the
    # paper finds 95% of min-RTT<=100ms flows below 100 ms of queueing.
    queueing *= np.clip((min_srtt / 0.10) ** 0.85, 0.18, 3.5)

    # Sample counts: heavy-tailed (most flows are short); the analysis
    # filters at >= 10 samples like the paper.
    samples = np.ceil(rng.pareto(1.2, n_flows) * 6.0).astype(int) + 1
    # The average sits somewhere inside the range, biased low (queues
    # are empty most of a flow's lifetime).
    avg_frac = rng.beta(1.5, 5.0, n_flows)
    max_srtt = min_srtt + queueing
    avg_srtt = min_srtt + avg_frac * queueing
    return {
        "min": min_srtt,
        "avg": avg_srtt,
        "max": max_srtt,
        "samples": samples,
        "tech": np.array([techs[i].value for i in assignment], dtype=object),
    }
