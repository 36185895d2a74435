"""QoE metric layer.

Standardized quality models used by the paper:

* :mod:`repro.qoe.scales` — MOS scales (Figure 6) and ITU-T G.114 delay
  classes.
* :mod:`repro.qoe.emodel` — ITU-T G.107 E-model (delay impairment Id is
  the paper's z2).
* :mod:`repro.qoe.pesq` — PESQ-like full-reference speech quality (z1).
* :mod:`repro.qoe.voip` — the paper's z = max(0, z1 - z2) combination.
* :mod:`repro.qoe.ssim` / :mod:`repro.qoe.psnr` — full-reference video
  metrics; :mod:`repro.qoe.video` maps them to MOS.
* :mod:`repro.qoe.web` — ITU-T G.1030 page-load-time model.
"""

from repro.qoe.emodel import delay_impairment, r_to_mos
from repro.qoe.scales import (
    G114_ACCEPTABLE_MS,
    G114_PROBLEMATIC_MS,
    g114_class,
    mos_class,
    voip_mos_class,
)

__all__ = [
    "delay_impairment",
    "r_to_mos",
    "G114_ACCEPTABLE_MS",
    "G114_PROBLEMATIC_MS",
    "g114_class",
    "mos_class",
    "voip_mos_class",
]
