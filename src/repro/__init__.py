"""repro — reproduction of "A QoE Perspective on Sizing Network Buffers".

Hohlfeld, Pujol, Ciucu, Feldmann, Barford — ACM IMC 2014.

The package builds the paper's entire experimental apparatus in Python:
a packet-level discrete-event simulator with the paper's two dumbbell
testbeds (:mod:`repro.sim`), a from-scratch TCP with Reno/CUBIC
(:mod:`repro.tcp`), Harpoon-style workloads (:mod:`repro.apps`),
signal-level media pipelines (:mod:`repro.media`), standardized QoE
models (:mod:`repro.qoe`) and the sensitivity-study grids behind the
paper's testbed tables and figures (:mod:`repro.core`), declared once
in a scenario registry (:mod:`repro.core.registry`) and executed by a
parallel cached grid runner (:mod:`repro.runner`).  ``python -m repro
list/describe/export`` exposes the registered sweeps on the command
line, and ``python -m repro report`` draws the paper's figures and
checks them against the paper.  Figure 1 and the Section-3 statistics are not
reproduced: they come from the paper's proprietary CDN corpus, which
this package does not have.

Quickstart::

    from repro.core.scenarios import access_scenario
    from repro.core.voip_study import run_voip_cell

    scenario = access_scenario("long-many", "up")   # upload congestion
    cell = run_voip_cell(scenario, buffer_packets=256, calls=1)
    print(cell["talks"], cell["delay"]["talks"])    # bufferbloat: MOS ~1.x
"""

__version__ = "1.0.0"

from repro.sim import Simulator
from repro.sim.topology import AccessNetwork, BackboneNetwork

__all__ = ["Simulator", "AccessNetwork", "BackboneNetwork", "__version__"]
