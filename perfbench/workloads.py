"""The benchmark's workloads: fixed grids of registry cells.

Each workload is a closed loop: one process submits a fixed list of
cells, lowered from ``repro.core.registry`` specs at scale 1, and waits
until every one has finished before the next pass starts.  The windows
are shortened with :func:`repro.api.apply_overrides` (warm-up and
measurement seconds, fetch counts) so that one run repeats every pass
several times within its time budget; the grids themselves (scenario x
buffer x resolution) are the registered ones.
"""

from dataclasses import dataclass, field, replace

#: Process-pool size of the parallel pass: the reference box has two
#: cores (``nproc`` = 2), so at most two pool workers.
WORKERS = 2

#: ``REPRO_SCALE`` every spec is lowered at.
SCALE = 1.0

#: The import each cell kind's executor triggers lazily on its first
#: cell (the video scorer pulls in scipy).
KIND_MODULES = {
    "qos": "repro.core.experiment",
    "voip": "repro.core.voip_study",
    "video": "repro.core.video_study",
    "web": "repro.core.web_study",
}


@dataclass(frozen=True)
class Part:
    """One registered sweep, narrowed for the benchmark.

    ``fields`` replaces :class:`repro.core.registry.SweepSpec` fields that
    :func:`repro.api.apply_overrides` has no knob for (extra axes, fetch
    counts); ``overrides`` are ``apply_overrides`` keywords.
    """

    sweep: str
    overrides: dict = field(default_factory=dict)
    fields: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    """A named, fixed list of cells and the reason it is in the benchmark.

    ``seed_check`` marks the workload whose trajectory depends on the
    seed: each run proves that a different seed changes a payload.
    """

    name: str
    why: str
    parts: tuple
    seed_check: bool = False

    def specs(self, seed=None):
        """The workload's :class:`SweepSpec` objects, one per part.

        ``seed`` shifts every sweep's registry seed by the same amount
        (None or 0 keeps them).  Shifting rather than replacing keeps the
        sweeps' seeds distinct, so cells of one workload draw independent
        Harpoon traffic instead of all moving together with the seed.
        """
        from repro import api
        from repro.core import registry

        specs = []
        for part in self.parts:
            spec = replace(registry.get(part.sweep), **part.fields)
            overrides = dict(part.overrides)
            if seed is not None:
                overrides["seed"] = spec.seed + seed
            specs.append(api.apply_overrides(spec, scale=SCALE, **overrides))
        return specs

    def lower(self, seed=None):
        """``(tasks, keys)``: every cell of the workload, in submit order."""
        tasks, keys = [], []
        for spec in self.specs(seed):
            tasks.extend(spec.tasks(SCALE))
            keys.extend((spec.name,) + key for key in spec.cells(SCALE))
        return tasks, keys

    def kinds(self):
        """The cell kinds this workload runs, in first-use order."""
        from repro.core import registry

        return tuple(dict.fromkeys(registry.get(part.sweep).kind
                                   for part in self.parts))


WORKLOADS = {workload.name: workload for workload in (
    Workload(
        name="video-access",
        why="fig9a access IPTV, 18 cells: the only workload where QoE "
            "scoring and media (SSIM, PSNR, decode, clip frames) do most "
            "of the work",
        parts=(Part("fig9a", {"warmup": 1.0, "duration": 1.5}),),
    ),
    Workload(
        name="access-bulk",
        why="fig5 qos, fig7a voip, fig10a web on the access link, 27 "
            "cells: few long-lived bulk flows, per-packet link/queue/node "
            "cost dominates, small event heap; the seed moves the "
            "Harpoon cells",
        parts=(
            Part("fig5", {"warmup": 2.0, "duration": 3.0}),
            Part("fig7a", {"warmup": 2.0, "duration": 2.0}),
            Part("fig10a", {"warmup": 2.0},
                 {"counts": (("fetches", 4, 4),)}),
        ),
        seed_check=True,
    ),
)}
