"""Deterministic, named random-number streams.

Every stochastic component of an experiment (each direction's Harpoon
sessions, ...) draws from its own named stream so that

* experiments are reproducible given a single root seed, and
* adding a new consumer does not perturb the draws seen by existing ones.

Streams are derived from the root seed with :class:`numpy.random.SeedSequence`
spawned per name, which provides statistically independent substreams.
"""

import zlib

import numpy as np


class RngRegistry:
    """Factory of named, independent :class:`numpy.random.Generator` streams.

    Parameters
    ----------
    seed:
        Root seed of the experiment.  Two registries created with the same
        seed hand out identical streams for identical names.
    """

    def __init__(self, seed=0):
        self.seed = int(seed)
        self._streams = {}

    def stream(self, name):
        """Return the generator for ``name``, creating it on first use."""
        gen = self._streams.get(name)
        if gen is None:
            # Mix the name into the seed material deterministically.  CRC32
            # is stable across runs and platforms (unlike hash()).
            tag = zlib.crc32(name.encode("utf-8"))
            seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(tag,))
            gen = np.random.Generator(np.random.PCG64(seq))
            self._streams[name] = gen
        return gen

    def fork(self, name, index):
        """Return a stream for the ``index``-th member of a family.

        Useful when a dynamic number of consumers is created (e.g. one
        stream per Harpoon session).
        """
        return self.stream("%s[%d]" % (name, index))

    def __repr__(self):
        return "RngRegistry(seed=%d, streams=%d)" % (self.seed, len(self._streams))
