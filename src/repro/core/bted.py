"""Batch transductive experimental design — Algorithm 2 of the paper.

BTED makes TED scale to spaces with tens of millions of configurations:
``B`` batches of ``M`` random candidates are each reduced to ``m``
points by TED; the union (up to ``B * m`` points) is reduced by TED
again to the final ``m``-point initialization set.  Randomness bounds
the kernel computations at ``M x M`` while the batch mechanism enlarges
the random space actually examined (``B * M`` points in total).

A design is a pure function of the space, the settings and the seed,
so it may be computed anywhere.  :class:`DesignHelper` computes them in
a helper process (``python -m repro.core.bted_helper``), off this
process's interpreter lock: a compile that looks one task ahead routes
the next task's design there (:func:`designs_in`), and
:func:`initial_design`, the initial batch of every BTED arm, takes it
from the helper when one is routed to the calling thread.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import select
import subprocess
import sys
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, List, Optional

import numpy as np

from repro.core.ted import ted_select
from repro.space.space import ConfigSpace
from repro.utils.log import get_logger
from repro.utils.rng import SeedLike, as_generator, derive_seed

logger = get_logger("core.bted")

#: the directory holding the ``repro`` package the helper must import
_PACKAGE_ROOT = Path(__file__).resolve().parents[2]
#: the helper the calling thread routes its designs to, if any
_ROUTE = threading.local()
#: the byte the helper writes once it can answer requests
READY = b"\x01"


def bted_select(
    space: ConfigSpace,
    m: int = 64,
    mu: float = 0.1,
    batch_candidates: int = 500,
    num_batches: int = 10,
    seed: SeedLike = None,
) -> List[int]:
    """Select an ``m``-point diverse initialization set from ``space``.

    This is ``BTED(V=D, mu, M=batch_candidates, m, B=num_batches)``.
    The paper's experimental settings (Sec. V-A) are the defaults:
    ``mu=0.1, M=500, m=64, B=10`` — each batch samples 500 random
    configurations, TED keeps 64, the union holds up to 640, and a
    final TED pass returns 64.

    Returns config *indices* into ``space``, deduplicated (batches are
    sampled independently, so their unions may overlap).  Each TED pass,
    per batch and over the union, is :func:`~repro.core.ted.ted_select`,
    which costs one kernel matrix-vector product per pick.
    """
    if m <= 0:
        raise ValueError("m must be positive")
    if batch_candidates < m:
        raise ValueError(
            f"batch_candidates ({batch_candidates}) must be >= m ({m})"
        )
    if num_batches <= 0:
        raise ValueError("num_batches must be positive")
    rng = as_generator(seed)
    root = int(rng.integers(0, 2**62))

    union: dict[int, None] = {}
    for b in range(num_batches):
        batch_seed = derive_seed(root, "bted-batch", b)
        candidates = space.sample(batch_candidates, seed=batch_seed)
        feats = space.feature_matrix(candidates)
        picked = ted_select(feats, m=m, mu=mu)
        for row in picked:
            union.setdefault(int(candidates[row]), None)

    union_indices = np.fromiter(union.keys(), dtype=np.int64, count=len(union))
    if len(union_indices) <= m:
        return union_indices.tolist()
    union_feats = space.feature_matrix(union_indices)
    final_rows = ted_select(union_feats, m=m, mu=mu)
    return [int(union_indices[row]) for row in final_rows]


def initial_design(tuner) -> List[int]:
    """The initial batch of a BTED arm's ``tuner``: its BTED design.

    The settings are the tuner's ``init_size``, ``mu``,
    ``batch_candidates`` and ``num_batches``, the seed its
    ``"bted-init"`` stream.  The design comes from the helper routed to
    the calling thread by :func:`designs_in`, or is computed in process
    when none is routed or the helper has failed; either way it is the
    same list.
    """
    space = tuner.task.space
    settings = dict(
        m=tuner.init_size,
        mu=tuner.mu,
        batch_candidates=tuner.batch_candidates,
        num_batches=tuner.num_batches,
    )
    seed = tuner.rng_pool.seed_for("bted-init")
    helper = getattr(_ROUTE, "helper", None)
    design = None if helper is None else helper.design(space, settings, seed)
    if design is None:
        design = bted_select(space, seed=seed, **settings)
    return design


@contextmanager
def designs_in(helper: Optional["DesignHelper"]) -> Iterator[None]:
    """Route the calling thread's :func:`initial_design` calls to
    ``helper`` for the block (``None`` keeps them in process)."""
    _ROUTE.helper = helper
    try:
        yield
    finally:
        _ROUTE.helper = None


class DesignHelper:
    """A helper process that computes BTED designs for one compile.

    Started with :mod:`subprocess` as ``python -m
    repro.core.bted_helper`` (not :mod:`multiprocessing`, whose spawn
    and forkserver re-run a caller's unguarded ``__main__``, and never
    by fork, which is unsafe once the compile's threads run), with this
    package's root on ``PYTHONPATH``, so it imports the same ``repro``
    as this process even when the caller put it on ``sys.path`` alone,
    and with one BLAS thread.  It reads pickled ``(space, settings,
    seed)`` requests on its stdin and answers each with the design or
    the exception :func:`bted_select` raised, which :meth:`design`
    raises here.  It exits when :meth:`close` kills it or its stdin
    closes, so it dies with a killed compile too.

    Its start-up, an import of this package, is never waited for:
    until the helper has written :data:`READY`, :meth:`design` answers
    ``None`` and the caller computes the design itself, so a compile
    whose first tasks are shorter than the start-up does not wait for
    it (though it shares the CPUs with it).  When it cannot start, or
    dies, a warning is logged and :meth:`design` answers ``None`` from
    then on.  One caller at a time.
    """

    def __init__(self):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(_PACKAGE_ROOT), env.get("PYTHONPATH")))
        )
        try:
            self._proc: Optional[subprocess.Popen] = subprocess.Popen(
                [sys.executable, "-m", "repro.core.bted_helper"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                cwd=str(_PACKAGE_ROOT), env=env,
            )
        except OSError:
            logger.warning(
                "could not start the BTED design helper; computing "
                "designs in process", exc_info=True,
            )
            self._proc = None
        self._ready = False

    @staticmethod
    def pays() -> bool:
        """True when a helper beside this process can save time: it may
        run on more than one CPU and is not a :mod:`multiprocessing`
        worker, whose sibling workers take the other CPUs."""
        if multiprocessing.parent_process() is not None:
            return False
        try:
            return len(os.sched_getaffinity(0)) > 1
        except AttributeError:  # no affinity API on this platform
            return (os.cpu_count() or 1) > 1

    def design(
        self, space: ConfigSpace, settings: dict, seed: SeedLike
    ) -> Optional[List[int]]:
        """``bted_select(space, seed=seed, **settings)``, computed in the
        helper; ``None`` when there is no live helper to ask or it is
        still starting."""
        proc = self._proc
        if proc is None:
            return None
        try:
            if not self._ready:
                if not select.select([proc.stdout], [], [], 0)[0]:
                    return None  # still starting
                if proc.stdout.read(1) != READY:
                    raise EOFError("the helper exited while starting")
                self._ready = True
            pickle.dump(
                (space, settings, seed), proc.stdin,
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            proc.stdin.flush()
            ok, value = pickle.load(proc.stdout)
        except Exception:  # noqa: BLE001 - the caller recomputes it
            # a dead helper, or a request or reply that does not
            # pickle: computing in process gives the same design, or
            # raises the same error
            logger.warning(
                "the BTED design helper (pid %d) failed; computing designs "
                "in process", proc.pid, exc_info=True,
            )
            self.close()
            return None
        if not ok:
            raise value
        return value

    def close(self) -> None:
        """Stop the helper, close its pipes and reap it (idempotent)."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        proc.kill()
        try:
            proc.stdin.close()
        except OSError:  # a request the dead helper never read
            pass
        proc.stdout.close()
        proc.wait()
