"""Equivalence layer: per-worker draw blocks are invisible to the simulation.

The simulated platform draws every latency/label value from per-worker
pre-drawn :class:`~repro.crowd.worker.WorkerDrawBlock` streams.  Blocks are
a prefetch window over per-worker sequential streams, so the block size
must never change what a run simulates: sizes 1, 3, 64, or 1024 —
including sizes that do not divide the number of draws, blocks exhausted
mid-run, and workers replaced mid-block by pool maintenance — must all
fingerprint identically to the default-block run.  A mismatch means a draw
was pulled from the wrong stream or a refill shifted it, and would silently
change every published benchmark number.

The platform has no block-size option; these tests set it by patching the
platform's ``WorkerDrawBlock`` constructor with a ``block_size`` partial.

The sweep classes carry the ``equivalence`` marker so CI can run the sweep
standalone: ``pytest -m equivalence``.
"""

import functools

import pytest

import repro.crowd.platform
from equivalence import labeling_config, run_fingerprint
from repro.crowd.worker import WorkerDrawBlock

#: Block sizes every sweep cell replays against the default-size reference:
#: one refill per draw, and a block that outlives most workers' draws.
SWEEP_BLOCK_SIZES = (1, 1024)


def run_with_block_size(monkeypatch, config, num_records, block_size):
    """:func:`run_fingerprint` with every worker stream refilled ``block_size``
    values at a time."""
    with monkeypatch.context() as patch:
        patch.setattr(
            repro.crowd.platform,
            "WorkerDrawBlock",
            functools.partial(WorkerDrawBlock, block_size=block_size),
        )
        return run_fingerprint(config, num_records)


def assert_block_size_invariant(
    monkeypatch, config, num_records=60, block_sizes=SWEEP_BLOCK_SIZES
):
    """Every block size must replay the default-block run exactly, probe
    counters included (same gate setting, so same dispatch decisions)."""
    reference = run_fingerprint(config, num_records)
    for block_size in block_sizes:
        run = run_with_block_size(monkeypatch, config, num_records, block_size)
        assert run == reference, (
            f"block size {block_size} diverged from the default block for "
            f"config {config.describe()!r}"
        )


@pytest.mark.equivalence
class TestStateSweep:
    """Seeds x pool sizes x batch configurations, block sizes vs the default."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("pool_size", [3, 9, 17])
    def test_plain_mitigation(self, monkeypatch, seed, pool_size):
        assert_block_size_invariant(
            monkeypatch, labeling_config(pool_size=pool_size, seed=seed)
        )

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("votes_required", [2, 3])
    def test_quality_control_redundancy(self, monkeypatch, seed, votes_required):
        assert_block_size_invariant(
            monkeypatch,
            labeling_config(pool_size=8, votes_required=votes_required, seed=seed),
            num_records=40,
        )

    @pytest.mark.parametrize("seed", [0, 4])
    def test_capped_mitigation(self, monkeypatch, seed):
        """Termination caps cancel completion events without eviction."""
        assert_block_size_invariant(
            monkeypatch,
            labeling_config(pool_size=8, max_extra_assignments=1, seed=seed),
        )

    @pytest.mark.parametrize("seed", [0, 4])
    def test_grouped_records_per_task(self, monkeypatch, seed):
        """Ng > 1 routes draws through the vectorized block take path."""
        assert_block_size_invariant(
            monkeypatch, labeling_config(pool_size=6, records_per_task=5, seed=seed)
        )

    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_maintenance_and_abandonment(self, monkeypatch, seed):
        """Workers depart mid-run (eviction + abandonment): their draw
        blocks are dropped mid-stream and replacements open fresh ones."""
        assert_block_size_invariant(
            monkeypatch,
            labeling_config(
                pool_size=10,
                maintenance_threshold=8.0,
                abandonment_rate=0.05,
                seed=seed,
            ),
        )


@pytest.mark.equivalence
class TestBlockBoundaries:
    """RNG-block boundary coverage: block size is a non-observable."""

    #: Sizes chosen to force every boundary shape: 1 refills on each draw,
    #: 3 never divides the multi-record takes below, 64 is the default,
    #: 1024 outlives most workers' draw counts entirely.
    BLOCK_SIZES = (1, 3, 64, 1024)

    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    def test_block_size_invariance(self, monkeypatch, block_size):
        """Every block size fingerprints identically to the default block."""
        config = labeling_config(pool_size=9, seed=2)
        run = run_with_block_size(monkeypatch, config, 60, block_size)
        assert run == run_fingerprint(config, 60)

    @pytest.mark.parametrize("block_size", [3, 7])
    def test_block_not_dividing_draw_count(self, monkeypatch, block_size):
        """Ng=5 with small odd blocks: every multi-record take straddles a
        refill boundary somewhere in the run."""
        config = labeling_config(pool_size=6, records_per_task=5, seed=4)
        run = run_with_block_size(monkeypatch, config, 60, block_size)
        assert run == run_fingerprint(config, 60)

    @pytest.mark.parametrize("block_size", [1, 2, 64])
    def test_profile_replaced_mid_block(self, monkeypatch, block_size):
        """Pool maintenance evicts workers with unconsumed block values;
        the replacement's fresh stream must not shift anyone else's."""
        config = labeling_config(
            pool_size=10,
            maintenance_threshold=8.0,
            abandonment_rate=0.05,
            seed=5,
        )
        run = run_with_block_size(monkeypatch, config, 60, block_size)
        assert run == run_fingerprint(config, 60)

    def test_exhausted_block_refill(self, monkeypatch):
        """A run long enough to exhaust a small block repeatedly: the
        refill path itself is stream-transparent."""
        config = labeling_config(pool_size=3, seed=1)
        run = run_with_block_size(monkeypatch, config, 120, 4)
        assert run == run_fingerprint(config, 120)

    def test_block_size_axis_inside_state_sweep(self, monkeypatch):
        """The sweep helper carries any list of block sizes."""
        assert_block_size_invariant(
            monkeypatch,
            labeling_config(pool_size=8, seed=3),
            block_sizes=(1, 2, 3, 1024),
        )
