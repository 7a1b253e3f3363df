"""Worker models for the simulated crowd.

The paper's simulator (§6.1) characterises each crowd worker by three latent
parameters measured from MTurk traces: a mean labeling latency ``mu``, a
latency variance ``sigma**2``, and a mean accuracy ``lam``.  A worker's
latency on an assignment is drawn i.i.d. from ``N(mu, sigma**2)`` (truncated
below at a small positive floor), and the produced label is correct with
probability ``lam``.

This module provides :class:`WorkerProfile` (the latent parameters plus the
draw methods) and :class:`WorkerPopulation` (the global distribution ``W``
from which retainer pools and replacement workers are sampled, as in the pool
maintenance convergence model of §4.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

#: Minimum latency (seconds) a simulated worker can take on any assignment.
#: Live workers need a few seconds just to read a task and click, so the
#: truncation floor prevents the normal draw from producing nonsense.
MIN_TASK_LATENCY_SECONDS = 1.0

#: Minimum accuracy we allow a simulated worker to have.  Below 0.5 a binary
#: labeler is actively adversarial, which the paper's deployments screen out
#: with a qualification requirement (85% approval).
MIN_WORKER_ACCURACY = 0.5


@dataclass(frozen=True)
class WorkerProfile:
    """Latent parameters of a single simulated crowd worker.

    Attributes
    ----------
    worker_id:
        Unique identifier within a population.
    mean_latency:
        Mean per-assignment latency ``mu_i`` in seconds.
    latency_std:
        Standard deviation ``sigma_i`` of per-assignment latency in seconds.
    accuracy:
        Probability ``lambda_i`` that a produced label is correct.
    """

    worker_id: int
    mean_latency: float
    latency_std: float
    accuracy: float

    def __post_init__(self) -> None:
        if self.mean_latency <= 0:
            raise ValueError(f"mean_latency must be positive, got {self.mean_latency}")
        if self.latency_std < 0:
            raise ValueError(f"latency_std must be non-negative, got {self.latency_std}")
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValueError(f"accuracy must be in [0, 1], got {self.accuracy}")

    def draw_latency(self, rng: np.random.Generator, num_records: int = 1) -> float:
        """Sample the latency (seconds) for one assignment of this worker.

        ``num_records`` models task complexity ``Ng``: a HIT that groups
        several records takes proportionally longer, with per-record noise.

        The single-record case (the dominant one: Ng=1 is the paper's
        "simple" complexity and the default) avoids array allocation with a
        scalar draw; multi-record tasks use one vectorized call.  With
        numpy's current ziggurat sampler a ``size=n`` fill consumes the bit
        stream exactly like ``n`` scalar draws, so the two paths happen to
        agree draw for draw — but the sampler is rejection-based and numpy
        documents no such contract, so this is an implementation detail,
        not a guarantee.  The simulated platform therefore routes every
        latency/label draw through :class:`WorkerDrawBlock` (one sequential
        per-worker stream, so block and scalar consumption are identical by
        construction), and ``tests/test_draw_blocks.py`` pins the empirical
        scalar-vs-vectorized parity this method's fast path still leans on.
        """
        if num_records < 1:
            raise ValueError(f"num_records must be >= 1, got {num_records}")
        if num_records == 1:
            draw = float(rng.normal(self.mean_latency, self.latency_std))
            return draw if draw > MIN_TASK_LATENCY_SECONDS else MIN_TASK_LATENCY_SECONDS
        draws = rng.normal(self.mean_latency, self.latency_std, size=num_records)
        np.maximum(draws, MIN_TASK_LATENCY_SECONDS, out=draws)
        return float(draws.sum())

    def draw_label(
        self,
        rng: np.random.Generator,
        true_label: int,
        num_classes: int = 2,
    ) -> int:
        """Sample a label: the true label w.p. ``accuracy``, else a wrong one."""
        if num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {num_classes}")
        if rng.random() < self.accuracy:
            return int(true_label)
        return self._draw_wrong_label(rng, int(true_label), num_classes)

    def draw_labels(
        self,
        rng: np.random.Generator,
        true_labels: Sequence[int],
        num_classes: int = 2,
    ) -> list[int]:
        """Sample one label per record of a task (the per-assignment batch).

        Equivalent to calling :meth:`draw_label` per record — same draws in
        the same order — without the per-call method dispatch; the platform
        uses this for every completed assignment.
        """
        if num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {num_classes}")
        accuracy = self.accuracy
        random = rng.random
        labels: list[int] = []
        for true_label in true_labels:
            true_label = int(true_label)
            if random() < accuracy:
                labels.append(true_label)
            else:
                labels.append(self._draw_wrong_label(rng, true_label, num_classes))
        return labels

    @staticmethod
    def _draw_wrong_label(
        rng: np.random.Generator, true_label: int, num_classes: int
    ) -> int:
        """Uniform draw over the labels != ``true_label``.

        Index arithmetic replaces ``rng.choice`` over a materialised list;
        ``Generator.choice`` resolves a no-``p`` draw to one ``integers``
        call, so the stream consumption is identical.
        """
        if 0 <= true_label < num_classes:
            offset = int(rng.integers(num_classes - 1))
            return offset if offset < true_label else offset + 1
        # True label outside the class range: every class is "wrong", which
        # is what the original choice() over the filtered list produced.
        return int(rng.integers(num_classes))

    def with_id(self, worker_id: int) -> "WorkerProfile":
        """Return a copy of this profile under a different id."""
        return replace(self, worker_id=worker_id)


#: Default number of values pre-drawn per RNG-block refill.  Big enough to
#: amortise the per-call numpy dispatch overhead across a typical worker's
#: assignment count, small enough that a 100k-worker pool stays cheap.
DEFAULT_DRAW_BLOCK_SIZE = 64

#: Stream discriminators mixed into each worker's block seeds.  Latency
#: normals, label uniforms, and wrong-label integers are three independent
#: streams so a draw on one never shifts the others.
_LATENCY_STREAM = 0
_LABEL_STREAM = 1
_WRONG_LABEL_STREAM = 2

#: Shared zero-length seed block: every fresh :class:`WorkerDrawBlock`
#: starts exhausted and fills on first draw.
_EMPTY_BLOCK = np.empty(0, dtype=float)


class WorkerDrawBlock:
    """Pre-drawn RNG blocks for one seated worker: the single source of draws.

    Instead of paying one ``Generator.normal``/``Generator.random`` call per
    assignment, the platform pre-draws each worker's randomness in vectorized
    chunks and consumes it sequentially.  Three independent generators are
    seeded ``[seed, worker_id, stream]``:

    * latency standard normals (``draw_latency`` scales by ``mu``/``sigma``);
    * label-accuracy uniforms (``draw_labels`` compares against ``lambda``);
    * wrong-label integers (the rare miss path, drawn scalar on demand).

    Because each stream belongs to one worker and is consumed strictly in
    order, the values a worker sees depend only on ``(seed, worker_id,
    draw index)`` — never on the block size, on how draws batch into refills,
    or on how other workers' events interleave.  The block-boundary and
    scalar-vs-vectorized parity pins live in
    ``tests/test_draw_blocks.py`` and ``tests/test_state_equivalence.py``.

    A block must never be shared between two distinct workers: the stream is
    keyed by ``worker_id``, and populations hand out fresh ids even when the
    same trace profile is re-recruited.
    """

    __slots__ = (
        "profile",
        "_block_size",
        "_latency_rng",
        "_latency_block",
        "_latency_pos",
        "_label_rng",
        "_label_block",
        "_label_pos",
        "_wrong_rng",
    )

    def __init__(
        self,
        profile: WorkerProfile,
        seed: int,
        block_size: int = DEFAULT_DRAW_BLOCK_SIZE,
    ) -> None:
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        self.profile = profile
        self._block_size = int(block_size)
        worker_id = profile.worker_id
        self._latency_rng = np.random.default_rng([seed, worker_id, _LATENCY_STREAM])
        self._label_rng = np.random.default_rng([seed, worker_id, _LABEL_STREAM])
        self._wrong_rng = np.random.default_rng([seed, worker_id, _WRONG_LABEL_STREAM])
        # Blocks are filled lazily on first use so seating a worker who never
        # draws (reserve churn, tail-of-run recruits) costs no vector fill.
        self._latency_block = _EMPTY_BLOCK
        self._latency_pos = 0
        self._label_block = _EMPTY_BLOCK
        self._label_pos = 0

    def _take_normals(self, count: int) -> np.ndarray:
        """The next ``count`` standard normals, refilling across boundaries.

        Consumption is strictly sequential: a request that straddles a block
        boundary drains the current block, pulls whole blocks as needed, and
        leaves the final partial block positioned mid-way — so the returned
        values are exactly the ones ``count`` scalar draws would have seen.
        """
        block = self._latency_block
        position = self._latency_pos
        end = position + count
        if end <= len(block):
            self._latency_pos = end
            return block[position:end]
        parts = [block[position:]]
        needed = count - (len(block) - position)
        while needed > self._block_size:
            parts.append(self._latency_rng.standard_normal(self._block_size))
            needed -= self._block_size
        block = self._latency_rng.standard_normal(self._block_size)
        self._latency_block = block
        self._latency_pos = needed
        parts.append(block[:needed])
        return np.concatenate(parts)

    def draw_latency(self, num_records: int = 1) -> float:
        """Block-fed equivalent of :meth:`WorkerProfile.draw_latency`.

        Same distribution, same truncation floor, same multi-record sum —
        but the normals come from this worker's pre-drawn block instead of a
        shared per-platform generator.
        """
        if num_records < 1:
            raise ValueError(f"num_records must be >= 1, got {num_records}")
        profile = self.profile
        if num_records == 1:
            block = self._latency_block
            position = self._latency_pos
            if position >= len(block):
                block = self._latency_rng.standard_normal(self._block_size)
                self._latency_block = block
                position = 0
            self._latency_pos = position + 1
            draw = float(
                profile.mean_latency + profile.latency_std * block[position]
            )
            return draw if draw > MIN_TASK_LATENCY_SECONDS else MIN_TASK_LATENCY_SECONDS
        draws = profile.mean_latency + profile.latency_std * self._take_normals(
            num_records
        )
        np.maximum(draws, MIN_TASK_LATENCY_SECONDS, out=draws)
        return float(draws.sum())

    def draw_labels(
        self, true_labels: Sequence[int], num_classes: int = 2
    ) -> list[int]:
        """Block-fed equivalent of :meth:`WorkerProfile.draw_labels`."""
        if num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {num_classes}")
        accuracy = self.profile.accuracy
        wrong_rng = self._wrong_rng
        labels: list[int] = []
        block = self._label_block
        position = self._label_pos
        for true_label in true_labels:
            if position >= len(block):
                block = self._label_rng.random(self._block_size)
                self._label_block = block
                position = 0
            uniform = block[position]
            position += 1
            true_label = int(true_label)
            if uniform < accuracy:
                labels.append(true_label)
            else:
                labels.append(
                    WorkerProfile._draw_wrong_label(wrong_rng, true_label, num_classes)
                )
        self._label_pos = position
        return labels


@dataclass(frozen=True)
class PopulationParameters:
    """Parameters of the global worker-latency distribution ``W``.

    Mean worker latencies are drawn from a log-normal distribution, which
    matches the heavy-tailed spread observed in the medical deployment
    (Figure 2: per-worker means range from tens of seconds to hours).
    Per-worker latency standard deviations are drawn proportional to the mean
    with log-normal noise, and accuracies from a Beta distribution.
    """

    #: Log-space mean of per-worker mean latency.  exp(3.9) ~ 49 s/record.
    log_mean_latency: float = 3.9
    #: Log-space standard deviation of per-worker mean latency.
    log_std_latency: float = 0.85
    #: Multiplier relating a worker's latency std to their mean.
    relative_std: float = 0.45
    #: Log-space noise on the relative std.
    relative_std_noise: float = 0.35
    #: Beta distribution parameters for worker accuracy.
    accuracy_alpha: float = 18.0
    accuracy_beta: float = 2.0

    def __post_init__(self) -> None:
        if self.log_std_latency <= 0:
            raise ValueError("log_std_latency must be positive")
        if self.relative_std <= 0:
            raise ValueError("relative_std must be positive")
        if self.accuracy_alpha <= 0 or self.accuracy_beta <= 0:
            raise ValueError("accuracy Beta parameters must be positive")


class WorkerPopulation:
    """The global distribution ``W`` of crowd workers.

    A population either wraps an explicit list of profiles (e.g. fitted from a
    trace) or generates workers on demand from :class:`PopulationParameters`.
    Pool recruitment and pool-maintenance replacement both sample uniformly at
    random from the population, matching the model in §4.2.
    """

    def __init__(
        self,
        profiles: Optional[Sequence[WorkerProfile]] = None,
        parameters: Optional[PopulationParameters] = None,
        seed: int = 0,
    ) -> None:
        if profiles is None and parameters is None:
            parameters = PopulationParameters()
        self._profiles: list[WorkerProfile] = list(profiles) if profiles else []
        self._parameters = parameters
        self._rng = np.random.default_rng(seed)
        self._next_id = (
            max((p.worker_id for p in self._profiles), default=-1) + 1
        )

    @property
    def parameters(self) -> Optional[PopulationParameters]:
        return self._parameters

    @property
    def profiles(self) -> list[WorkerProfile]:
        """Profiles explicitly known to this population (trace workers)."""
        return list(self._profiles)

    def __len__(self) -> int:
        return len(self._profiles)

    def __iter__(self) -> Iterator[WorkerProfile]:
        return iter(self._profiles)

    def sample_worker(self) -> WorkerProfile:
        """Draw one worker uniformly from the population.

        If the population has explicit profiles, one is chosen uniformly at
        random (with a fresh id so the same trace worker can be "re-recruited"
        as a distinct pool member).  Otherwise a new profile is synthesised
        from the population parameters.
        """
        if self._profiles:
            template = self._profiles[int(self._rng.integers(len(self._profiles)))]
            worker = template.with_id(self._next_id)
        else:
            worker = self._generate_profile(self._next_id)
        self._next_id += 1
        return worker

    def sample_workers(self, count: int) -> list[WorkerProfile]:
        """Draw ``count`` workers i.i.d. from the population."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        return [self.sample_worker() for _ in range(count)]

    def mean_latency(self) -> float:
        """Population mean of per-worker mean latency (``Gamma`` in §4.2).

        For explicit populations this is the empirical mean; for parametric
        ones it is the log-normal analytic mean.
        """
        if self._profiles:
            return float(np.mean([p.mean_latency for p in self._profiles]))
        params = self._parameters
        assert params is not None
        return float(
            np.exp(params.log_mean_latency + 0.5 * params.log_std_latency**2)
        )

    def split_by_threshold(self, threshold: float) -> tuple[float, float, float]:
        """Split the population at ``threshold`` seconds of mean latency.

        Returns ``(q, mu_fast, mu_slow)`` where ``q`` is the probability mass
        of workers slower than the threshold, and ``mu_fast`` / ``mu_slow``
        are the conditional means below / above it.  These are the quantities
        in the pool-maintenance convergence model
        ``E[mu] = (1 - q**(n+1)) * mu_f + q**(n+1) * mu_s``.

        For parametric populations a large Monte-Carlo sample is used.
        """
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        if self._profiles:
            means = np.array([p.mean_latency for p in self._profiles])
        else:
            means = np.array(
                [self._generate_profile(i).mean_latency for i in range(20_000)]
            )
        slow = means > threshold
        q = float(slow.mean())
        mu_fast = float(means[~slow].mean()) if (~slow).any() else float(threshold)
        mu_slow = float(means[slow].mean()) if slow.any() else float(threshold)
        return q, mu_fast, mu_slow

    def _generate_profile(self, worker_id: int) -> WorkerProfile:
        params = self._parameters
        assert params is not None, "parametric generation requires parameters"
        mean_latency = float(
            self._rng.lognormal(params.log_mean_latency, params.log_std_latency)
        )
        rel = params.relative_std * float(
            self._rng.lognormal(0.0, params.relative_std_noise)
        )
        latency_std = max(0.5, mean_latency * rel)
        accuracy = float(
            np.clip(
                self._rng.beta(params.accuracy_alpha, params.accuracy_beta),
                MIN_WORKER_ACCURACY,
                1.0,
            )
        )
        return WorkerProfile(
            worker_id=worker_id,
            mean_latency=mean_latency,
            latency_std=latency_std,
            accuracy=accuracy,
        )


def population_from_profiles(
    profiles: Iterable[WorkerProfile], seed: int = 0
) -> WorkerPopulation:
    """Build a :class:`WorkerPopulation` from explicit profiles."""
    return WorkerPopulation(profiles=list(profiles), seed=seed)


@dataclass
class WorkerObservations:
    """Empirical observations about one pool worker, used by maintenance.

    Pool maintenance (§4.2) flags a worker for removal when the worker's
    *observed* mean latency is significantly above the threshold ``PM_ell``.
    Straggler mitigation censors observations (terminated assignments do not
    reveal their true latency), so completed and terminated counts are kept
    separately; TermEst (§4.3) uses them to correct the estimate.
    """

    worker_id: int
    completed_latencies: list[float] = field(default_factory=list)
    terminated_count: int = 0
    #: Mean latency of the workers whose completions caused this worker's
    #: assignments to terminate (the ``l_f`` quantity in TermEst).
    terminator_latencies: list[float] = field(default_factory=list)

    @property
    def completed_count(self) -> int:
        return len(self.completed_latencies)

    @property
    def started_count(self) -> int:
        return self.completed_count + self.terminated_count

    def record_completion(self, latency: float) -> None:
        if latency < 0:
            raise ValueError(f"latency must be non-negative, got {latency}")
        self.completed_latencies.append(float(latency))

    def record_termination(self, terminator_latency: Optional[float] = None) -> None:
        self.terminated_count += 1
        if terminator_latency is not None:
            self.terminator_latencies.append(float(terminator_latency))

    def empirical_mean_latency(self) -> Optional[float]:
        """Mean of completed-assignment latencies; ``None`` if no completions."""
        if not self.completed_latencies:
            return None
        return float(np.mean(self.completed_latencies))

    def empirical_std_latency(self) -> Optional[float]:
        """Sample std of completed latencies; ``None`` below two observations.

        Delegates to :func:`repro.analysis.stats.empirical_std` so the
        <2-observations sentinel cannot drift from the zero-variance
        fallback inside ``one_sided_mean_test`` (they disagreed before the
        helper existed).
        """
        # Imported lazily: ``repro.analysis`` imports ``repro.crowd.traces``
        # at package load, so a module-level import here would be a cycle.
        from ..analysis.stats import empirical_std

        return empirical_std(self.completed_latencies)
