"""Monte Carlo estimation of the misidentification probability.

Plain simulation covers every policy; the replications of an adaptive
policy advance together, one round at a time.  Static schedules
additionally get an exponentially tilted importance sampler that draws
both success counts from the inner minimizer of the rate objective and
reweights by exact likelihood ratios, which keeps the relative error
workable at budgets where the plain estimator sees no error events.

Randomness contract: the stream of replication ``i`` is the splitmix64
sequence whose initial state is ``mix64(mix64(seed) XOR i)``, where
``mix64`` is the splitmix64 finalizer (the seed is mixed first so that
nearby seeds produce unrelated replication sets); draw ``k`` of the
stream is ``mix64(state + (k+1) * GAMMA)`` mapped to [0, 1) through the
top 53 bits; round ``t`` of an adaptive replay reads draw ``2t`` for the
action and ``2t+1`` for the reward.  Streams therefore depend only on
``(seed, i, k)``, never on execution order, and estimates are
bit-reproducible.  Seeds lie in [0, 2**64), so each seed has its own streams.

Replications run in fixed blocks of 2**16, in index order, and the
results do not depend on the block size.  A plain replication's error
mass is 0, 1/2 or 1, so the running total of the block sums is exact and
equals numpy's pairwise sum over all replications; plain estimates keep
no per-replication array.  The tilted estimator writes every block into
one array of weighted values and takes ``np.mean``/``np.var`` over it.

Static schedules draw each success count by inverse CDF: for the 53-bit
draw ``b`` (uniform ``b * 2**-53``), the smallest k with
``cdf[k] >= b * 2**-53``.  Multiplying by a power of two is exact, so this
is the smallest k whose integer threshold ``floor(cdf[k] * 2**53)`` is at
least ``b``.  A guide table over the top 12 bits of ``b`` (indexed search,
Chen & Asau 1974) finds that k with integer compares only and returns
exactly what ``searchsorted`` on the floats returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# scipy.stats.binom.cdf calls this same Boost ufunc (tests/test_mc.py pins the
# two together); importing it from scipy.special keeps scipy.stats, about 1 s
# of start-up, off the import path.
from scipy.special._ufuncs import _binom_cdf as _boost_binom_cdf

from .errors import ArgumentError, DomainError
from .exact import static_counts
# plugin_action_prob is unused here; it stays a module attribute for benchmark tracing
from .policies import (PolicySpec, check_budget, pick2_mass, plugin_action_prob,  # noqa: F401
                       plugin_actions)
from .rates import BanditInstance, lambda_star

__all__ = ["Estimate", "simulate_plain", "simulate_tilted_static"]

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U53 = 2.0**-53
_BLOCK = 1 << 16
_BUCKET_BITS = 12  # guide table of 2**12 buckets over the 53-bit draws
_BUCKET_SHIFT = 53 - _BUCKET_BITS


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo mean with its standard error and seed provenance."""

    mean: float
    std_err: float
    n_samples: int
    seed: int
    method: str


def _mix64(z: int) -> int:
    """splitmix64 finalizer on 64-bit integers."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _mix64_np(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on a uint64 array, in place; returns ``z``."""
    tmp = np.empty_like(z)
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, np.uint64(shift), out=tmp)
        z ^= tmp
        z *= np.uint64(mult)
    np.right_shift(z, np.uint64(31), out=tmp)
    z ^= tmp
    return z


def _blocks(n: int):
    """Slices of replications 0 .. n-1, ``_BLOCK`` at a time, in index order."""
    for start in range(0, n, _BLOCK):
        yield slice(start, min(start + _BLOCK, n))


def _stream_states(seed: int, reps: np.ndarray) -> np.ndarray:
    """Initial state ``mix64(mix64(seed) XOR i)`` of every stream ``i`` in ``reps``."""
    return _mix64_np(reps ^ np.uint64(_mix64(seed)))


def _draw_bits(states: np.ndarray, draw_index: int) -> np.ndarray:
    """Draw ``draw_index`` of every stream as its top 53 bits ``b`` (int64); the
    uniform is ``b * 2**-53``."""
    out = _mix64_np(states + np.uint64(((draw_index + 1) * _GAMMA) & _MASK64))
    out >>= np.uint64(11)
    return out.view(np.int64)


def _uniforms(states: np.ndarray, draw_index: int) -> np.ndarray:
    """Draw ``draw_index`` of every stream, as uniforms in [0, 1)."""
    return _draw_bits(states, draw_index).astype(np.float64) * _U53


def _binom_cdf(n: int, p: float) -> np.ndarray:
    """P[Binomial(n, p) <= k] for k = 0 .. n, as ``scipy.stats.binom.cdf`` gives it."""
    cdf = np.empty(n + 1)
    cdf[:n] = np.clip(_boost_binom_cdf(np.arange(n, dtype=np.float64), n, p), 0.0, 1.0)
    cdf[n] = 1.0  # exact at k = n; also guards the searchsorted upper end
    return cdf


def _inverse_cdf_sampler(cdf: np.ndarray):
    """Guide-table sampler for the nondecreasing ``cdf``: maps 53-bit draws ``b`` to
    the smallest k with ``cdf[k] >= b * 2**-53``, i.e. ``np.searchsorted(cdf, b * 2**-53)``.

    ``cdf[k] * 2**53`` is exact, so ``cdf[k] >= b * 2**-53`` iff ``thr[k] >= b`` for
    the integer threshold ``thr[k] = floor(cdf[k] * 2**53)``.  Bucket ``j`` of the
    guide table holds the draws with ``b >> 41 == j``.  Where at most one threshold
    lies inside a bucket, a draw's answer is the bucket's first candidate, plus one
    if the draw is above that candidate's threshold.  Draws in buckets that hold
    more thresholds fall back to ``searchsorted``.
    """
    thr = np.floor(cdf * 2.0**53).astype(np.int64)
    lo = np.arange(1 << _BUCKET_BITS, dtype=np.int64) << _BUCKET_SHIFT
    first = np.searchsorted(thr, lo)
    step = thr[first]
    crowded = np.searchsorted(thr, lo + ((1 << _BUCKET_SHIFT) - 1)) - first > 1
    first[crowded] = -1  # sends the draws of crowded buckets to searchsorted

    def sample(bits: np.ndarray) -> np.ndarray:
        bucket = bits >> _BUCKET_SHIFT
        k = first[bucket]
        spill = np.flatnonzero(k < 0)
        k += bits > step[bucket]
        if spill.size:
            k[spill] = np.searchsorted(thr, bits[spill])
        return k

    return sample


def _static_sampler(seed: int, n1: int, p1: float, n2: int, p2: float):
    """Function of a block of replications giving their success counts ``(s1, s2)``
    of ``n1`` pulls at ``p1`` and ``n2`` at ``p2``: draw 0 of a stream gives ``s1``,
    draw 1 gives ``s2``."""
    sample1 = _inverse_cdf_sampler(_binom_cdf(n1, p1))
    sample2 = _inverse_cdf_sampler(_binom_cdf(n2, p2))

    def successes(block: slice) -> tuple[np.ndarray, np.ndarray]:
        states = _stream_states(seed, np.arange(block.start, block.stop, dtype=np.uint64))
        return sample1(_draw_bits(states, 0)), sample2(_draw_bits(states, 1))

    return successes


def _check_args(inst: BanditInstance, T: int, n: int, seed: int) -> tuple[int, int, int]:
    if not inst.is_separated:
        raise DomainError("simulation needs distinct means to define an error")
    T = check_budget(T)
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ArgumentError(f"replication count must be a positive integer, got {n!r}")
    # mix64 reads the seed modulo 2**64, so a seed outside would alias one inside
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
        raise ArgumentError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return T, int(n), int(seed)


def simulate_plain(
    policy: PolicySpec, inst: BanditInstance, T: int, n: int, seed: int
) -> Estimate:
    """Plain Monte Carlo estimate of the error probability.

    Each replication assigns the conditional error mass of its terminal
    counts (1 for a wrong pick, 1/2 for an exact tie), matching the
    fair-tie decision rule of the exact engine in expectation.  The
    standard error is the binomial ``sqrt(p(1-p)/n)``.  Replications run
    block by block and only the running total is kept, so memory does not
    grow with ``n``.
    """
    T, n, seed = _check_args(inst, T, n, seed)
    if policy.deterministic_schedule:
        # counts are schedule-determined; two binomial draws per stream
        n1, n2 = static_counts(policy.schedule_fraction(), T, policy.description)
        successes = _static_sampler(seed, n1, inst.mu1, n2, inst.mu2)

        def block_pick2(block: slice) -> np.ndarray:
            s1, s2 = successes(block)
            return pick2_mass(s1, n1, s2, n2)
    else:
        def block_pick2(block: slice) -> np.ndarray:
            reps = np.arange(block.start, block.stop, dtype=np.uint64)
            return _replay_adaptive(policy, inst, T, seed, reps)
    # masses lie in {0, 1/2, 1}, so every partial sum below 2**53 is exact and
    # the total divided by n is np.mean over all replications, bit for bit
    pick2 = sum(float(np.sum(block_pick2(block))) for block in _blocks(n))
    mean = (pick2 if inst.best_arm == 1 else n - pick2) / n
    std_err = math.sqrt(mean * (1.0 - mean) / n)
    return Estimate(mean=mean, std_err=std_err, n_samples=n, seed=seed, method="plain")


def _replay_adaptive(
    policy: PolicySpec, inst: BanditInstance, T: int, seed: int, reps: np.ndarray
) -> np.ndarray:
    """Arm-2 decision mass of every adaptive replication in ``reps``, advanced together."""
    states = _stream_states(seed, reps)
    n1, s1, s2 = np.zeros((3, reps.size), dtype=np.int64)
    for t in range(T):
        p1 = plugin_actions(t, n1, s1, s2, policy.force_rate)
        pull1 = _uniforms(states, 2 * t) < p1
        success = _uniforms(states, 2 * t + 1) < np.where(pull1, inst.mu1, inst.mu2)
        n1 += pull1
        s1 += pull1 & success
        s2 += ~pull1 & success
    return pick2_mass(s1, n1, s2, T - n1)


def simulate_tilted_static(
    x: float, inst: BanditInstance, T: int, n: int, seed: int
) -> Estimate:
    """Importance-sampling estimate of the static(x) error probability.

    Both success counts are drawn with success probability equal to the
    inner minimizer of the rate objective, the natural tilt for the error
    event; each replication is weighted by the exact likelihood ratio,
    assembled in the log domain.  The standard error comes from the
    sample variance of the weighted indicators, and estimates are
    reported raw (noise can push them above 1).  The weighted values of
    all replications are held at once, 8 bytes each, for the variance.
    """
    T, n, seed = _check_args(inst, T, n, seed)
    n1, n2 = static_counts(x, T, f"static:{x}")
    lam = lambda_star(x, inst)
    m1, m2 = inst.mu1, inst.mu2
    hit1, miss1 = math.log(m1 / lam), math.log((1.0 - m1) / (1.0 - lam))
    hit2, miss2 = math.log(m2 / lam), math.log((1.0 - m2) / (1.0 - lam))
    successes = _static_sampler(seed, n1, lam, n2, lam)
    values = np.empty(n)
    for block in _blocks(n):
        s1, s2 = successes(block)
        log_w = s1 * hit1 + (n1 - s1) * miss1
        log_w += s2 * hit2 + (n2 - s2) * miss2
        pick2 = pick2_mass(s1, n1, s2, n2)
        values[block] = np.exp(log_w) * (pick2 if inst.best_arm == 1 else 1.0 - pick2)
    mean = float(np.mean(values))
    if n > 1:
        std_err = math.sqrt(float(np.var(values, ddof=1)) / n)
    else:
        std_err = 0.0
    return Estimate(mean=mean, std_err=std_err, n_samples=n, seed=seed, method="tilted")
