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

Replications run in fixed blocks, in index order, from one block source for
every policy: it yields each block's terminal counts ``(n1, s1, s2)`` at the
success probabilities it is given (the means, or the tilt), with one spare row
of scratch.  A fixed schedule's blocks hold 2**15 replications (``_BLOCK``),
the tracking replay's 2**16 (``_GROUP``).  The source's buffers are allocated
once per call, so memory does not grow with ``n``: the stream states, flags
and counts are as long as the first block, ``min(n, 2**15)`` or
``min(n, 2**16)``, and the splitmix64 mixes, the inverse-CDF sampler and the
fair-tie masses work in place.  A fixed schedule's block lives in five rows of
the source: the replication indices, the stream states, one row of draw bits,
one of scratch and ``s1``.  Draw 0 is formed in the draw row and sampled into
``s1``; draw 1 is then formed over the states, which are spent, and sampled
into the spent draw row, which holds ``s2``.  The sampler's bucket indices
take the scratch row, which is then the spare row.  The tracking replay of a
block of ``m`` replications forms its draws by chunk of
``R = min(T, 2**16 // m)`` rounds: draws ``2t0 .. 2t0+2R-1`` of every stream
in one ``(2R, m)`` pass, whose rows ``2(t-t0)`` and ``2(t-t0)+1`` round ``t``
then reads.  Since ``R * m <= 2**16``, its two buffers (the draw bits, and the
scratch that then holds the uniforms) take at most ``2 * 2**16`` words each,
whatever ``n`` and ``T``; the first block sizes them and every later, shorter
block fits.
A plain replication's error mass is 0, 1/2 or 1, so each block adds its
wins plus half its ties exactly, and the running total equals numpy's
pairwise sum over all replications: plain estimates do not depend on the
block size.  A plain call writes each block's masses over its ``s1`` row and
holds nothing but the source's buffers.
The tilted estimator reads each replication's log weight from two per-count
tables, one entry per success count of each arm.  It sums in groups of 2**16
replications (``_GROUP``), each filled by whole blocks of the source, and
keeps three numbers per group: the sum of its weighted values, the sum of
their squared deviations from the group mean, and its length.  A tilted call
holds the source's buffers, the two tables and one group of weighted values:
the second lookup and the error masses go to the spare row.  The tables are
built after the source's first block, whose CDF builds set the call's peak.
The groups combine by the exact split of the sample variance (Chan, Golub &
LeVeque 1983); for ``n <= 2**16`` that is ``np.mean`` and ``np.var(ddof=1)``
over all replications, bit for bit, and above it the grouping of the sums can
move the last bits.

Static schedules draw each success count by inverse CDF: for the raw 64-bit
draw ``z``, whose top 53 bits ``b = z >> 11`` give the uniform ``b * 2**-53``,
the smallest k with ``cdf[k] >= b * 2**-53``.  The CDF is summed from the
exact engine's binomial log-pmf, one log-factorial table serving both arms;
no scipy is imported.  It differs from ``scipy.stats.binom.cdf`` (Boost's
incomplete beta) in the last bits, which moves a draw only when it lands
between the two integer thresholds: the draws stay those of that CDF on
every stream the tests check.  Multiplying by a power of two is exact, so
this is the smallest k whose integer threshold ``floor(cdf[k] * 2**53)`` is
at least ``b``.  A guide table of 2**14 buckets, indexed by the top 14 bits of
``z`` (indexed search, Chen & Asau 1974), finds that k.  All the draws of a
bucket that holds no threshold have one answer, read with one gather.  In a
bucket that holds one threshold, a draw above it takes the next count.
The draws of a bucket that holds two or more go to ``searchsorted`` on the
thresholds.  Every case compares integers only, so the sampler returns
exactly what ``searchsorted`` on the floats returns.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DomainError
from .exact import _binom_logpmf, _check_states, _log_factorials, _max_states, static_counts
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
# Replications per block of a fixed schedule.  Measured in process on the two
# fixed-schedule runs of the schedules workload (n = 2e6, 2 vCPUs): 2**15 runs
# as fast as 2**16 with half its buffers (peak RSS 32.9 against 34.7 MiB);
# 2**14 saves 0.9 MiB more but takes the tilted run about 8 % longer.
_BLOCK = 1 << 15
# The tilted estimator's summation group: it sums and centres its weighted
# values in groups of _GROUP replications, filled by whole blocks, and the
# grouping sets its bits.  Measured at n = 2**21 (oracle schedule, T = 1000):
# groups of 2**15 would cut the traced peak from 2.63 to 2.38 MiB but move the
# last bit of the mean.  The tracking replay runs blocks of _GROUP, and a block
# of m forms the draws of min(T, _GROUP // m) rounds in one pass.
_GROUP = 1 << 16
_BUCKET_BITS = 14  # guide table of 2**14 buckets over the raw 64-bit draws


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


def _mix64_np(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on a uint64 array, in place, with ``tmp`` (uint64, the
    shape of ``z``) as scratch; returns ``z``."""
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, np.uint64(shift), out=tmp)
        z ^= tmp
        z *= np.uint64(mult)
    np.right_shift(z, np.uint64(31), out=tmp)
    z ^= tmp
    return z


def _stream_states(seed: int, reps: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Initial state ``mix64(mix64(seed) XOR i)`` of every stream ``i`` in ``reps``,
    written to ``out``; ``tmp`` is scratch (all uint64 of one shape)."""
    np.bitwise_xor(reps, np.uint64(_mix64(seed)), out=out)
    return _mix64_np(out, tmp)


def _draw_bits(states: np.ndarray, first: int, bits: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Draws ``first .. first+k-1`` of every stream, row ``j`` of ``bits`` holding draw
    ``first + j`` as its raw 64-bit word ``z``; returns ``bits``.  The uniform is
    ``(z >> 11) * 2**-53``.  ``bits`` and ``tmp`` are uint64 of shape
    ``(k, states.size)``; ``tmp`` is scratch, free again on return.  ``bits`` may
    be ``states[None]``, which forms one draw over the states."""
    # the step offsets (k+1) * GAMMA mod 2**64, as a uint64 array product: arrays
    # wrap silently, where a numpy-scalar product would warn on the overflow
    steps = np.arange(first + 1, first + len(bits) + 1, dtype=np.uint64)
    steps *= np.uint64(_GAMMA)
    # states as a (1, m) row: numpy adds it in place when bits is states[None],
    # where a (m,) input overlapping a (1, m) output is first copied
    np.add(states[None], steps[:, None], out=bits)
    return _mix64_np(bits, tmp)


def _binom_cdf(lf: np.ndarray, n: int, p: float) -> np.ndarray:
    """P[Binomial(n, p) <= k] for k = 0 .. n, summed from the pmf
    ``exp(_binom_logpmf(lf, n, p))`` (``lf`` from :func:`_log_factorials`, ``n + 1``
    entries or more).

    Where the lower cumulative sum is at most 1/2 it is the CDF; above, the CDF
    is one minus the upper sum, so no value near 1 carries the rounding of a
    long sum.  The result is clipped to [0, 1], and ``cdf[n]`` is exactly 1,
    which also guards the sampler's upper end.  It keeps no routine's bits:
    ``scipy.stats.binom.cdf`` runs Boost's regularised incomplete beta, which no
    sum of pmf terms reproduces.  It is within 1e-12 of it up to n = 2001 and
    1e-10 at n = 1e5.  The sampler reads only the integer thresholds
    ``floor(cdf[k] * 2**53)``, and a threshold that moves by d units changes
    d draws in 2**53: summed over the table, 2.3e-12 of all draws at n = 900
    and 2.4e-11 at n = 2001 (p = 1/2).

    It works in place, in the log-pmf and the result: the pmf overwrites the
    log-pmf and then its lower sums overwrite it; the upper sums run backwards
    into the result, become one minus themselves there, and give way to the
    lower sums at most 1/2.  These are the operations, in the order, of forming
    each array anew, so the bits are theirs, and the scratch is one table.
    """
    pmf = _binom_logpmf(lf, n, p)
    np.exp(pmf, out=pmf)
    cdf = np.empty(n + 1)
    above = cdf[:n]  # above[k] = P[X > k] for k < n
    np.cumsum(pmf[:0:-1], out=above[::-1])
    below = np.cumsum(pmf, out=pmf)
    np.subtract(1.0, above, out=above)
    np.copyto(above, below[:n], where=below[:n] <= 0.5)
    np.clip(cdf, 0.0, 1.0, out=cdf)
    cdf[n] = 1.0
    return cdf


def _inverse_cdf_sampler(cdf: np.ndarray):
    """Guide-table sampler for the nondecreasing ``cdf`` (values in [0, 1]): maps raw
    64-bit draws ``z`` to the smallest k with ``cdf[k] >= b * 2**-53`` for ``b = z >> 11``,
    i.e. ``np.searchsorted(cdf, b * 2**-53)``.

    ``cdf[k] * 2**53`` is exact, so ``cdf[k] >= b * 2**-53`` iff ``thr[k] >= b`` for
    the integer threshold ``thr[k] = floor(cdf[k] * 2**53)``.  Bucket ``j`` of the
    guide table holds the draws with ``z >> 50 == j``, i.e. ``b >> 39 == j``; its
    first candidate is the smallest k with ``thr[k] >> 39 >= j``, counted from
    ``np.bincount(thr >> 39)``.  One int64 entry per bucket encodes its case:
    with no threshold inside, every draw's answer is the candidate itself, the
    entry; with one, the answer is the candidate, plus one if the draw is above
    its threshold, and the entry is the candidate's complement ``~k``; with more,
    the draw's answer is ``searchsorted`` on the thresholds, and the entry is
    ``~len(cdf)``.  Only the draws whose entry is negative are looked at again.

    The sampler ``sample(words, out, bucket, flags)`` writes the answers for the
    uint64 draws ``words`` to ``out`` (int64) and returns it; ``bucket`` (uint64)
    and ``flags`` (bool) are scratch of the same shape.  Bucket indices lie in
    [0, 2**14) by construction, so the lookups use ``mode="clip"``, which never
    clips them and skips the checked path's copy of the output.
    """
    thr = np.floor(cdf * 2.0**53).astype(np.int64)
    # thresholds per bucket; one of 2**53 falls in the bucket past the last, which
    # no draw reaches
    inside = np.bincount(thr >> (53 - _BUCKET_BITS), minlength=(1 << _BUCKET_BITS) + 1)
    inside = inside[:1 << _BUCKET_BITS]
    # each bucket's first candidate k, the count of thresholds below its first
    # draw; ~k where one threshold lies inside, ~len(thr) where more do
    table = np.cumsum(inside)
    table -= inside
    np.invert(table, out=table, where=inside > 0)
    crowded = thr.size  # decodes past the last count, so the draw goes to searchsorted
    table[inside > 1] = ~crowded
    shift = np.uint64(64 - _BUCKET_BITS)

    def sample(words: np.ndarray, out: np.ndarray, bucket: np.ndarray,
               flags: np.ndarray) -> np.ndarray:
        np.right_shift(words, shift, out=bucket)
        np.take(table, bucket.view(np.int64), out=out, mode="clip")
        spill = np.flatnonzero(np.less(out, 0, out=flags))
        if spill.size:  # buckets holding one threshold, or more
            k = ~out[spill]
            b = (words[spill] >> np.uint64(11)).view(np.int64)
            k += b > np.take(thr, k, mode="clip")
            crowd = np.flatnonzero(k >= crowded)
            if crowd.size:
                k[crowd] = np.searchsorted(thr, b[crowd])
            out[spill] = k
        return out

    return sample


def _count_blocks(policy: PolicySpec, T: int, seed: int, n: int, p1: float, p2: float):
    """Terminal counts ``(n1, s1, s2)`` of replications 0 .. n-1 at budget ``T``, arms
    succeeding with probabilities ``p1`` and ``p2``, block by block in index order,
    in blocks of ``min(n, _BLOCK)`` for a fixed schedule and ``min(n, _GROUP)`` for
    the replay, the last block possibly shorter; each comes with ``spare``, a
    float64 row of the block's length that the caller may use as scratch.

    A fixed schedule runs blocks of ``_BLOCK``, and its ``n1`` is its int arm-1
    count: draw 0 of a stream gives ``s1``, draw 1 gives ``s2``.  Its block takes
    five rows (see the module docstring): ``s2`` is a view of the draw row, and
    ``spare`` of the sampler's spent bucket row.  The log-factorial table is
    dropped once both CDFs are built.  Plug-in tracking advances a block of
    ``_GROUP`` replications together, one round at a time, and ``n1`` is an int64
    array; the draws of a chunk of rounds are formed in one pass (see the module
    docstring), and ``spare`` is the first row of the spent uniforms.  Every
    buffer is allocated once and each block runs in place.  The yielded arrays
    are views of those buffers: the caller may overwrite them, and the next block
    does.
    """
    fixed = policy.deterministic_schedule
    if fixed:
        n1 = static_counts(policy, T)[0]
        lf = _log_factorials(max(n1, T - n1))
        sample1 = _inverse_cdf_sampler(_binom_cdf(lf, n1, p1))
        sample2 = _inverse_cdf_sampler(_binom_cdf(lf, T - n1, p2))
        del lf  # only the CDF builds read it; the blocks need not hold it

    def draw_rows(m: int) -> int:
        """Draws formed in one pass over a block of ``m``: one for a fixed schedule,
        ``2R`` for a chunk of ``R = min(T, _GROUP // m)`` rounds of the replay."""
        return 1 if fixed else 2 * min(T, _GROUP // m)

    size = min(n, _BLOCK if fixed else _GROUP)
    reps, states = np.arange(size, dtype=np.uint64), np.empty(size, dtype=np.uint64)
    # the draw bits and their scratch; R * m <= _GROUP, so the first block's
    # buffers hold the chunk of every later, shorter block
    buffers = np.empty((2, draw_rows(size) * size), dtype=np.uint64)
    flags = np.empty(size, dtype=bool)
    # s1, or (n1, s1, s2); a fixed schedule's s2 takes the draw row
    counts = np.empty((1 if fixed else 3, size), dtype=np.int64)
    for start in range(0, n, size):
        m = min(size, n - start)
        if m < size:  # the last block is shorter
            reps, states, flags, counts = reps[:m], states[:m], flags[:m], counts[:, :m]
        rows = draw_rows(m)
        bits, tmp = (buffer[:rows * m].reshape(rows, m) for buffer in buffers)
        _stream_states(seed, reps, states, tmp[0])
        # tmp is free once a pass's bits are formed: the sampler's bucket
        # indices, or the replay's uniforms
        if fixed:
            (s1,), (bucket,), s2 = counts, tmp, bits[0].view(np.int64)
            sample1(_draw_bits(states, 0, bits, tmp)[0], s1, bucket, flags)
            # draw 1 overwrites the states, and arm 2 the spent draw 0
            sample2(_draw_bits(states, 1, states[None], tmp)[0], s2, bucket, flags)
        else:
            counts.fill(0)
            n1, s1, s2 = counts
            rounds = rows // 2
            for t0 in range(0, T, rounds):
                r = min(rounds, T - t0)
                u = tmp[:2 * r].view(np.float64)
                words = _draw_bits(states, 2 * t0, bits[:2 * r], tmp[:2 * r])
                words >>= np.uint64(11)
                np.multiply(words.view(np.int64), _U53, out=u)
                # round t reads draw 2t for the action and draw 2t+1 for the reward
                for t, (u_action, u_reward) in enumerate(u.reshape(r, 2, m), t0):
                    action = plugin_actions(t, n1, s1, s2, policy.force_rate)
                    pull1 = np.less(u_action, action, out=flags)
                    success = u_reward < np.where(pull1, p1, p2)
                    n1 += pull1
                    s1 += pull1 & success
                    s2 += ~pull1 & success
        yield n1, s1, s2, tmp[0].view(np.float64)
        reps += np.uint64(size)


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
    standard error is the binomial ``sqrt(p(1-p)/n)``.  Fixed schedules and
    plug-in tracking read their terminal counts from the same block source
    at the instance's means; only each block's total mass is kept, so
    memory does not grow with ``n``.  The tracking replay runs ``T`` rounds
    per block, so a ``T`` over the state limit raises ``CapacityError``
    before any draw, as the DP does; fixed schedules have the log path's
    bound, their binomial tables.
    """
    T, n, seed = _check_args(inst, T, n, seed)
    if not policy.deterministic_schedule:
        _check_states(T, _max_states(), f"tracking replay needs T={T} rounds")
    # masses lie in {0, 1/2, 1}: a block adds its wins plus half its ties, every
    # partial sum below 2**53 is exact, and the total divided by n is np.mean over
    # all replications, bit for bit; the masses overwrite s1
    pick2 = 0.0
    for n1, s1, s2, _ in _count_blocks(policy, T, seed, n, inst.mu1, inst.mu2):
        pick2 += float(np.add.reduce(pick2_mass(s1, n1, s2, T - n1, out=s1.view(np.float64))))
    mean = (pick2 if inst.best_arm == 1 else n - pick2) / n
    std_err = math.sqrt(mean * (1.0 - mean) / n)
    return Estimate(mean=mean, std_err=std_err, n_samples=n, seed=seed, method="plain")


def _log_ratios(n: int, hit: float, miss: float) -> np.ndarray:
    """``k·hit + (n-k)·miss`` for ``k = 0 .. n``: the log-likelihood ratio of each
    success count of an arm pulled ``n`` times.  Its bits are those of
    ``k * hit + (n - k) * miss`` over an int64 ``k = np.arange(n + 1)``, since
    numpy casts ``k`` and ``n - k`` to float64 exactly (``n < 2**53``) before it
    multiplies; ``n - k`` is ``k`` reversed.  It holds the table and one
    temporary of ``n + 1`` floats."""
    k = np.arange(n + 1, dtype=np.float64)
    rest = k[::-1] * miss
    k *= hit
    k += rest
    return k


def simulate_tilted_static(
    policy: PolicySpec, inst: BanditInstance, T: int, n: int, seed: int
) -> Estimate:
    """Importance-sampling estimate of the error probability of a fixed schedule;
    an adaptive policy is refused before any other check.

    Both success counts are drawn with success probability ``lam``, the inner
    minimizer of the rate objective at the schedule's arm-2 fraction, the
    natural tilt for the error event; each replication is weighted by the
    exact likelihood ratio, assembled in the log domain.  The standard error
    comes from the sample variance of the weighted indicators, and estimates
    are reported raw (noise can push them above 1).  The log weight of a
    replication is ``w1[s1] + w2[s2]``, where ``w1[k] = k·log(m1/lam) +
    (n1-k)·log((1-m1)/(1-lam))`` is tabled once for ``k = 0 .. n1`` by
    :func:`_log_ratios`, and ``w2`` likewise: the same operations, in the same
    order, as forming it per replication.

    Memory does not grow with ``n``: the source's blocks of ``_BLOCK``
    replications fill groups of ``_GROUP`` weighted values ``v``, in index
    order, and group ``b`` of ``m_b`` values keeps only its sum ``sum_b`` and
    ``dev_b = Σ(v − sum_b/m_b)²``, both numpy's pairwise reductions over the
    group.  The groups combine exactly as the sample variance splits (Chan,
    Golub & LeVeque 1983): ``mean = Σ sum_b / n`` and ``M2 = Σ [dev_b +
    m_b·(sum_b/m_b − mean)²]``, each sum running in group order, and
    ``std_err = sqrt(M2/(n−1)/n)``.  For ``n <= 2**16`` this is ``np.mean`` and
    ``np.var(ddof=1)`` over all the values, bit for bit; above that the sums
    are grouped and may differ from them in the last bits.  The call holds
    the source's buffers, the two per-count tables and one group of values;
    the second lookup and the error mass take the spare row that the source
    yields with each block.  The tables are built once the source has built
    its CDFs for the first block, so they do not add to that peak: at
    ``T = 1e6`` (uniform, ``n = 1000``) the call's traced peak is that of
    :func:`simulate_plain`, 19.4 MiB.
    """
    if not policy.deterministic_schedule:
        raise ArgumentError(
            f"tilted estimation is only defined for fixed schedules, not {policy.description}")
    T, n, seed = _check_args(inst, T, n, seed)
    n1, n2 = static_counts(policy, T)
    lam = lambda_star(policy.schedule_fraction(), inst)
    m1, m2 = inst.mu1, inst.mu2
    hit1, miss1 = math.log(m1 / lam), math.log((1.0 - m1) / (1.0 - lam))
    hit2, miss2 = math.log(m2 / lam), math.log((1.0 - m2) / (1.0 - lam))
    blocks = _count_blocks(policy, T, seed, n, lam, lam)
    # the source builds its CDFs for the first block, the call's peak; the
    # per-count tables come after it
    first = next(blocks)
    w1, w2 = _log_ratios(n1, hit1, miss1), _log_ratios(n2, hit2, miss2)
    values = np.empty(min(n, _GROUP))
    total, groups, end = 0.0, [], 0
    for _, s1, s2, error in itertools.chain([first], blocks):
        m = s1.size  # replications end .. end+m-1, at the group's offset end % _GROUP
        v = values[end % _GROUP:][:m]
        end += m
        # success counts lie in [0, n1] and [0, n2], so the lookups skip the check
        np.take(w1, s1, out=v, mode="clip")
        v += np.take(w2, s2, out=error, mode="clip")
        np.exp(v, out=v)
        # the error mass; with arm 2 best it is the arm-1 pick, 1 - pick2 exactly
        if inst.best_arm == 1:
            pick2_mass(s1, n1, s2, n2, out=error)
        else:
            pick2_mass(s2, n2, s1, n1, out=error)
        v *= error
        if end % _GROUP and end < n:
            continue  # the group takes the next block too
        group = values[:(end - 1) % _GROUP + 1]
        group_sum = float(np.add.reduce(group))
        group -= group_sum / group.size
        group *= group
        groups.append((group_sum, float(np.add.reduce(group)), group.size))
        total += group_sum
    mean = total / n
    m2 = 0.0
    for group_sum, dev, m in groups:
        m2 += dev + m * (group_sum / m - mean) ** 2
    std_err = math.sqrt(m2 / (n - 1) / n) if n > 1 else 0.0
    return Estimate(mean=mean, std_err=std_err, n_samples=n, seed=seed, method="tilted")
