"""Bandit feedback: observation streams, running estimators, confidence radii.

Observations are drawn from per-action streams keyed by (trial seed, action),
so the n-th draw for an action is a pure function of (trial seed, action, n)
and results do not depend on scheduling or on how many values are drawn per
call.  Each routed observation updates the running estimate of one loss
parameter; the deviation radius shrinks with that parameter's observation
count.

`FeedbackBlock` holds the counts and running estimates of a block of
seeds advanced in lockstep, as (S, K) arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

ESTIMATOR_MEAN = "mean"
ESTIMATOR_CENTERED_SQUARE = "centered_square"
ESTIMATOR_SAMPLE_VARIANCE = "sample_variance"

ESTIMATORS = (ESTIMATOR_MEAN, ESTIMATOR_CENTERED_SQUARE, ESTIMATOR_SAMPLE_VARIANCE)

# Key of the uniform policy's own stream: above every action index, so it
# never names an observation stream.
POLICY_STREAM_TAG = 1 << 31

# What an ObservationSampler's buffers may hold for a whole block, unless
# CHUNK-sized refills alone need more (see ObservationSampler).
BUFFER_BYTES = 1 << 20

_WORD = 0xFFFFFFFF
# numpy's SeedSequence: a 4-word pool, O'Neill's seed_seq hash constants
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def seeded_streams(seeds: Sequence[int], keys: Sequence[int]) -> np.ndarray:
    """The random stream of every (trial seed, key) pair, seed-major, as an
    object array of Generators: `key` is an action index for that action's
    observations, or POLICY_STREAM_TAG.

    Stream (seed, key) is `Generator(PCG64(SeedSequence((seed, key))))`.
    The PCG64 state words of all pairs are computed in one pass (see
    _state_words), so no SeedSequence is made.  Seeds must be in
    [0, 2**64), keys in [0, 2**32).
    """
    outside = [s for s in seeds if not 0 <= s < 1 << 64]
    if outside:
        raise ValueError(f"seeds must be in [0, 2**64), got {outside[0]}")
    # registered here, not at import: numpy.random loads only where streams are made
    np.random.bit_generator.ISeedSequence.register(_StateWords)
    words = _StateWords(_state_words(seeds, keys))
    generator, pcg64 = np.random.Generator, np.random.PCG64
    n = len(seeds) * len(keys)
    return np.fromiter((generator(pcg64(words)) for _ in range(n)), dtype=object, count=n)


class _StateWords:
    """An ISeedSequence whose n-th `generate_state` call returns row n of
    `rows`: each PCG64 made from it asks once, for its 4 uint64 words."""

    def __init__(self, rows: np.ndarray):
        self._rows = iter(rows)

    def generate_state(self, n_words, dtype=np.uint32):
        return next(self._rows)


def _hash(values: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hash of uint32 `values` under hash constant `const`,
    and the constant the next hash uses."""
    values = values ^ const
    const = const * mult & _WORD
    values *= const
    values ^= values >> 16
    return values, const


def _state_words(seeds: Sequence[int], keys: Sequence[int]) -> np.ndarray:
    """`SeedSequence((seed, key)).generate_state(4, np.uint64)` of every
    (seed, key) pair, seed-major, as a (pairs, 4) uint64 array.

    numpy's mix_entropy and generate_state on uint32 columns, one entry
    per pair: the entropy is the little-endian 32-bit words of the seed
    (one word below 2**32, 0 included) followed by the key's one word,
    zero-padded to the pool.
    """
    key = np.tile(np.array(keys, dtype=np.uint32), len(seeds))
    low = np.array([s & _WORD for s in seeds], dtype=np.uint32).repeat(len(keys))
    high = np.array([s >> 32 for s in seeds], dtype=np.uint32).repeat(len(keys))
    # 1 where the seed has two words, which puts the key third, not second
    two = np.array([s >> 32 != 0 for s in seeds], dtype=np.uint32).repeat(len(keys))
    entropy = (low, high + (1 - two) * key, two * key, np.zeros_like(key))
    pool = []
    const = _INIT_A
    for word in entropy:
        mixed, const = _hash(word, const, _MULT_A)
        pool.append(mixed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashed, const = _hash(pool[src], const, _MULT_A)
                mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashed
                mixed ^= mixed >> 16
                pool[dst] = mixed
    out = []
    const = _INIT_B
    for i in range(2 * _POOL_SIZE):
        word, const = _hash(pool[i % _POOL_SIZE], const, _MULT_B)
        out.append(word)
    # pairs of uint32 words read as little-endian uint64 words, as numpy does
    return np.stack(out, axis=1).view("<u8").astype(np.uint64, copy=False)


@dataclass(frozen=True)
class DeviationSpec:
    """Confidence radius (scale * log(t/delta_t) / n) ** exponent with
    delta_t = 1/t^2, the schedule the paper's bounds sum over.  The default
    radius is the `theorem1` preset of `harness.DEVIATION_PRESETS`.
    """

    scale: float = 4.0
    exponent: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.scale < math.inf:
            raise ValueError(f"deviation scale must be finite and nonnegative, got {self.scale}")
        if not 0.0 < self.exponent <= 0.5:
            raise ValueError(f"deviation exponent must be in (0, 1/2], got {self.exponent}")

    def delta_at(self, t: int) -> float:
        return 1.0 / (t * t)


def deviation_radii(spec: DeviationSpec, t: int, counts: np.ndarray) -> np.ndarray:
    """The radius (scale * log(t / delta_t) / n) ** exponent of `spec` at
    round t, with delta_t = spec.delta_at(t), for every count n of an array
    of positive counts.

    The log is taken once, with `math.log`, and the power with `math.sqrt`
    semantics (np.sqrt rounds correctly too); other exponents use Python's
    `**` per element, because `np.power` need not round as libm does.
    """
    x = spec.scale * math.log(t / spec.delta_at(t)) / counts
    if spec.exponent == 0.5:
        return np.sqrt(x)
    e = spec.exponent
    return np.array([v**e for v in x.ravel().tolist()]).reshape(x.shape)


def check_action_map(action_map: Sequence[int] | None, num_coeffs: int) -> tuple[int, ...]:
    """The action-to-coefficient map with every entry checked; the identity when None."""
    if action_map is None:
        return tuple(range(num_coeffs))
    amap = tuple(int(a) for a in action_map)
    if len(amap) != num_coeffs:
        raise ValueError(f"map needs {num_coeffs} entries, got {len(amap)}")
    if any(not 0 <= j < num_coeffs for j in amap):
        raise ValueError(f"map entries must be in [0, {num_coeffs}), got {amap}")
    return amap


class FeedbackBlock:
    """Per-coefficient observation counts and running estimates of S seeds.

    Counts, running means and Welford sums are (S, K) arrays.  `update`
    routes each seed's observation through the action map
    (`action_to_coeff[a]` names the coefficient an observation of action a
    informs) and folds it into that coefficient's `estimator`, one of
    ESTIMATORS: the running mean of raw draws, of squared draws around
    the drawn action's known mean `centers[a]` (known-center variance
    estimation), or Welford sample variance.  `centers` is indexed by
    action, as the draws are, so no reader routes it.  The arithmetic is
    that of a single trial, so each row holds exactly what that seed's
    trial alone would hold.  Every seed routes one observation per round,
    so `rounds`, the rounds since the last reset and the policies'
    exploration clock, is one integer for the block.
    """

    def __init__(
        self,
        num_seeds: int,
        num_coeffs: int,
        deviation_spec: DeviationSpec,
        action_to_coeff: Sequence[int] | None = None,
        estimator: str = ESTIMATOR_MEAN,
        centers: Sequence[float] | None = None,
    ):
        amap = check_action_map(action_to_coeff, num_coeffs)
        self.deviation_spec = deviation_spec
        self.num_coeffs = num_coeffs
        self._centered = estimator == ESTIMATOR_CENTERED_SQUARE
        self._welford = estimator == ESTIMATOR_SAMPLE_VARIANCE
        # counts are whole numbers held as floats: exact, and dividing by
        # them gives the correctly rounded quotient of the integers, without
        # a conversion per round
        self.obs_counts = np.zeros((num_seeds, num_coeffs))
        self.means = np.zeros((num_seeds, num_coeffs))
        self.m2 = np.zeros((num_seeds, num_coeffs))
        self.rounds = 0
        self._map = None if amap == tuple(range(num_coeffs)) else np.array(amap)
        self.centers = None if centers is None else np.array(centers, dtype=float)
        self._row = np.arange(num_seeds) * num_coeffs
        # an array operand: a Python scalar costs a conversion every round
        self._ones = np.ones(num_seeds)
        self._flat = (self.obs_counts.reshape(-1), self.means.reshape(-1), self.m2.reshape(-1))
        self.observed = False

    def reset(self) -> None:
        """Forget all observations of every seed (the doubling restart)."""
        self.obs_counts.fill(0.0)
        self.means.fill(0.0)
        self.m2.fill(0.0)
        self.rounds = 0
        self.observed = False

    def unobserved(self) -> np.ndarray | None:
        """Mask of the coefficients each seed has not observed yet, asked only
        while `observed` is False; None, and `observed` set, once every seed
        has observed every coefficient (counts only grow until the next reset)."""
        zero = self.obs_counts == 0.0
        if zero.any():
            return zero
        self.observed = True
        return None

    def estimates(self) -> np.ndarray:
        """Current parameter estimates, one row per seed; 0.0 where unobserved.

        For the mean estimators this is the running-mean array itself, which
        callers only read.
        """
        if self._welford:
            n = self.obs_counts
            out = np.zeros(self.m2.shape)
            np.divide(self.m2, n - 1.0, out=out, where=n >= 2.0)
            return out
        return self.means

    def update(self, actions: np.ndarray, obs: np.ndarray) -> None:
        """Route each seed's observation through the action map and fold it in."""
        j = actions if self._map is None else self._map[actions]
        if self._centered:
            d = obs - self.centers[actions]
            value = d * d
        else:
            value = obs
        flat = self._row + j
        counts, means, m2 = self._flat
        n = counts[flat]
        n += self._ones
        counts[flat] = n
        old = means[flat]
        delta = value - old
        mean = delta / n
        mean += old  # old + delta / n
        means[flat] = mean
        if self._welford:
            m2[flat] += delta * (value - mean)
        self.rounds += 1


@dataclass(frozen=True)
class ObservationModel:
    """Per-action observation distributions (sub-Gaussian by contract).

    Kinds: gaussian (mean, sd per action), bernoulli (mean per action),
    deterministic (constant equal to the mean).
    """

    kind: str
    means: tuple[float, ...]
    sds: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("gaussian", "bernoulli", "deterministic"):
            raise ValueError(f"unknown observation kind {self.kind!r}")
        if self.kind == "gaussian":
            if self.sds is None or len(self.sds) != len(self.means):
                raise ValueError("gaussian observations need one sd per action")
            if any(not 0.0 <= s < math.inf for s in self.sds):
                raise ValueError(f"gaussian sds must be finite and nonnegative, got {self.sds}")
        if self.kind == "bernoulli" and any(not 0.0 <= m <= 1.0 for m in self.means):
            raise ValueError("bernoulli means must be in [0, 1]")

    def subgaussian_parameter(self) -> float:
        if self.kind == "gaussian":
            return max(self.sds) ** 2
        if self.kind == "bernoulli":
            return 0.25
        return 0.0


class ObservationSampler:
    """Materialized observation streams of a block of seeds.

    Stream (s, a) is the `seeded_streams` stream of (s, a), consumed in pull
    order, so draw n of action a for seed s is reproducible in isolation.
    Each `draw` call is one round.  Every `refill` rounds, each stream
    holding fewer than `refill` unused draws gets `refill` more, so no
    stream runs dry before the next top-up and the buffers hold under
    2 * `refill` values per stream.  The last top-up before the horizon
    `t_max` covers only the rounds left, n < `refill`: streams with fewer
    than n unused draws get n more.  Chunking does not change the values.
    A deterministic stream is its mean, drawn from no generator.

    `refill` is sized once, from the block's S seeds and K actions and the
    horizon `t_max`, as max(CHUNK, min(BUFFER_BYTES // (16 S K), t_max // K)):
    a block's buffers stay within BUFFER_BYTES, or within 2 * CHUNK values
    per stream where that is larger, and the first fill draws no more than
    the S * t_max values a run of t_max rounds uses.  Without a horizon it
    is CHUNK.  The horizon only sizes the top-ups: drawing past it stays
    correct, with top-ups of `refill` from t_max on.

    `draw` takes one action per seed (an int array; a plain int draws that
    action for every seed) and returns the seeds' observations as an array.
    """

    CHUNK = 64

    def __init__(self, obs_model: ObservationModel, seeds: Sequence[int], t_max: int | None = None):
        self.obs_model = obs_model
        k = len(obs_model.means)
        streams = len(seeds) * k
        self.refill = self.CHUNK
        if t_max is not None:
            # each stream's slot holds 2 * refill doubles, 16 * refill bytes
            fit = BUFFER_BYTES // (16 * streams)
            self.refill = max(self.CHUNK, min(fit, t_max // k))
        width = 2 * self.refill
        # each stream's mean, and sd if gaussian, in stream order
        self._means = np.tile(np.array(obs_model.means, dtype=float), len(seeds))
        self._sds = np.tile(obs_model.sds, len(seeds)) if obs_model.kind == "gaussian" else None
        if obs_model.kind == "deterministic":
            # every buffered value is the stream's mean, so a top-up only
            # moves the stream's bounds
            self._gens = None
            self._buf = self._means.repeat(width)
        else:
            self._gens = seeded_streams(seeds, range(k))
            self._buf = np.empty(streams * width)
        # next unused draw of each stream, as an index into the flat buffer,
        # and where its buffered draws end
        self._next = np.arange(streams) * width
        self._end = self._next.copy()
        self._row = np.arange(len(seeds)) * k
        # an array operand: a Python scalar costs a conversion every round
        self._one = np.ones(len(seeds), dtype=self._next.dtype)
        self._until_top_up = 0
        # rounds left before t_max, or None without a horizon
        self._left = t_max

    def draw(self, action) -> np.ndarray:
        """Next observation of each seed's action; consumes one value of each
        stream drawn from."""
        if self._until_top_up == 0:
            self._top_up()
        self._until_top_up -= 1
        stream = self._row + action
        i = self._next[stream]
        obs = self._buf[i]
        i += self._one
        self._next[stream] = i
        return obs

    def _top_up(self) -> None:
        # the next top-up comes after `chunk` rounds: `refill`, or the rounds
        # left before t_max if fewer (at t_max, `refill` again).  Each stream
        # with fewer than `chunk` unused draws moves them to the start of its
        # slot, and `chunk` fresh draws follow them
        chunk = self.refill
        left = self._left
        if left is not None:
            if 0 < left < chunk:
                chunk = left
            self._left = left - chunk
        self._until_top_up = chunk
        buf, nxt, end = self._buf, self._next, self._end
        unused = end - nxt
        low = np.flatnonzero(unused < chunk)
        start = low * (2 * self.refill)
        fresh = start + unused[low]
        kind = self.obs_model.kind
        if kind == "gaussian":
            refills = zip(
                self._gens[low],
                nxt[low].tolist(),
                start.tolist(),
                fresh.tolist(),
                self._means[low].tolist(),
                self._sds[low].tolist(),
            )
            for gen, i, s, f, mean, sd in refills:
                buf[s:f] = buf[i : i + f - s]
                buf[f : f + chunk] = gen.normal(mean, sd, chunk)
        elif kind == "bernoulli":
            # uniforms, then compared with the means
            for gen, i, s, f in zip(self._gens[low], nxt[low].tolist(), start.tolist(), fresh.tolist()):
                buf[s:f] = buf[i : i + f - s]
                buf[f : f + chunk] = gen.random(chunk)
            cells = fresh[:, None] + np.arange(chunk)
            buf[cells] = buf[cells] < self._means[low, None]
        nxt[low] = start
        end[low] = fresh + chunk
