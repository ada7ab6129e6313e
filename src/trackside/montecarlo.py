"""Monte Carlo arithmetic: the rendezvous oracle's trials and the batched
per-trial stream of ``sim.run_matrix``.

This is the only module that imports numpy.  Its callers import it inside
the function that needs it, so a process that never runs a Monte Carlo
path, calibration included, does not pay for numpy's import.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .rendezvous import AdvertiserConfig, ScannerConfig

# Rows (trials) and trial x event entries per array pass: each float array
# of a block stays within 2 MB, so memory is flat in the trial count, the
# speed and the interval.
ORACLE_CHUNK = 20000
_BLOCK_EVENTS = 1 << 18


def oracle_hits(
    adv: AdvertiserConfig, scan: ScannerConfig, span: float, trials: int, seed: int | tuple
) -> int:
    """How many of ``trials`` uniform advertiser and scanner phases hear an
    event during a pass ``span`` ms long.

    All randomness is drawn up front in a fixed order; blocking only
    batches the overlap arithmetic, so the count does not depend on how the
    computation is scheduled."""
    offsets = _event_offsets(span, adv.interval_ms)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    phase_adv = rng.uniform(0.0, adv.interval_ms, size=trials)
    phase_scan = rng.uniform(0.0, scan.scan_cycle_ms, size=trials)
    return _count_heard(
        offsets, trials, lambda lo, hi: (phase_adv[lo:hi], phase_scan[lo:hi]), span, adv, scan
    )


def _count_heard(
    offsets: np.ndarray,
    trials: int,
    phases: Callable[[int, int], tuple[np.ndarray, np.ndarray]],
    span: float,
    adv: AdvertiserConfig,
    scan: ScannerConfig,
) -> int:
    """How many of ``trials`` hear an event, where ``phases(lo, hi)`` gives
    the advertiser and scanner phases of trials lo..hi-1.  A trial's events
    start ``offsets`` ms after its advertiser phase; it hears one if an
    event starting before ``span`` overlaps a listening window of a scanner
    whose cycle begins at its scanner phase.  Trials are decided in blocks
    of at most ``ORACLE_CHUNK`` rows and ``_BLOCK_EVENTS`` entries."""
    cycle = scan.scan_cycle_ms
    block = max(1, min(ORACLE_CHUNK, _BLOCK_EVENTS // len(offsets)))
    hits = 0
    for lo in range(0, trials, block):
        phase_adv, phase_scan = phases(lo, min(lo + block, trials))
        starts = phase_adv[:, None] + offsets[None, :]
        rel = np.mod(starts - phase_scan[:, None], cycle)
        heard = (rel < scan.scan_window_ms) | (rel > cycle - adv.event_duration_ms)
        hits += int(np.any((starts < span) & heard, axis=1).sum())
    return hits


def _event_offsets(span: float, interval: float) -> np.ndarray:
    """Offsets, from the first event's start, of every event that can start
    within ``span`` ms of a pass, whatever the advertiser's phase.  A pass
    with more events than one block holds is refused before anything is
    allocated."""
    events = span // interval + 1
    if not events <= _BLOCK_EVENTS:  # also refuses the NaN of an infinite span
        raise ValueError(
            f"a pass {span:.6g} ms in range at a {interval:g} ms interval holds more than "
            f"the {_BLOCK_EVENTS} advertising events one Monte Carlo pass can hold"
        )
    return np.arange(int(events)) * interval


# numpy.random.SeedSequence's hash: a pool of four 32-bit words and its
# multipliers (NumPy NEP 19 and numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier as (high, low) 64-bit halves (O'Neill 2014).
_PCG_MULT = (2549297995355413924, 4865540595714422341)
# These stay Python ints; the array code turns each into an np.uint64 where
# it is used, so no Python int meets a uint64 array (numpy < 2 promotes
# that differently).


def _uint32_words(n: int) -> list[int]:
    """SeedSequence's little-endian 32-bit words of a non-negative int."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hash_multipliers(init: int, mult: int, count: int) -> list[tuple[int, int]]:
    """The (xor, multiply) constants of ``count`` successive hashmix calls."""
    out = []
    for _ in range(count):
        nxt = (init * mult) & _MASK32
        out.append((init, nxt))
        init = nxt
    return out


def _hashmix(value: np.ndarray, consts: tuple[int, int]) -> np.ndarray:
    value = ((value ^ np.uint64(consts[0])) * np.uint64(consts[1])) & np.uint64(_MASK32)
    return value ^ (value >> np.uint64(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = (np.uint64(_MIX_MULT_L) * x - np.uint64(_MIX_MULT_R) * y) & np.uint64(_MASK32)
    return result ^ (result >> np.uint64(16))


def _seed_words(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """``SeedSequence(entropy).generate_state(4, np.uint64)`` elementwise,
    for entropy given as a list of arrays of 32-bit words."""
    n = _POOL_SIZE
    extra = max(len(entropy) - n, 0)
    consts = iter(_hash_multipliers(_INIT_A, _MULT_A, n * n + extra * n))
    zero = np.zeros_like(entropy[0])
    pool = [_hashmix(entropy[i] if i < len(entropy) else zero, next(consts)) for i in range(n)]
    for src in range(n):
        for dst in range(n):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(consts)))
    for word in entropy[n:]:
        for dst in range(n):
            pool[dst] = _mix(pool[dst], _hashmix(word, next(consts)))
    consts = _hash_multipliers(_INIT_B, _MULT_B, 8)
    state = [_hashmix(pool[i % n], c) for i, c in enumerate(consts)]
    return [state[i] | (state[i + 1] << np.uint64(32)) for i in range(0, 8, 2)]


def _mul_hi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit product a * b, from 32-bit halves."""
    lo32, u32 = np.uint64(_MASK32), np.uint64(32)
    a0, a1, b0, b1 = a & lo32, a >> u32, b & lo32, b >> u32
    cross0, cross1 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> u32) + (cross0 & lo32) + (cross1 & lo32)
    return a1 * b1 + (cross0 >> u32) + (cross1 >> u32) + (mid >> u32)


def _pcg_step(state, inc):
    """One PCG64 LCG step, state * multiplier + inc mod 2**128, on
    (high, low) pairs of uint64 arrays."""
    hi, lo = state
    m_hi, m_lo = np.uint64(_PCG_MULT[0]), np.uint64(_PCG_MULT[1])
    lo_next = lo * m_lo + inc[1]
    carry = (lo_next < inc[1]).astype(np.uint64)
    return _mul_hi(lo, m_lo) + lo * m_hi + hi * m_lo + inc[0] + carry, lo_next


def _pcg_double(state) -> np.ndarray:
    """PCG64's XSL-RR output of ``state`` as a double in [0, 1)."""
    hi, lo = state
    x, rot = hi ^ lo, hi >> np.uint64(58)
    word = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
    return (word >> np.uint64(11)) * (1.0 / 9007199254740992.0)


def _first_doubles(entropy: list[np.ndarray]) -> np.ndarray:
    """The first two doubles of ``Generator(PCG64(SeedSequence(entropy)))``,
    elementwise, as a (2, n) array."""
    s_hi, s_lo, i_hi, i_lo = _seed_words(entropy)
    # pcg64_set_seed: inc = (initseq << 1) | 1; state = inc + initstate,
    # then one step.  Each draw steps, then outputs.
    one = np.uint64(1)
    inc = ((i_hi << one) | (i_lo >> np.uint64(63)), (i_lo << one) | one)
    lo = inc[1] + s_lo
    state = _pcg_step((inc[0] + s_hi + (lo < s_lo).astype(np.uint64), lo), inc)
    first = _pcg_step(state, inc)
    return np.stack([_pcg_double(first), _pcg_double(_pcg_step(first, inc))])


def _trial_uniforms(seed: int, cell_index: int, trials) -> np.ndarray:
    """For each trial index t in ``trials``, the two doubles that
    ``Generator(PCG64(SeedSequence((seed, cell_index, t))))`` draws first,
    as a (2, len(trials)) array: the per-trial stream of ``sim.simulate_pass``,
    computed for a whole block of trials at once."""
    trials = np.asarray(trials, dtype=np.uint64)
    prefix = _uint32_words(seed) + _uint32_words(cell_index)
    out = np.empty((2, trials.size))
    lo32 = np.uint64(_MASK32)
    # SeedSequence takes a trial index of 2**32 or more as two words.
    wide = trials > lo32
    for part, n_words in ((~wide, 1), (wide, 2)):
        t = trials[part]
        if t.size:
            fixed = [np.full(t.shape, w, dtype=np.uint64) for w in prefix]
            out[:, part] = _first_doubles(fixed + [t & lo32, t >> np.uint64(32)][:n_words])
    return out


def cell_detections(
    seed: int, cell_index: int, trials: int, adv: AdvertiserConfig,
    scanner: ScannerConfig, t_in_s: float,
) -> int:
    """How many of a matrix cell's trials detect the beacon: trial t is
    ``sim.simulate_pass((seed, cell_index, t), ...)``, decided in blocks."""
    if t_in_s == 0:
        return 0
    span = t_in_s * 1000.0
    # The oracle's arithmetic: the same event offsets, and its phases are
    # Generator.uniform(0, x) draws, 0.0 + x * u, which is x * u exactly.
    offsets = _event_offsets(span, adv.interval_ms)

    def phases(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        u_adv, u_scan = _trial_uniforms(seed, cell_index, np.arange(lo, hi))
        return adv.interval_ms * u_adv, scanner.scan_cycle_ms * u_scan

    return _count_heard(offsets, trials, phases, span, adv, scanner)
