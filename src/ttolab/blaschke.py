"""Finite Blaschke products: zero-sequence generators, boundary evaluation,
angular derivatives, the boundary phase and its inverse, the
Takenaka-Malmquist-Walsh basis, and partial Poisson sums along a zero sequence.

Everything here is a pure function of immutable inputs.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from dataclasses import InitVar, dataclass, field
from functools import partial
from typing import Sequence

import numpy as np

TWO_PI = 2.0 * math.pi

#: 2 pi - TWO_PI, the part of 2 pi that the double TWO_PI rounds away
#: (Cody-Waite: 2 pi = TWO_PI + TWO_PI_TAIL to about 1e-32)
TWO_PI_TAIL = 2.4492935982947064e-16

#: generators keep zeros strictly inside the disk so that boundary kernels
#: stay resolvable in double precision
RADIUS_CAP = 1.0 - 1e-6

#: angle rules of the constant_modulus generator
PHASE_RULES = ("equispaced", "golden", "random")

#: a declared setting (a zero rule's parameter, a config key): its default,
#: whose type it must have, and the condition on its value, also in words
RuleParam = namedtuple("RuleParam", "default holds words")

#: every zero rule's parameters by name, in the order that its constructor
#: takes them; ``ZeroSequence`` fills in the defaults and checks each value
RULE_PARAMS = {
    "uniform_zero": {},
    "constant_modulus": {"r": RuleParam(0.5, lambda v: 0.0 < v < 1.0, "in (0,1)"),
                         "phase_rule": RuleParam("equispaced", PHASE_RULES.__contains__,
                                                 f"one of {', '.join(PHASE_RULES)}")},
    "alternating_3k": {"lam": RuleParam(0.5, lambda v: 0.0 < v < 1.0, "in (0,1)")},
    "frostman_fast": {"directions": RuleParam(4, lambda v: v >= 1, "an integer >= 1")},
    "dense_nonblaschke": {"gamma": RuleParam(0.6180339887, math.isfinite, "finite")},
    "explicit": {},
}

#: the seed that every rule takes (the random phase rule draws from it)
SEED = RuleParam(0, lambda v: v >= 0, "an integer >= 0")

#: the values that a parameter takes, by the type of its default
_PARAM_TYPES = {int: numbers.Integral, float: numbers.Real, str: str}


def _as_param_type(value, default):
    """``value`` as the type of ``default`` (a tuple default: a tuple or list
    of its first entry's kind, as a tuple), or None if it is not of that kind."""
    if isinstance(default, tuple):
        items = [_as_param_type(v, default[0]) for v in value] if isinstance(value, (tuple, list)) else [None]
        return None if None in items else tuple(items)
    return type(default)(value) if isinstance(value, _PARAM_TYPES[type(default)]) else None


def circle_grid(count: int, offset: float = 0.0) -> np.ndarray:
    """Equispaced angles ``2*pi*(m + offset)/count``."""
    return TWO_PI * (np.arange(count) + offset) / count


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct entries of a real or integer array, sorted: the set
    ``np.unique`` gives, without the ``numpy.ma`` import that it makes."""
    values = np.sort(values)
    keep = np.empty(len(values), dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


# ---------------------------------------------------------------------------
# zero sequences
# ---------------------------------------------------------------------------

def _van_der_corput(j: np.ndarray) -> np.ndarray:
    """Points j of the base-2 van der Corput sequence (in [0, 1)): the bits
    of j mirrored about the binary point.  Each set bit adds its power of
    two, largest first; the sums are dyadic, so exact, and a point does not
    depend on which other indices are asked for with it."""
    out = np.zeros(len(j))
    bits, step = np.array(j, dtype=np.int64), 0.5
    while bits.any():
        out += (bits & 1) * step
        bits >>= 1
        step *= 0.5
    return out


class DistinctZeros:
    """A zero list in distinct form.  The zeros are values[index], or
    ``values`` itself, as given, when index is None.  ``distinct`` holds each
    distinct zero once, sorted as ``np.unique`` sorts complex values,
    ``counts`` their multiplicities and ``which`` the index of each zero's
    distinct zero, so that zeros == distinct[which].  All three come from one
    ``np.unique`` of ``values`` when a part is first read; ``which`` is then
    written over an index array, and ``values`` becomes ``distinct``."""

    __slots__ = ("values", "index", "distinct", "counts", "which")

    def __init__(self, values: np.ndarray, index: np.ndarray | None = None):
        self.values, self.index = values, index

    def __getattr__(self, name: str):
        if name not in ("distinct", "counts", "which"):  # only the unread parts
            raise AttributeError(name)
        self.distinct, self.which, self.counts = np.unique(self.values, return_inverse=True, return_counts=True)
        if self.index is not None:  # mode="clip" takes in place, with no buffer
            self.values, self.which = self.distinct, np.take(self.which, self.index, out=self.index, mode="clip")
            self.counts = np.bincount(self.which, minlength=len(self.distinct))
        return getattr(self, name)

    @property
    def zeros(self) -> np.ndarray:
        return self.values if self.index is None else self.values[self.index]


def _checked_param(kind: str, name: str, value, param: RuleParam):
    """``value`` as the type of the parameter's default (``_as_param_type``), if
    it is of that kind and its condition holds; else a ValueError naming it."""
    if (converted := _as_param_type(value, param.default)) is None or not param.holds(converted):
        raise ValueError(f"{kind} needs {name} {param.words}, got {value!r}")
    return converted


def _checked_fields(obj, kind: str, params: dict) -> None:
    """Check and hold each field of the frozen dataclass that ``params`` declares."""
    for name, param in params.items():
        object.__setattr__(obj, name, _checked_param(kind, name, getattr(obj, name), param))


def _rule_sequence(kind: str, *values, seed: int = SEED.default, **params) -> "ZeroSequence":
    """The ``kind`` sequence, its parameters in ``RULE_PARAMS`` order or by name."""
    if len(values) > len(RULE_PARAMS[kind]):
        raise TypeError(f"{kind} takes at most {len(RULE_PARAMS[kind])} positional parameters")
    return ZeroSequence(kind, dict(zip(RULE_PARAMS[kind], values), **params), seed)


@dataclass(frozen=True)
class ZeroSequence:
    """Deterministic rule producing zeros in the open unit disk.

    The same (kind, params, seed) always yields the same prefix, whatever
    length is requested, and every rule puts the first zero at the origin.
    ``params`` holds the rule's parameters (``RULE_PARAMS``), each checked
    and filled in with its default at construction.
    """

    kind: str
    params: dict = field(default_factory=dict)
    seed: int = SEED.default
    explicit_zeros: tuple = ()

    def __post_init__(self):
        declared = RULE_PARAMS.get(self.kind)
        if declared is None:
            raise ValueError(f"unknown generator tag {self.kind!r}; valid tags: {', '.join(RULE_PARAMS)}")
        for name in set(self.params) - set(declared):
            raise ValueError(f"{self.kind} reads no parameter {name!r}; it reads: {', '.join(declared) or 'none'}")
        object.__setattr__(self, "params", {
            name: _checked_param(self.kind, name, self.params.get(name, param.default), param)
            for name, param in declared.items()})
        object.__setattr__(self, "seed", _checked_param(self.kind, "seed", self.seed, SEED))

    # -- constructors: a rule's parameters in RULE_PARAMS order or by name, and its seed

    uniform_zero = staticmethod(partial(_rule_sequence, "uniform_zero"))
    constant_modulus = staticmethod(partial(_rule_sequence, "constant_modulus"))
    alternating_3k = staticmethod(partial(_rule_sequence, "alternating_3k"))
    frostman_fast = staticmethod(partial(_rule_sequence, "frostman_fast"))
    dense_nonblaschke = staticmethod(partial(_rule_sequence, "dense_nonblaschke"))

    @staticmethod
    def from_points(points: Sequence[complex], seed: int = SEED.default) -> "ZeroSequence":
        pts = tuple(complex(p) for p in points)
        _check_zeros(np.array(pts, dtype=complex), bool(pts))  # as a rule's zeros are, but when built
        return ZeroSequence("explicit", seed=seed, explicit_zeros=pts)


def _check_zeros(zeros: np.ndarray, first: bool):
    """Zeros of a rule lie strictly inside the disk, and the first one is the
    origin."""
    if first and abs(zeros[0]) != 0.0:
        raise ValueError("sequence must start at the origin")
    if np.abs(zeros).max(initial=0.0) >= 1.0:
        raise ValueError("zeros must lie strictly inside the unit disk")


#: the rules that make their zeros distinct, given as bare arrays
BARE_RULES = ("constant_modulus", "dense_nonblaschke")


def _bare_blocks(spec: ZeroSequence, count: int, block: int):
    """The first ``count`` zeros of a rule in ``BARE_RULES``, as consecutive
    arrays of ``block`` zeros (the last one shorter), each checked as it is
    formed.  A zero is the same elementwise arithmetic on its index whatever
    block holds it, and the random phase rule draws each block from one
    generator in turn, so the blocks concatenate to the bits of one block
    of ``count`` zeros."""
    p = spec.params
    if spec.kind == "constant_modulus":
        r, rule = p["r"], p["phase_rule"]
        rng = np.random.default_rng(spec.seed) if rule == "random" else None

        def zeros(j: np.ndarray) -> np.ndarray:
            if rule == "equispaced":
                # base-2 van der Corput: every prefix of length 2^k is
                # equispaced and extending the sequence never moves earlier points
                phases = TWO_PI * _van_der_corput(j)
            elif rule == "golden":
                phases = TWO_PI * ((j * 0.6180339887498949) % 1.0)
            else:
                phases = TWO_PI * rng.random(len(j))
            return np.where(j == 0, 0.0, r * np.exp(1j * phases))
    else:
        def zeros(j: np.ndarray) -> np.ndarray:
            rad = np.minimum(1.0 - 1.0 / (j + 1.0), RADIUS_CAP)
            return rad * np.exp(1j * TWO_PI * ((j * p["gamma"]) % 1.0))

    for start in range(0, count, block):
        lam = zeros(np.arange(start, min(start + block, count)))
        _check_zeros(lam, start == 0)
        yield lam


def distinct_zeros(spec: ZeroSequence, count: int) -> DistinctZeros:
    """The first ``count`` zeros of the sequence rule as a ``DistinctZeros``:
    a repeating rule (uniform_zero, alternating_3k, frostman_fast) gives its
    few distinct values and the index of each zero's value, any other rule
    its bare zeros.  Checked to start at the origin and to lie strictly
    inside the disk, from the values and the first zero: nothing is folded
    until a part of the distinct form is read."""
    if count < 1:
        raise ValueError("count must be >= 1")
    kind, p = spec.kind, spec.params

    if kind in BARE_RULES:
        lam, = _bare_blocks(spec, count, count)
        return DistinctZeros(lam)

    if kind == "uniform_zero":
        lam = DistinctZeros(np.zeros(1, dtype=complex), np.zeros(count, dtype=np.intp))

    elif kind == "alternating_3k":
        # block rule: indices 3^{k-1} < j <= 3^k carry +lam for odd k,
        # -lam for even k; j = 0 and j = 1 stay at the origin.  Runs: the
        # origin for j < 2, then block k up to min(3^k, count - 1), each the
        # index of its value in (0, lam, -lam)
        which, ends, k = [0], [min(2, count)], 1
        while ends[-1] < count:
            which.append(2 - k % 2)
            ends.append(min(3 ** k + 1, count))
            k += 1
        values = np.array([0.0, p["lam"], -p["lam"]], dtype=complex)[:len(which)]
        lam = DistinctZeros(values, np.repeat(which, np.diff(ends, prepend=0)))

    elif kind == "frostman_fast":
        ndir = p["directions"]
        # radii grow with j: from the first j with (j + 1)^-4 <= 1 - RADIUS_CAP,
        # j = cap, on every radius is the cap, and zero j repeats zero
        # cap + (j - cap) % ndir
        cap = math.ceil((1.0 - RADIUS_CAP) ** -0.25) - 1
        j = np.arange(min(count, cap + ndir))
        head = np.minimum(1.0 - (j + 1.0) ** -4, RADIUS_CAP) * np.exp(1j * (TWO_PI * (j % ndir) / ndir))
        index = np.arange(-cap, count - cap)
        np.remainder(index[cap:], ndir, out=index[cap:])
        index += cap
        lam = DistinctZeros(head, index)

    else:  # explicit: ZeroSequence admits no other kind
        pts = np.asarray(spec.explicit_zeros, dtype=complex)
        if len(pts) < count:
            raise ValueError(f"explicit sequence has {len(pts)} zeros, {count} requested")
        lam = DistinctZeros(pts[:count].copy())

    _check_zeros(lam.values[:1] if lam.index is None else lam.values[lam.index[:1]], True)
    _check_zeros(lam.values, False)
    return lam


def generate_zeros(spec: ZeroSequence, count: int) -> np.ndarray:
    """The first ``count`` zeros of the sequence rule as one array: the
    ``zeros`` of ``distinct_zeros``, so nothing is folded (capped at
    ``RADIUS_CAP``)."""
    return distinct_zeros(spec, count).zeros


# ---------------------------------------------------------------------------
# finite Blaschke products
# ---------------------------------------------------------------------------

def exact_defects(zeros: np.ndarray) -> np.ndarray:
    """1 - |lambda|^2 of each zero, correctly rounded from its stored parts.
    The double form 1 - (x^2 + y^2) is off by up to eps/(1 - |lambda|^2)
    relative: 1e-6 at 1e-10 from the circle.  Each square is split exactly
    as x^2 = sq + err (Dekker, with Veltkamp halves of at most 26 bits), and
    a cascade of error-free sums (TwoSum) of 1, -sq, -err leaves d + rest
    within 2^-102 of 1 - |lambda|^2.  Then d is the correctly rounded value
    whenever |rest| + 2^-100 stays below half the gap under d; the other
    zeros (every zero within about 1e-15 of the circle, at random about one
    in 10^9) take ``math.fsum`` of the same five terms."""
    x = np.stack((zeros.real, zeros.imag))
    sq = x * x
    c = 134217729.0 * x  # 2^27 + 1
    hi = c - (c - x)
    lo = x - hi
    sq_err = ((hi * hi - sq) + 2.0 * hi * lo) + lo * lo
    terms = (-sq[0], -sq_err[0], -sq[1], -sq_err[1])
    # partial sums stay below 1 + eps: the four sum errors add up to at most
    # 4.001 eps/2, and their rounded sum is off by under 12.01 (eps/2)^2
    s, err = np.ones(x.shape[1]), np.zeros(x.shape[1])
    for t in terms:
        total = s + t
        b = total - s
        err += (s - (total - b)) + (t - b)
        s = total
    d = s + err
    b = d - s
    rest = (s - (d - b)) + (err - b)  # d + rest == s + err exactly
    unsure = np.abs(rest) + 2.0 ** -100 >= 0.5 * (d - np.nextafter(d, 0.0))
    d[unsure] = [math.fsum((1.0,) + row) for row in zip(*(t[unsure].tolist() for t in terms))]
    return d


@dataclass(frozen=True, eq=False)
class FiniteBlaschke:
    """Degree-N Blaschke product given by its zero list (first zero at 0).

    The product keeps its zeros in distinct form: the ``DistinctZeros`` of a
    sequence rule (``from_sequence``), else ``DistinctZeros`` of the bare
    zero list, folded where ``__post_init__`` reads its parts."""

    zeros: np.ndarray
    runs: InitVar[DistinctZeros | None] = None

    def __post_init__(self, runs):
        z = np.asarray(self.zeros, dtype=complex)
        if z.ndim != 1 or len(z) == 0:
            raise ValueError("zeros must be a non-empty 1-d array")
        if not np.all(np.abs(z) < 1.0):  # NaN fails this too
            raise ValueError("all zeros must be finite with |lambda| < 1")
        # + 0.0 turns -0 parts into +0: a zero at -0 + 0j has angle pi, and the
        # kernels would give it the factor -z
        z = z + 0.0
        object.__setattr__(self, "zeros", z)
        r = np.abs(z)
        sigma = np.ones(len(z), dtype=complex)
        nz = r >= np.finfo(float).tiny
        sigma[nz] = np.conj(z[nz]) / r[nz]
        # dividing by a subnormal modulus overflows: use the angle instead
        sub = (r > 0) & ~nz
        sigma[sub] = np.exp(-1j * np.angle(z[sub]))
        object.__setattr__(self, "_radii", r)
        object.__setattr__(self, "_sigma", sigma)
        # the one place that forms a zero's defect d = 1 - |lambda|^2: once per
        # distinct zero, correctly rounded, with p = d/(1 + |lambda|) (1 - |lambda|
        # to rounding) and the kernel norm c = sqrt(d) of each zero
        if runs is None:
            runs = DistinctZeros(z)
        uniq, counts, which = runs.distinct + 0.0, runs.counts, runs.which
        defects = exact_defects(uniq)
        object.__setattr__(self, "_distinct", (uniq, counts))
        object.__setattr__(self, "_which", which)  # zeros[i] == uniq[which[i]]
        object.__setattr__(self, "_defects", defects)
        object.__setattr__(self, "_p", defects / (1.0 + np.abs(uniq)))
        object.__setattr__(self, "_cnorm", np.sqrt(defects)[which])

    @property
    def degree(self) -> int:
        return len(self.zeros)

    @property
    def vanishes_at_origin(self) -> bool:
        return bool(np.abs(self.zeros).min() == 0.0)

    @classmethod
    def from_sequence(cls, spec: ZeroSequence, degree: int) -> "FiniteBlaschke":
        runs = distinct_zeros(spec, degree)
        return cls(runs.zeros, runs)

    def __repr__(self):
        return f"FiniteBlaschke(degree={self.degree})"


#: zero x angle cells per block of a product or phase evaluation: 2^15
#: cells keep a block's temporaries (256 KB per float array) in cache.
#: On 8192 angles (best of 7, 2-vCPU host, one thread) a dense_nonblaschke
#: phase evaluation with derivatives took 24 ms at N = 64 and 46 ms at
#: N = 128 in blocks of 2^20 cells, and 12 and 22 ms in blocks of 2^15, with
#: bit-identical values; ``PhaseFunction.product`` took 7-8 and 13-17 ms, 5-7 and 14 ms
PHASE_BLOCK = 1 << 15


#: zero x angle cells per block of ``_poisson_sum``: two float planes of
#: 1 MiB, 1024 zeros on the 64-point grid of the shipped configs.  There
#: 10^5 dense_nonblaschke zeros took 43, 46 and 38 ms in blocks of 1024, 2048
#: and 4096 zeros (best of 15, 2-vCPU host, one thread), but 4096 raised the
#: shipped dense benchmark's peak RSS by 4.6 MB where 1024 raise it by 0.6 MB
POISSON_CELLS = 1 << 16


def _poisson_sum(angles, zeros: np.ndarray, defects: np.ndarray, counts: np.ndarray | None = None,
                 out: np.ndarray | None = None) -> np.ndarray:
    """sum_j m_j (1 - |lam_j|^2)/|zeta - lam_j|^2 at the angles (in their
    shape) from the zeros, their ``exact_defects`` and multiplicities m_j
    (1 if not given), added to ``out`` if given: the one Cartesian Poisson
    kernel.  The squared distance comes from Cartesian parts, never from
    1 + r^2 - 2r cos, which cancels for zeros within ~1e-8 of the circle.
    A block holds max(1, POISSON_CELLS // angles) zeros, one row per angle;
    its terms are divided out, weighted, and its pairwise row sums added to
    the sums, block by block.  These zero blocks alone set the bits.  A call
    whose zeros fill several blocks takes up to POISSON_CELLS cells per
    block; one whose zeros fit one block has at most POISSON_CELLS cells in
    all and takes them in blocks of an eighth of that, since a block that
    large touches fresh pages on every call: the shipped dense stz sampled
    1/|B'| on 1024 angles at N = 64 in 0.98 ms per call against 0.59 ms in
    blocks of 128 angles (medians of 8 runs, 2-vCPU host, one thread).  The
    eighth is not taken when the zeros fill several blocks, where each block
    is reused and the loop's passes cost more than fresh pages: on the
    shipped dense angular sums (64 angles, 4096 zeros a call) it took 13-20%
    longer per call, and the shipped-dense benchmark's angular_partial_sums
    81 ms against 63 ms in the larger blocks (medians of six paired runs,
    slower in all six, same host).  The parts of lambda are copied out
    first: passes over contiguous parts ran about 10% faster."""
    th = np.asarray(angles, dtype=float)
    x, y = np.cos(th).reshape(-1, 1), np.sin(th).reshape(-1, 1)
    re, im = np.stack((zeros.real, zeros.imag))
    step = max(1, POISSON_CELLS // max(1, len(x)))  # zeros per block
    cells = POISSON_CELLS if len(zeros) > step else POISSON_CELLS // 8
    width = max(1, cells // min(step, len(zeros)))  # angles per block
    buf = np.empty((2, min(step, len(zeros)) * min(width, len(x))))
    sums = np.zeros(len(x)) if out is None else out.reshape(-1)
    for a in range(0, len(x), width):
        rows = slice(a, a + width)
        for start in range(0, len(zeros), step):
            part = slice(start, start + step)
            shape = (len(x[rows]), len(re[part]))
            terms, dy = (b[:shape[0] * shape[1]].reshape(shape) for b in buf)
            np.subtract(y[rows], im[part], out=dy)
            np.multiply(dy, dy, out=dy)
            np.subtract(x[rows], re[part], out=terms)
            np.multiply(terms, terms, out=terms)
            terms += dy
            np.divide(defects[part], terms, out=terms)
            if counts is not None:
                terms *= counts[part]
            sums[rows] += terms.sum(axis=1)
    return sums.reshape(th.shape)


def abs_derivative_grid(B: FiniteBlaschke, angles: np.ndarray) -> np.ndarray:
    """|B'| on the circle: the Poisson kernel over the distinct zeros, each
    times its multiplicity (``_poisson_sum``).  The Cartesian parts of the
    angle are rounded to eps, so next to a zero lambda the value is off by
    up to about eps/|zeta - lambda|^2, or eps/|zeta - lambda| relative:
    1.0e-6 relative at the Clark atoms next to zeros 1e-10 from the circle,
    where Theta' of ``PhaseFunction`` is within 4.2e-15 of the 50-digit
    value.  The library calls it only on uniform grids, as the sampler of
    T(1/|B'|); at nodes that a phase solve placed, B and |B'| come from
    that solve."""
    uniq, counts = B._distinct
    return _poisson_sum(angles, uniq, B._defects, counts)


# ---------------------------------------------------------------------------
# boundary phase and its inverse
# ---------------------------------------------------------------------------

class PhaseFunction:
    """Continuous unwrapped argument of B along the circle.

    Theta(0) lies in [0, 2*pi); Theta is strictly increasing with derivative
    |B'| >= 1 (the product has a zero at the origin contributing 1) and
    Theta(2*pi) - Theta(0) = 2*pi*degree exactly.  Repeated zeros are folded
    into one term with a multiplicity weight, as in ``abs_derivative_grid``.
    A call evaluates blocks of at most PHASE_BLOCK distinct-zero x angle cells
    and can return Theta' = |B'| and Theta'' from the same tangents as Theta;
    ``product`` gives B itself from the same tangents.  Each factor takes the
    product's p and 1 - |lambda|^2, and the anchor Theta(0) is the argument
    of B(1), so Theta and B agree next to zeros 1e-10 from the circle.
    """

    def __init__(self, B: FiniteBlaschke):
        self.blaschke = B
        uniq, counts = B._distinct
        psi = np.angle(uniq)
        # the zeros within pi/2 of angle 0 first, then those within pi/2 of
        # angle pi: each group meets the angles in its own chart
        # (``_half_differences``)
        order = np.argsort(np.abs(psi) >= 0.5 * np.pi, kind="stable")
        r, psi = np.abs(uniq)[order], psi[order]
        self._r = r
        self._psi = psi
        self._near_zero = int(np.sum(np.abs(psi) < 0.5 * np.pi))
        # psi of the zeros near angle pi in [pi/2, 3 pi/2], in two parts:
        # psi + TWO_PI rounds, psi - (hi - TWO_PI) is its exact error
        far = psi[self._near_zero:]
        hi = np.where(far < 0.0, far + TWO_PI, far)
        lo = np.where(far < 0.0, (far - (hi - TWO_PI)) + TWO_PI_TAIL, 0.0)
        # per-zero constants as columns: a block holds one row per distinct
        # zero, so each chart's zeros are whole rows and every pass runs
        # along the angles
        self._half_psi = 0.5 * np.concatenate((psi[:self._near_zero], hi))[:, None]
        self._half_lo = 0.5 * lo[:, None] if np.any(lo) else None
        self._powers = counts[order]
        self._lift = 2.0 * self._powers
        self._p = B._p[order]
        self._pc, self._qc, self._two_rc = self._p[:, None], (1.0 + r)[:, None], (2.0 * r)[:, None]
        # numerators of the Poisson kernels and of the curvature terms
        self._poisson = self._powers * B._defects[order]
        self._curve = -4.0 * r * self._poisson
        # the anchor: the argument of B(1) from tan(-psi/2) in no chart, so that
        # conjugate zeros give conjugate factors and a real B(1) argument 0
        qt = (1.0 + np.abs(uniq))[:, None] * np.tan(-0.5 * np.angle(uniq))[:, None]
        b1 = np.empty(1, dtype=complex)
        self._factor_product(qt, B._p[:, None], counts, b1, np.empty_like(qt), np.empty(qt.shape, dtype=complex))
        self._anchor = math.atan2(b1[0].imag, b1[0].real) % TWO_PI
        # each factor's lift term at angle 0, from the code path of a call,
        # so that Theta(0) is the anchor exactly
        self._offsets = 0.0
        _, *block = next(self._blocks(np.zeros(1), float, float))
        self._offsets = self._terms(*block).copy()
        self._scan = None

    def _half_differences(self, th, t):
        """Fill t, one row per distinct zero, with (th - psi)/2 up to a
        multiple of pi for the angles th, with one rounding relative to the
        distance of th - psi from the nearest multiple of 2 pi.  The tangents
        of these are 2 pi periodic in th: an angle outside [-pi, 2 pi] is
        reduced into [0, 2 pi) on its own first.

        A zero and an angle next to it must be written in the same chart:
        a difference of two close doubles is exact, and a rounded 2 pi
        between them is off by 2.4e-16, which a zero 1e-10 from the circle
        turns into 1e-5 of Theta.  The zeros within
        pi/2 of angle 0 meet the angles written in (-pi, pi]: past pi as
        (th - TWO_PI) - TWO_PI_TAIL, where th - TWO_PI is exact.  The zeros
        within pi/2 of angle pi, written in [pi/2, 3 pi/2] as two parts,
        meet the angles in [0, 2 pi]: below 0 as th + TWO_PI in two parts.
        Away from its own chart's seam, a difference lies within 3 pi/2 of
        0, and the tangent of half of it is what the reduced one gives.
        Halves throughout: the difference of halves is the half of the
        difference, bit for bit."""
        if th.min() < -np.pi or th.max() > TWO_PI:
            th = np.where((th >= -np.pi) & (th <= TWO_PI), th, np.mod(th, TWO_PI))
        half, k = 0.5 * th, self._near_zero
        near, far = t[:k], t[k:]
        past = th > np.pi
        if past.any():
            np.subtract(half - past * (0.5 * TWO_PI), self._half_psi[:k], out=near)
            near -= past * (0.5 * TWO_PI_TAIL)
        else:
            np.subtract(half, self._half_psi[:k], out=near)
        below = th < 0.0
        if below.any():
            hi = np.where(below, th + TWO_PI, th)
            lo = np.where(below, (th - (hi - TWO_PI)) + TWO_PI_TAIL, 0.0)
            np.subtract(0.5 * hi, self._half_psi[k:], out=far)
            far += 0.5 * lo
        else:
            np.subtract(half, self._half_psi[k:], out=far)
        if self._half_lo is not None:
            far -= self._half_lo
        return t

    @staticmethod
    def _factor_product(qt, pc, powers, out, inv, factors):
        """Fill out with the product over the rows of (p + i qt)^2/(p^2 + qt^2),
        row k to the power powers[k]; qt, inv and factors are scratch."""
        np.multiply(qt, qt, out=inv)
        np.subtract(pc * pc, inv, out=factors.real)
        inv += pc * pc
        np.divide(1.0, inv, out=inv)
        factors.real *= inv
        qt *= 2.0 * pc
        np.multiply(qt, inv, out=factors.imag)
        repeated = np.nonzero(powers > 1)[0]
        if len(repeated):
            factors[repeated] **= powers[repeated, None]
        np.prod(factors, axis=0, out=out)

    def _blocks(self, th, *scratch):
        """For each block of at most PHASE_BLOCK distinct-zero x angle cells
        of the angles th: its slice of th, then t = tan((th - psi)/2)
        (``_half_differences``) and arrays of the dtypes ``scratch``, one
        row per distinct zero and one column per angle of the block.  Every
        block reuses the same buffers."""
        z = len(self._r)
        step = max(1, PHASE_BLOCK // z)
        buffers = [np.empty(z * min(step, len(th)), dtype=d) for d in (float, *scratch)]
        for start in range(0, len(th), step):
            rows = slice(start, start + step)
            count = len(th[rows])
            t, *rest = (b[:z * count].reshape(z, count) for b in buffers)
            np.tan(self._half_differences(th[rows], t), out=t)
            yield rows, t, *rest

    def product(self, angles) -> np.ndarray:
        """B at e^{i angles}, any shape, from the tangents t of a call and no
        lift: with q = (1 + r) t, a distinct zero's factor (p + iq)^2/(p^2 + q^2)
        to its multiplicity.  Next to a near-circle zero p and q keep their
        relative accuracy, where (z - lam)/(1 - conj(lam) z) loses eps/|z - lam|."""
        th = np.asarray(angles, dtype=float)
        out = np.empty(th.size, dtype=complex)
        for rows, t, inv, factors in self._blocks(th.reshape(-1), float, complex):
            t *= self._qc
            self._factor_product(t, self._pc, self._powers, out[rows], inv, factors)
        return out.reshape(th.shape)

    def _terms(self, t, t2, lift):
        """Fill t2 with t^2 and lift with each factor's lift term
        arctan(2rt/(p + (1+r)t^2)) less its value at angle 0, from the
        tangents t of ``_blocks``; returns lift."""
        np.multiply(t, t, out=t2)
        np.multiply(t2, self._qc, out=lift)
        lift += self._pc
        np.divide(t * self._two_rc, lift, out=lift)
        np.arctan(lift, out=lift)
        lift -= self._offsets
        return lift

    def __call__(self, angles, derivs: np.ndarray | None = None) -> np.ndarray:
        """Theta at the angles: anchor + N angle + 2 sum_j m_j (lift term).
        ``derivs``, a (2, len(angles)) array, receives Theta' = |B'| and
        Theta'' if given: with D = p^2 + (1+r)^2 t^2, a factor's Poisson
        kernel is (1-|lambda|^2)(1+t^2)/D, and its derivative
        -4r(1-|lambda|^2) t(1+t^2)/D^2."""
        th = np.atleast_1d(np.asarray(angles, dtype=float))
        out = np.empty(th.shape)
        N = float(self.blaschke.degree)
        for rows, t, t2, lift in self._blocks(th, float, float):
            self._terms(t, t2, lift)
            out[rows] = (self._anchor + N * th[rows]) + self._lift @ lift
            if derivs is not None:
                den = np.multiply(t2, self._qc * self._qc, out=lift)
                den += self._pc * self._pc
                t2 += 1.0
                kernel = np.divide(t2, den, out=t2)
                derivs[0, rows] = self._poisson @ kernel
                kernel *= t
                kernel /= den
                derivs[1, rows] = self._curve @ kernel
        return out

    def bracket_scan(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The coarse scan that ``invert_phase`` brackets its targets with:
        angles, Theta with exact endpoints Theta(0) and Theta(0) + 2 pi N,
        and Theta'.  Formed on first use and kept, so that every inversion
        of this phase (one per refinement level of a quadrature) shares it.

        The angles are max(256, 4N) equispaced ones plus geometric steps out
        of the direction of each zero whose peak they cannot resolve, so no
        bracket spans a phase spike and its flank at once (4^27 p, p about
        1 - r, exceeds the grid step for every r < 1).  They are merged by
        ``_sorted_distinct``, the set ``np.union1d`` gives."""
        if self._scan is None:
            N = self.blaschke.degree
            G = max(256, 4 * N)
            near = self._p < TWO_PI / G
            steps = self._p[near, None] * 4.0 ** np.arange(28)
            steps = np.where(steps < TWO_PI / G, steps, 0.0)
            spikes = np.mod(self._psi[near, None] + np.concatenate((-steps, steps), axis=1), TWO_PI)
            grid = _sorted_distinct(np.concatenate((np.linspace(0.0, TWO_PI, G + 1), spikes.ravel())))
            derivs = np.empty((2, len(grid)))
            vals = self(grid, derivs)
            vals[0], vals[-1] = self._anchor, self._anchor + TWO_PI * N  # exact endpoints
            self._scan = (grid, vals, derivs[0])
        return self._scan


def invert_phase(phase: PhaseFunction, targets, brackets: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Angles in [0, 2*pi] where Theta takes the targets, each in [Theta(0),
    Theta(0) + 2*pi*N], Theta' = |B'| there and the residuals Theta - target,
    so that B = e^{i(target + residual)} there.  ``brackets``, increasing
    arrays (angles, Theta, Theta') that span [0, 2 pi] (``phase_nodes``
    gives them), bracket every target and start it from their inverse cubic
    Hermite interpolant on its bracket (the bracket midpoint if that falls
    outside).

    One stop rule: each pass evaluates Theta, Theta' and Theta'' at the
    active angles and narrows their brackets, and a target stops at that
    evaluation when |Theta - target| <= tol, its Halley step or its bracket
    is at most 1e-15, or the pass is the 200th; else it takes the step,
    safeguarded by bisection.  So each angle comes with the Theta' and the
    residual of the evaluation that accepted it."""
    N = phase.blaschke.degree
    targets = np.asarray(targets, dtype=float)
    grid, vals, slopes = brackets
    idx = np.clip(np.searchsorted(vals, targets), 1, len(grid) - 1)
    lo, hi = grid[idx - 1], grid[idx]

    # theta(Theta) on [lo, hi] as the cubic with the scan's values and the
    # inverse slopes 1/|B'|, in the bracket's unit variable u; scan points
    # closer than the phase's ulp give equal values, a NaN start and the midpoint
    rise = vals[idx] - vals[idx - 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = (targets - vals[idx - 1]) / rise
        m0, m1 = rise / slopes[idx - 1], rise / slopes[idx]
        start = lo + (hi - lo) * u * u * (3.0 - 2.0 * u) + u * (1.0 - u) * ((1.0 - u) * m0 - u * m1)
    theta = np.where((start > lo) & (start < hi), start, 0.5 * (lo + hi))

    tol = max(1e-13, 2e-15 * N)
    active = np.arange(len(targets))
    theta_prime, residual = np.empty(len(targets)), np.empty(len(targets))
    for sweep in range(200):
        derivs = np.empty((2, len(active)))
        err = phase(theta[active], derivs) - targets[active]
        theta_prime[active], residual[active] = derivs[0], err
        neg = err < 0.0
        lo[active[neg]] = theta[active[neg]]
        hi[active[~neg]] = theta[active[~neg]]
        # Halley: the Newton step over 1 - err Theta''/(2 Theta'^2); where that
        # factor falls to 1/2 or below, the plain Newton step
        slope, curve = derivs
        newton = err / slope
        factor = 1.0 - 0.5 * newton * curve / slope
        step = np.where(factor > 0.5, newton / factor, newton)
        # inside a phase spike |B'| * ulp exceeds tol: the 1e-15 exits end it
        go = ((np.abs(err) > tol) & (np.abs(step) > 1e-15)
              & (hi[active] - lo[active] > 1e-15) & (sweep < 199))
        active, step = active[go], step[go]
        if not len(active):
            break
        halley = theta[active] - step
        inside = (halley > lo[active]) & (halley < hi[active])
        theta[active] = np.where(inside, halley, 0.5 * (lo[active] + hi[active]))
    return theta, theta_prime, residual


#: targets per block of a ``phase_nodes`` solve: the solve holds about 230
#: bytes per target of a block beside its 24 per node of output.  Against
#: one block, the traced peak fell from 14.3 to 3.8 MiB on dense_nonblaschke
#: N = 32 with 65536 nodes and from 7.7 to 2.8 MiB on frostman_fast N = 1024
#: with 32 levels, and the Clark atoms of 32 alphas at frostman_fast N = 16384
#: from 153 to 77 MB RSS.  Frostman N = 1024 took 21.4 ms against 18.5 ms as
#: one block (24 phase calls against 3), 24.2 ms in blocks of 2048; dense
#: N = 32 took 27.7 against 30.2 ms, frostman N = 16384 285 against 287 ms
#: (best of 7, 2-vCPU host, one thread).  Each call ends in a partial block
#: of PHASE_BLOCK cells: frostman N = 1024 makes 104 block passes against 91
PHASE_TARGETS = 1 << 12


def phase_nodes(phase: PhaseFunction, count: int, offset: float = 0.0,
                solved: list | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Theta^{-1} of the count*N levels 2*pi*(k + offset)/count, in [0, 2*pi],
    Theta' = |B'| at them and the residuals Theta - level (see ``invert_phase``):
    B at node k is e^{2 pi i (k + offset)/count} e^{i residual}.

    Theta carries |B'| dm onto uniform measure, so these are equal-weight nodes
    of nu = |B'|/N dm, and weighted by N/|B'| nodes of dm.  They are also the
    atoms of the Clark measures at alpha_j = e^{2 pi i (j + offset)/count}:
    ``reshape(N, count)`` puts alpha_j in column j.

    The targets are bracketed by the phase's scan (``PhaseFunction.bracket_scan``,
    formed once per phase) and solved PHASE_TARGETS at a time into the three
    returned arrays, so the solve's working memory is one block of targets.

    ``solved``, a list kept by the caller across the levels of one doubling
    run, holds (angles, levels, Theta') of every earlier call: they take the
    place of the scan's interior as brackets for this call, and this call's
    nodes are appended.  The levels of a doubling run interleave, so each
    target starts on the bracket of its two neighbouring levels, whose values
    stand for Theta there (off by at most the phase tolerance or the ulp exit,
    far less than a level step); the phase's kept scan does not change.  The
    sampled build of frostman N = 128 (8 levels per winding of z^N B, then
    doublings) takes 2.0 phase rows per node so, scan included, against 2.34
    from the scan alone.
    """
    N = phase.blaschke.degree
    levels = TWO_PI * (np.arange(count * N) + offset) / count
    # a level below Theta(0) is reached one full winding later
    targets = np.where(levels < phase._anchor, levels + TWO_PI * N, levels)
    brackets = phase.bracket_scan()
    if solved:
        known = [np.concatenate(part) for part in zip(*solved)]
        order = np.argsort(known[1])
        brackets = tuple(np.concatenate((a[:1], b[order], a[-1:])) for a, b in zip(brackets, known))
    nodes, slopes, residuals = np.empty((3, len(targets)))
    for start in range(0, len(targets), PHASE_TARGETS):
        block = slice(start, start + PHASE_TARGETS)
        nodes[block], slopes[block], residuals[block] = invert_phase(phase, targets[block], brackets)
    if solved is not None:
        solved.append((nodes, targets, slopes))
    return nodes, slopes, residuals


# ---------------------------------------------------------------------------
# the orthonormal basis
# ---------------------------------------------------------------------------

def tmw_matrix(B: FiniteBlaschke, angles: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Orthonormal-basis sample matrix E with E[m, i] = e_i(e^{i angles[m]}).

    Basis functions are partial products times normalized Cauchy kernels:
    e_i = (b_0 ... b_{i-1}) * sqrt(1-|lam_i|^2)/(1 - conj(lam_i) z).  The
    samples are written basis-major, one contiguous row per e_i, into
    ``out`` (a C-contiguous N x angles array) if given, and E is the
    transposed view of that array: ``E.T`` is C-contiguous.

    The kernel c/(1 - conj(lam) z) and the factor sigma (z - lam)/(1 - conj(lam) z)
    of a repeated zero are formed once, at its first position, and reused at
    its repeats (frostman_fast at N = 128 has 35 distinct zeros): the same
    operations on the same inputs, so every row is as if formed anew.
    """
    z = np.exp(1j * np.asarray(angles, dtype=float))
    N = B.degree
    rows = np.empty((N, len(z)), dtype=complex) if out is None else out
    pref = np.ones_like(z)
    counts = B._distinct[1]
    repeated = (counts > 1)[B._which].tolist()
    which = B._which.tolist()
    samples = [None] * len(counts)  # (kernel, factor) of each repeated distinct zero
    for i in range(N):
        if samples[which[i]] is not None:
            kernel, factor = samples[which[i]]
            np.multiply(pref, kernel, out=rows[i])
            pref *= factor
            continue
        lam = B.zeros[i]
        inv = 1.0 / (1.0 - np.conj(lam) * z)  # one division, two products
        kernel = B._cnorm[i] * inv
        np.multiply(pref, kernel, out=rows[i])
        inv *= z - lam
        inv *= B._sigma[i]
        pref *= inv
        if repeated[i]:
            samples[which[i]] = (kernel, inv)
    return rows.T


# ---------------------------------------------------------------------------
# partial angular sums
# ---------------------------------------------------------------------------

def angular_partial_sums(seq: ZeroSequence, grid: np.ndarray, J: int) -> np.ndarray:
    """sum_j (1-|lam_j|^2)/|zeta - lam_j|^2 over j < J at each grid angle zeta.

    One loop adds the ``_poisson_sum`` of each block of zeros to the sums.
    A rule in ``BARE_RULES`` forms its zeros and their ``exact_defects`` four
    kernel blocks at a time (``_bare_blocks``), so the working memory is
    bounded whatever J is.  Any other rule gives one block, its distinct form
    with multiplicities (``DistinctZeros``: 35 for 10^5 frostman_fast zeros)."""
    if J < 1:
        raise ValueError("J must be >= 1")
    angles = np.asarray(grid, dtype=float)
    if len(angles) == 0:
        raise ValueError("empty grid")
    if seq.kind in BARE_RULES:
        blocks = ((zeros, None) for zeros in _bare_blocks(seq, J, 4 * max(1, POISSON_CELLS // len(angles))))
    else:
        lam = distinct_zeros(seq, J)
        blocks = [(lam.distinct, lam.counts)]
    sums = np.zeros(len(angles))
    for zeros, counts in blocks:
        _poisson_sum(angles, zeros, exact_defects(zeros), counts, sums)
    return sums
