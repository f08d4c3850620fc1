"""Finite Blaschke products: zero-sequence generators, boundary evaluation,
angular derivatives, the boundary phase and its inverse, the
Takenaka-Malmquist-Walsh basis, and partial Poisson sums along a zero sequence.

Everything here is a pure function of immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from typing import Sequence

import numpy as np

TWO_PI = 2.0 * math.pi

#: 2 pi - TWO_PI, the part of 2 pi that the double TWO_PI rounds away
#: (Cody-Waite: 2 pi = TWO_PI + TWO_PI_TAIL to about 1e-32)
TWO_PI_TAIL = 2.4492935982947064e-16

#: generators keep zeros strictly inside the disk so that boundary kernels
#: stay resolvable in double precision
RADIUS_CAP = 1.0 - 1e-6

GENERATOR_TAGS = (
    "uniform_zero",
    "constant_modulus",
    "alternating_3k",
    "frostman_fast",
    "dense_nonblaschke",
    "explicit",
)

#: angle rules of the constant_modulus generator
PHASE_RULES = ("equispaced", "golden", "random")


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

def _van_der_corput(n: int) -> np.ndarray:
    """First n points of the base-2 van der Corput sequence (in [0, 1)).
    Point i + 2^k is point i plus 2^-(k+1) for i < 2^k; the sums are dyadic,
    so exact."""
    out = np.zeros(n)
    size, step = 1, 0.5
    while size < n:
        np.add(out[:min(size, n - size)], step, out=out[size:2 * size])
        size, step = 2 * size, 0.5 * step
    return out


class DistinctZeros:
    """A zero list in distinct form: ``distinct`` holds each distinct zero
    once, sorted as ``np.unique`` sorts complex values, ``counts`` their
    multiplicities and ``which`` the index of each zero's distinct zero, so
    that zeros == distinct[which].  ``zeros`` is the list itself: the one it
    was folded from (``fold``), else distinct[which]."""

    __slots__ = ("distinct", "counts", "which", "_zeros")

    def __init__(self, distinct: np.ndarray, counts: np.ndarray, which: np.ndarray,
                 zeros: np.ndarray | None = None):
        self.distinct, self.counts, self.which, self._zeros = distinct, counts, which, zeros

    @staticmethod
    def fold(zeros: np.ndarray) -> "DistinctZeros":
        """The distinct form of a bare zero array, by ``np.unique``."""
        distinct, which, counts = np.unique(zeros, return_inverse=True, return_counts=True)
        return DistinctZeros(distinct, counts, which, zeros)

    @staticmethod
    def runs(values: np.ndarray, lengths: np.ndarray) -> "DistinctZeros":
        """The distinct form of the zeros values[0] repeated lengths[0] times,
        then values[1] repeated lengths[1] times, and so on (every length
        positive): only the run values are folded."""
        folded = DistinctZeros.fold(values)
        counts = np.zeros(len(folded.distinct), dtype=np.intp)
        np.add.at(counts, folded.which, lengths)
        return DistinctZeros(folded.distinct, counts, np.repeat(folded.which, lengths))

    @staticmethod
    def cycle(head: np.ndarray, start: int, count: int) -> "DistinctZeros":
        """The distinct form of the first count zeros of head, then
        head[start:], head[start:], ...: only the head is folded."""
        folded = DistinctZeros.fold(head)
        period = len(head) - start
        reps = -(-(count - len(head)) // period) if count > len(head) else 0
        which = np.empty(len(head) + reps * period, dtype=np.intp)
        which[:len(head)] = folded.which
        if reps:
            which[len(head):].reshape(reps, period)[:] = folded.which[start:]
        which = which[:count]
        return DistinctZeros(folded.distinct, np.bincount(which, minlength=len(folded.distinct)), which)

    @property
    def zeros(self) -> np.ndarray:
        return self.distinct[self.which] if self._zeros is None else self._zeros


@dataclass(frozen=True)
class ZeroSequence:
    """Deterministic rule producing zeros in the open unit disk.

    The same (kind, params, seed) always yields the same prefix, whatever
    length is requested, and every rule puts the first zero at the origin.
    """

    kind: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    explicit_zeros: tuple = ()

    def __post_init__(self):
        if self.kind not in GENERATOR_TAGS:
            raise ValueError(
                f"unknown generator tag {self.kind!r}; valid tags: {', '.join(GENERATOR_TAGS)}"
            )

    # -- constructors -------------------------------------------------

    @staticmethod
    def uniform_zero() -> "ZeroSequence":
        return ZeroSequence("uniform_zero")

    @staticmethod
    def constant_modulus(r: float, phase_rule: str = "equispaced", seed: int = 0) -> "ZeroSequence":
        return ZeroSequence("constant_modulus", {"r": float(r), "phase_rule": phase_rule}, seed=seed)

    @staticmethod
    def alternating_3k(lam: float) -> "ZeroSequence":
        return ZeroSequence("alternating_3k", {"lam": float(lam)})

    @staticmethod
    def frostman_fast(directions: int = 4) -> "ZeroSequence":
        return ZeroSequence("frostman_fast", {"directions": int(directions)})

    @staticmethod
    def dense_nonblaschke(gamma: float = 0.6180339887) -> "ZeroSequence":
        return ZeroSequence("dense_nonblaschke", {"gamma": float(gamma)})

    @staticmethod
    def from_points(points: Sequence[complex]) -> "ZeroSequence":
        return ZeroSequence("explicit", explicit_zeros=tuple(complex(p) for p in points))

    # -- generation ----------------------------------------------------

    def zeros(self, count: int) -> np.ndarray:
        return generate_zeros(self, count)


def _frostman_zeros(j: np.ndarray, ndir: int) -> np.ndarray:
    rad = np.minimum(1.0 - (j + 1.0) ** -4, RADIUS_CAP)
    return rad * np.exp(1j * (TWO_PI * (j % ndir) / ndir))


def _rule_zeros(spec: ZeroSequence, count: int) -> np.ndarray | DistinctZeros:
    """The first ``count`` zeros of the rule: in distinct form where they
    repeat, computed from the rule's few distinct zeros and its index map;
    as a bare array where the rule makes them distinct (dense_nonblaschke
    and constant_modulus) or gives no rule (explicit, folded).  Checked to
    start at the origin and to lie strictly inside the disk."""
    if count < 1:
        raise ValueError("count must be >= 1")
    kind, p = spec.kind, spec.params

    if kind == "uniform_zero":
        lam = DistinctZeros.runs(np.zeros(1, dtype=complex), [count])

    elif kind == "constant_modulus":
        r = float(p.get("r", 0.5))
        if not 0.0 < r < 1.0:
            raise ValueError(f"constant_modulus needs r in (0,1), got {r}")
        rule = p.get("phase_rule", "equispaced")
        j = np.arange(count)
        if rule == "equispaced":
            # base-2 van der Corput: every prefix of length 2^k is equispaced
            # and extending the sequence never moves earlier points
            phases = TWO_PI * _van_der_corput(count)
        elif rule == "golden":
            phases = TWO_PI * ((j * 0.6180339887498949) % 1.0)
        elif rule == "random":
            rng = np.random.default_rng(spec.seed)
            phases = TWO_PI * rng.random(count)
        else:
            raise ValueError(f"unknown phase_rule {rule!r}")
        lam = np.where(j == 0, 0.0, r * np.exp(1j * phases))

    elif kind == "alternating_3k":
        lam0 = float(p.get("lam", 0.5))
        if not 0.0 < lam0 < 1.0:
            raise ValueError(f"alternating_3k needs lam in (0,1), got {lam0}")
        # block rule: indices 3^{k-1} < j <= 3^k carry +lam for odd k,
        # -lam for even k; j = 0 and j = 1 stay at the origin.  Runs: the
        # origin for j < 2, then block k up to min(3^k, count - 1)
        values, ends, k = [0.0], [min(2, count)], 1
        while ends[-1] < count:
            values.append(lam0 if k % 2 == 1 else -lam0)
            ends.append(min(3 ** k + 1, count))
            k += 1
        lam = DistinctZeros.runs(np.array(values, dtype=complex), np.diff(ends, prepend=0))

    elif kind == "frostman_fast":
        ndir = int(p.get("directions", 4))
        if ndir < 1:
            raise ValueError("frostman_fast needs directions >= 1")
        # radii grow with j, and (cap + 1)^-4 lies well below 1 - RADIUS_CAP:
        # from j = cap on every radius is the cap, and zero j repeats zero
        # cap + (j - cap) % ndir
        cap = int((1.0 - RADIUS_CAP) ** -0.25) + 1
        lam = DistinctZeros.cycle(_frostman_zeros(np.arange(min(count, cap + ndir)), ndir), cap, count)

    elif kind == "dense_nonblaschke":
        gamma = float(p.get("gamma", 0.6180339887))
        j = np.arange(count)
        rad = np.minimum(1.0 - 1.0 / (j + 1.0), RADIUS_CAP)
        lam = rad * np.exp(1j * TWO_PI * ((j * gamma) % 1.0))

    elif kind == "explicit":
        pts = np.asarray(spec.explicit_zeros, dtype=complex)
        if len(pts) < count:
            raise ValueError(f"explicit sequence has {len(pts)} zeros, {count} requested")
        lam = DistinctZeros.fold(pts[:count].copy())

    else:  # pragma: no cover - guarded in __post_init__
        raise ValueError(f"unknown generator tag {kind!r}")

    first, values = (lam[0], lam) if isinstance(lam, np.ndarray) else (lam.distinct[lam.which[0]], lam.distinct)
    if abs(first) != 0.0:
        raise ValueError("sequence must start at the origin")
    if np.abs(values).max(initial=0.0) >= 1.0:
        raise ValueError("zeros must lie strictly inside the unit disk")
    return lam


def generate_zeros(spec: ZeroSequence, count: int) -> np.ndarray:
    """Produce the first ``count`` zeros of the sequence rule.

    All rules return an array starting with 0 and with every modulus
    strictly below 1 (capped at ``RADIUS_CAP``).
    """
    lam = _rule_zeros(spec, count)
    return lam if isinstance(lam, np.ndarray) else lam.zeros


def distinct_zeros(spec: ZeroSequence, count: int) -> DistinctZeros:
    """The first ``count`` zeros of the sequence rule in distinct form: in
    closed form for the repeating rules (uniform_zero, alternating_3k,
    frostman_fast), folded by ``DistinctZeros.fold`` for the others."""
    lam = _rule_zeros(spec, count)
    return DistinctZeros.fold(lam) if isinstance(lam, np.ndarray) else lam


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
    sequence rule (``from_sequence``), or the bare zero list folded by
    ``DistinctZeros.fold``."""

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
        object.__setattr__(self, "_phases", np.angle(z))
        object.__setattr__(self, "_sigma", sigma)
        # the one place that forms a zero's defect d = 1 - |lambda|^2: once per
        # distinct zero, correctly rounded, with p = d/(1 + |lambda|) (1 - |lambda|
        # to rounding) and the kernel norm c = sqrt(d) of each zero
        if runs is None:
            runs = DistinctZeros.fold(z)
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
#: bit-identical values; the product took 26 and 47 ms against 10 and 20 ms
PHASE_BLOCK = 1 << 15


def eval_blaschke_folded(B: FiniteBlaschke, angles) -> np.ndarray:
    """Values of B at e^{i angles}, for an angle array of any shape, from one
    factor per distinct zero raised to its multiplicity (frostman_fast at
    N = 128 has 35 distinct zeros).

    With t = tan((angle - psi)/2), q = (1 + r) t and the product's
    p = (1 - |lambda|^2)/(1 + r), the factor of r e^{i psi} is
    (p + iq)^2/(p^2 + q^2): one tangent per zero x angle cell and rational
    arithmetic.  Next to a near-circle zero p and q are both small and keep
    their relative accuracy, where (z - lam)/(1 - conj(lam) z) loses
    eps/|z - lam|.  The tangent takes the angle difference unreduced: reducing
    it by a rounded 2*pi moves the factor by |B'| times that rounding.  Blocks
    of at most PHASE_BLOCK cells are multiplied along the zero axis."""
    uniq, counts = B._distinct
    p, q, psi = B._p[:, None], (1.0 + np.abs(uniq))[:, None], np.angle(uniq)[:, None]
    repeated = np.nonzero(counts > 1)[0]
    th = np.asarray(angles, dtype=float)
    flat = th.reshape(-1)
    out = np.empty(flat.shape, dtype=complex)
    step = max(1, PHASE_BLOCK // len(uniq))
    for start in range(0, flat.size, step):
        qt = q * np.tan(0.5 * (flat[None, start:start + step] - psi))
        inv = p * p + qt * qt
        np.divide(1.0, inv, out=inv)
        factors = np.empty(qt.shape, dtype=complex)
        np.multiply(p * p - qt * qt, inv, out=factors.real)
        np.multiply(2.0 * p * qt, inv, out=factors.imag)
        if len(repeated):
            factors[repeated] **= counts[repeated, None]
        out[start:start + step] = np.prod(factors, axis=0)
    return out.reshape(th.shape)


def abs_derivative_grid(B: FiniteBlaschke, angles: np.ndarray) -> np.ndarray:
    """|B'| on the circle: sum of Poisson kernels at the zeros.

    The squared distance to each zero is formed from Cartesian coordinates
    (never from 1 + r^2 - 2r cos, which cancels catastrophically for zeros
    within ~1e-8 of the circle), and the numerator is the product's
    1 - |lambda|^2.  Repeated zeros are folded into one pass with a
    multiplicity weight; scratch buffers are reused across zeros, so the
    cost is six in-place vector passes per distinct zero.
    """
    th = np.asarray(angles, dtype=float)
    cos_t, sin_t = np.cos(th), np.sin(th)
    uniq, counts = B._distinct
    out = np.zeros_like(th)
    dx = np.empty_like(th)
    dy = np.empty_like(th)
    for lam, weight in zip(uniq, counts * B._defects):
        if lam == 0:
            out += weight
            continue
        np.subtract(cos_t, lam.real, out=dx)
        np.multiply(dx, dx, out=dx)
        np.subtract(sin_t, lam.imag, out=dy)
        np.multiply(dy, dy, out=dy)
        np.add(dx, dy, out=dx)
        np.divide(weight, dx, out=dx)
        np.add(out, dx, out=out)
    return out


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
    and can return Theta' = |B'| and Theta'' from the same tangents as Theta.
    Each factor takes the product's p and 1 - |lambda|^2, and the anchor
    Theta(0) is the argument of B(1) from ``eval_blaschke_folded``, so Theta
    and B agree next to zeros 1e-10 from the circle.
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
        mult = counts[order].astype(float)
        self._lift = 2.0 * mult
        self._p = B._p[order]
        self._pc, self._qc, self._two_rc = self._p[:, None], (1.0 + r)[:, None], (2.0 * r)[:, None]
        # numerators of the Poisson kernels and of the curvature terms
        self._poisson = mult * B._defects[order]
        self._curve = -4.0 * r * self._poisson
        b1 = complex(eval_blaschke_folded(B, 0.0))
        self._anchor = math.atan2(b1.imag, b1.real) % TWO_PI
        # each factor's lift term at angle 0, from the code path of a call,
        # so that Theta(0) is the anchor exactly
        self._offsets = 0.0
        self._offsets = self._terms(np.zeros(1), *(np.empty((len(r), 1)) for _ in range(3))).copy()
        self._scan = None

    def _half_differences(self, th, t):
        """Fill t, one row per distinct zero, with (th - psi)/2 up to a
        multiple of pi for the angles th in [-pi, 2 pi], with one rounding
        relative to the distance of th - psi from the nearest multiple of 2 pi.

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

    def _terms(self, th, t, t2, lift):
        """Fill t with tan h, h = (th - psi)/2 (``_half_differences``), t2
        with t^2 and lift with each factor's lift term
        arctan(2rt/(p + (1+r)t^2)) less its value at angle 0, one row per
        distinct zero and one column per angle th in [-pi, 2 pi]; returns
        lift."""
        h = self._half_differences(th, t)
        np.tan(h, out=t)
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
        # the lift terms are 2 pi periodic: an angle outside [-pi, 2 pi]
        # enters them reduced into [0, 2 pi), on its own, before any zero's
        # angle is subtracted
        reduced = th
        if len(th) and (th.min() < -np.pi or th.max() > TWO_PI):
            reduced = np.where((th >= -np.pi) & (th <= TWO_PI), th, np.mod(th, TWO_PI))
        out = np.empty(th.shape)
        N = float(self.blaschke.degree)
        z = len(self._r)
        step = max(1, PHASE_BLOCK // z)
        buffers = [np.empty(z * min(step, len(th))) for _ in range(3)]
        for start in range(0, len(th), step):
            rows = slice(start, start + step)
            count = len(th[rows])
            t, t2, lift = (b[:z * count].reshape(z, count) for b in buffers)
            self._terms(reduced[rows], t, t2, lift)
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


def invert_phase(phase: PhaseFunction, targets, known: tuple | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Angles in [0, 2*pi] where Theta takes the targets, each in [Theta(0),
    Theta(0) + 2*pi*N], and Theta' = |B'| there.  The phase's bracket scan
    (``PhaseFunction.bracket_scan``, formed once per phase) brackets every
    target and starts it from the inverse cubic Hermite interpolant of the
    scan on its bracket (the bracket midpoint if that falls outside).
    Halley steps (Theta' = |B'| >= 1 and Theta'' come with each phase
    evaluation), safeguarded by bisection, then polish all targets at once.

    ``known``, arrays (angles, levels, Theta') of nodes that earlier
    inversions solved, takes the place of the scan's interior as brackets,
    for this call only: the levels of a doubling run interleave, so each
    target starts on the bracket of its two neighbouring levels, whose
    values stand for Theta there (off by at most the phase tolerance or the
    ulp exit, far less than a level step).  The phase's kept scan does not
    change.

    Theta' comes from the evaluation that accepted each angle; only angles
    moved after their last evaluation, at the 1e-15 bracket exit, are
    evaluated again."""
    N = phase.blaschke.degree
    targets = np.asarray(targets, dtype=float)
    grid, vals, slopes = phase.bracket_scan()
    if known is not None:
        order = np.argsort(known[1])
        grid, vals, slopes = (np.concatenate((a[:1], b[order], a[-1:])) for a, b in zip((grid, vals, slopes), known))
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
    active = np.ones(len(targets), dtype=bool)
    moved = np.zeros(len(targets), dtype=bool)  # left at the bracket after a move
    theta_prime = np.empty(len(targets))
    for _ in range(200):
        sub = np.nonzero(active)[0]
        derivs = np.empty((2, len(sub)))
        err = phase(theta[sub], derivs) - targets[sub]
        theta_prime[sub] = derivs[0]
        neg = err < 0.0
        lo[sub[neg]] = theta[sub[neg]]
        hi[sub[~neg]] = theta[sub[~neg]]
        done = np.abs(err) <= tol
        still = sub[~done]
        active[sub[done]] = False
        if not len(still):
            break
        err, slope, curve = err[~done], derivs[0, ~done], derivs[1, ~done]
        # Halley: the Newton step over 1 - err Theta''/(2 Theta'^2); where that
        # factor falls to 1/2 or below, the plain Newton step
        newton = err / slope
        factor = 1.0 - 0.5 * newton * curve / slope
        step = np.where(factor > 0.5, newton / factor, newton)
        # inside a phase spike |B'| * ulp exceeds tol: stop there once the
        # step is below the 1e-15 bracket width that ends bisection
        tiny = np.abs(step) <= 1e-15
        active[still[tiny]] = False
        still, step = still[~tiny], step[~tiny]
        halley = theta[still] - step
        mid = 0.5 * (lo[still] + hi[still])
        inside = (halley > lo[still]) & (halley < hi[still])
        theta[still] = np.where(inside, halley, mid)
        width_done = (hi[still] - lo[still]) <= 1e-15
        if np.any(width_done):
            active[still[width_done]] = False
            moved[still[width_done]] = True
    # angles never evaluated since their last move: the bracket exits, and
    # any target still active when the iteration cap ends the loop
    stale = np.nonzero(moved | active)[0]
    if len(stale):
        derivs = np.empty((2, len(stale)))
        phase(theta[stale], derivs)
        theta_prime[stale] = derivs[0]
    return theta, theta_prime


def phase_nodes(phase: PhaseFunction, count: int, offset: float = 0.0,
                solved: list | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Theta^{-1} of the count*N levels 2*pi*(k + offset)/count, in [0, 2*pi],
    and Theta' = |B'| at them (see ``invert_phase``).

    Theta carries |B'| dm onto uniform measure, so these are equal-weight nodes
    of nu = |B'|/N dm, and weighted by N/|B'| nodes of dm.  They are also the
    atoms of the Clark measures at alpha_j = e^{2 pi i (j + offset)/count}:
    ``reshape(N, count)`` puts alpha_j in column j.

    ``solved``, a list kept by the caller across the levels of one doubling
    run, holds (angles, levels, Theta') of every earlier call: they bracket
    this call's targets (``invert_phase``'s ``known``), and this call's nodes
    are appended.  The sampled build of frostman N = 128 (8 levels per winding
    of z^N B, then doublings) takes 2.0 phase rows per node so, scan
    included, against 2.34 from the scan alone.
    """
    N = phase.blaschke.degree
    levels = TWO_PI * (np.arange(count * N) + offset) / count
    # a level below Theta(0) is reached one full winding later
    targets = np.where(levels < phase._anchor, levels + TWO_PI * N, levels)
    known = tuple(np.concatenate(part) for part in zip(*solved)) if solved else None
    nodes, slopes = invert_phase(phase, targets, known)
    if solved is not None:
        solved.append((nodes, targets, slopes))
    return nodes, slopes


# ---------------------------------------------------------------------------
# the orthonormal basis
# ---------------------------------------------------------------------------

def tmw_matrix(B: FiniteBlaschke, angles: np.ndarray) -> np.ndarray:
    """Orthonormal-basis sample matrix E with E[m, i] = e_i(e^{i angles[m]}).

    Basis functions are partial products times normalized Cauchy kernels:
    e_i = (b_0 ... b_{i-1}) * sqrt(1-|lam_i|^2)/(1 - conj(lam_i) z).  The
    samples are written basis-major, one contiguous row per e_i, and E is the
    transposed view of that (N x angles) array: ``E.T`` is C-contiguous.

    The kernel c/(1 - conj(lam) z) and the factor sigma (z - lam)/(1 - conj(lam) z)
    of a repeated zero are formed once, at its first position, and reused at
    its repeats (frostman_fast at N = 128 has 35 distinct zeros): the same
    operations on the same inputs, so every row is as if formed anew.
    """
    z = np.exp(1j * np.asarray(angles, dtype=float))
    N = B.degree
    rows = np.empty((N, len(z)), dtype=complex)
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

@dataclass(frozen=True)
class AngularDiagnostics:
    """Running Poisson-kernel sums along a zero sequence, per grid point.

    ``checkpoints`` are term counts (powers of two up to J, then J itself);
    ``partial_sums[p, c]`` is the sum of the first checkpoints[c] terms at
    grid point p.  ``first_crossing[t][p]`` is the smallest term count at
    which the running sum at point p exceeds thresholds[t], or -1.
    """

    grid: np.ndarray            # angles
    checkpoints: np.ndarray     # term counts
    partial_sums: np.ndarray    # (len(grid), len(checkpoints))
    thresholds: tuple
    first_crossing: np.ndarray  # (len(thresholds), len(grid)), -1 = not crossed


#: zeros per block of ``angular_partial_sums``: 2 MB per float temporary on
#: the 64-point grid of the shipped configs
ANGULAR_BLOCK = 4096


def _poisson_terms(x: np.ndarray, y: np.ndarray, zeros: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """(1 - |lam|^2)/|zeta - lam|^2 per point x zero, in buf[0] of a
    (2, points, zeros) buffer, from the Cartesian parts of zeta = x + iy and
    lam and the correctly rounded ``exact_defects``, as in
    ``abs_derivative_grid``."""
    out, dy = buf
    np.subtract(y, zeros.imag, out=dy)
    np.multiply(dy, dy, out=dy)
    np.subtract(x, zeros.real, out=out)
    np.multiply(out, out, out=out)
    out += dy
    return np.divide(exact_defects(zeros), out, out=out)


def angular_partial_sums(seq: ZeroSequence, grid: np.ndarray, J: int,
                         thresholds: Sequence[float] = (1e2, 1e3)) -> AngularDiagnostics:
    """Accumulate sum_j (1-|lam_j|^2)/|zeta - lam_j|^2 over j < J per grid point.

    The rule gives its zeros in distinct form where they repeat
    (``DistinctZeros``: frostman_fast has 35 distinct zeros in 10^5, formed
    with no 10^5-element complex array).  With D distinct zeros and C
    checkpoints, such a sequence is folded when D C < J: each distinct zero's
    term is formed once per grid point, and a checkpoint is the pairwise sum
    of those terms times each zero's count in its prefix.  Any other sequence
    is streamed: each block of ANGULAR_BLOCK zeros adds its row sums (pairwise)
    to the running sums, and a checkpoint inside the block is the running sum
    plus a prefix sum of the block's terms.  Either way the terms are
    ``_poisson_terms``, and a first crossing is a ``searchsorted`` on a
    cumulative sum of the terms (monotone, as they are positive), formed only
    for a row that passes a threshold in a streamed block or in a folded
    checkpoint interval."""
    if J < 1:
        raise ValueError("J must be >= 1")
    angles = np.asarray(grid, dtype=float)
    if len(angles) == 0:
        raise ValueError("empty grid")
    x, y = np.cos(angles)[:, None], np.sin(angles)[:, None]
    lam = _rule_zeros(seq, J)

    checkpoints = [1]
    while checkpoints[-1] * 2 <= J:
        checkpoints.append(checkpoints[-1] * 2)
    if checkpoints[-1] != J:
        checkpoints.append(J)
    checkpoints = np.asarray(checkpoints)
    thresholds = tuple(float(t) for t in thresholds)

    if isinstance(lam, DistinctZeros) and len(lam.distinct) * len(checkpoints) < J:
        partial, crossing = _folded_sums(x, y, lam.distinct, lam.which, checkpoints, thresholds)
    else:
        zeros = lam if isinstance(lam, np.ndarray) else lam.zeros
        partial, crossing = _streamed_sums(x, y, zeros, checkpoints, thresholds)
    return AngularDiagnostics(angles, checkpoints, partial, thresholds, crossing)


def _first_crossing(running: np.ndarray, bound: float) -> int:
    """Index of the first running sum above ``bound``, at most the last one:
    a crossing that only the checkpoint or row sum sees, as they round apart
    from the cumulative sum, falls on the last term."""
    return min(int(np.searchsorted(running, bound, side="right")), len(running) - 1)


def _streamed_sums(x, y, lam, checkpoints, thresholds):
    """Checkpoint sums and first crossings of every zero's term, in blocks."""
    P, J = len(x), len(lam)
    sums = np.zeros(P)
    partial = np.zeros((P, len(checkpoints)))
    crossing = np.full((len(thresholds), P), -1, dtype=int)
    buf = np.empty((2, P, min(ANGULAR_BLOCK, J)))
    next_cp = 0
    for start in range(0, J, ANGULAR_BLOCK):
        stop = min(start + ANGULAR_BLOCK, J)
        terms = _poisson_terms(x, y, lam[start:stop], buf[:, :, :stop - start])
        while next_cp < len(checkpoints) and checkpoints[next_cp] <= stop:
            partial[:, next_cp] = sums + terms[:, :checkpoints[next_cp] - start].sum(axis=1)
            next_cp += 1
        total = sums + terms.sum(axis=1)
        for t, bound in enumerate(thresholds):
            for p in np.nonzero((crossing[t] < 0) & (total > bound))[0]:
                crossing[t, p] = start + _first_crossing(sums[p] + np.cumsum(terms[p]), bound) + 1
        sums = total
    return partial, crossing


def _folded_sums(x, y, distinct, which, checkpoints, thresholds):
    """Checkpoint sums and first crossings from the terms of the distinct
    zeros, where lam == distinct[which]."""
    buf = np.empty((2, len(x), len(distinct)))
    terms, weighted = _poisson_terms(x, y, distinct, buf), buf[1]
    # counts[d]: occurrences of distinct zero d among the first `stop` zeros
    counts = np.zeros(len(distinct))
    partial = np.empty((len(x), len(checkpoints)))
    start = 0
    for c, stop in enumerate(checkpoints):
        counts += np.bincount(which[start:stop], minlength=len(distinct))
        partial[:, c] = np.multiply(terms, counts, out=weighted).sum(axis=1)
        start = stop
    # the weighted sums grow with the checkpoint (rounding is monotone), so
    # the first checkpoint above a bound closes the interval of its crossing
    crossing = np.full((len(thresholds), len(x)), -1, dtype=int)
    for t, bound in enumerate(thresholds):
        above = partial > bound
        for p in np.nonzero(above[:, -1])[0]:
            c = int(np.argmax(above[p]))
            start, base = (checkpoints[c - 1], partial[p, c - 1]) if c else (0, 0.0)
            running = base + np.cumsum(terms[p, which[start:checkpoints[c]]])
            crossing[t, p] = start + _first_crossing(running, bound) + 1
    return partial, crossing
