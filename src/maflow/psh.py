"""Admissible (omega-psh) potentials: catalog, margins, mollification, capacity, energy.

A potential phi is admissible when I + H(phi) >= 0 pointwise.  Rough initial
data enter the lab through a small catalog of closed-form models (kinks, log
poles, square-root log poles) plus arbitrary sampled fields, carrying a
declared regularity tag.  Rough data are never fed to the flow directly: they
go through the decreasing mollification ladder below.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NotKahlerError, RepairTooLargeError
from .geometry import VolumeForm, comps_eig_min, comps_mixed
from .grid import HermitianField, ScalarField, TorusGrid, gaussian_smooth, hessian_components

TAGS = ("smooth", "lipschitz", "bounded", "unbounded-zero-lelong", "unbounded-positive-lelong")
FLOW_ADMISSIBLE_TAGS = ("smooth", "lipschitz", "bounded", "unbounded-zero-lelong")
DEFAULT_FLOOR = -40.0
PSH_TOL = 1e-8


def psh_margin(phi: ScalarField, backend: str = "spectral") -> float:
    """min over the grid of the smallest eigenvalue of I + H(phi).

    Nonnegative (within tolerance) means phi is admissible at this resolution.
    Kinked data should be gated with the "fd" backend: centred differences see
    a convex kink as positive curvature, while truncated spectra ring.
    """
    comps = hessian_components(phi.values, phi.grid, backend)
    n = phi.grid.n
    if n == 1:
        return float(np.min(1.0 + comps[0]))
    total = (1.0 + comps[0], 1.0 + comps[1], comps[2])
    return float(np.min(comps_eig_min(total)))


# ---------------------------------------------------------------------------
# periodic radial proxy used by the pole models


def _periodic_sq_dist(coords, center):
    """Smooth periodic proxy for squared distance to `center`.

    ssq(z) = sum_i sin^2(pi (z_i - c_i)) / pi^2  ~  |z - c|^2 near the center.
    """
    acc = 0.0
    for x, c in zip(coords, center):
        s = np.sin(np.pi * (x - c))
        acc = acc + s * s
    return acc / np.pi**2


# ---------------------------------------------------------------------------
# rough potential catalog


@dataclass(frozen=True)
class RoughPotential:
    """Closed-form or sampled potential with a declared regularity tag.

    evaluator : callable taking one coordinate array per real axis and
        returning values; may produce -inf on the declared singular set.
    tag : one of smooth | lipschitz | bounded | unbounded-zero-lelong,
        plus the internal unbounded-positive-lelong for pole models that are
        deliberately inadmissible as flow data.
    singular_points : coordinates where the evaluator is allowed to blow down.
    floor : clamp applied when sampling onto a grid.
    """

    kind: str
    tag: str
    evaluator: object = field(repr=False)
    params: dict = field(default_factory=dict)
    singular_points: tuple = ()
    floor: float = DEFAULT_FLOOR

    def __post_init__(self):
        if self.tag not in TAGS:
            raise ConfigError(f"unknown regularity tag {self.tag!r}")

    def evaluate(self, *coords) -> np.ndarray:
        return self.evaluator(*coords)

    def sample(self, grid: TorusGrid) -> ScalarField:
        """Clamped grid sample; -inf on the singular set becomes the floor."""
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.asarray(
                np.broadcast_to(self.evaluate(*grid.coordinates()), grid.shape),
                dtype=np.float64,
            ).copy()
        bad = ~np.isfinite(vals)
        if np.any(vals[bad] > 0) or np.any(np.isnan(vals[bad])):
            raise ConfigError("potential evaluator produced +inf or NaN")
        vals[bad] = self.floor
        np.maximum(vals, self.floor, out=vals)
        return ScalarField(grid, vals)

    def flow_admissible(self) -> bool:
        return self.tag in FLOW_ADMISSIBLE_TAGS

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value: float = 0.0) -> "RoughPotential":
        return cls("constant", "smooth", lambda *c: np.float64(value), {"value": value})

    @classmethod
    def fourier_sum(cls, modes, n: int = 1) -> "RoughPotential":
        """Finite cosine sum: phi = sum_m  a_m cos(2 pi k_m . x + p_m).

        modes : iterable of (amplitude, wavevector, phase) with integer
        wavevectors of length 2n.
        """
        modes = tuple((float(a), tuple(int(v) for v in k), float(p)) for a, k, p in modes)
        for _, k, _ in modes:
            if len(k) != 2 * n:
                raise ConfigError(
                    f"wavevector {k} has length {len(k)}, expected {2 * n}"
                )

        def ev(*coords):
            acc = 0.0
            for a, k, p in modes:
                ph = p
                for ki, x in zip(k, coords):
                    if ki:
                        ph = ph + 2.0 * np.pi * ki * x
                acc = acc + a * np.cos(ph)
            return acc

        return cls("fourier-sum", "smooth", ev, {"modes": modes, "n": n})

    @classmethod
    def paraboloid(cls, curvature: float = 0.999, center=None, n: int = 1) -> "RoughPotential":
        """Lipschitz model -b * dist(z, center)^2 with the periodic distance.

        A max of downward paraboloids over lattice translates: kinked on the
        cut locus, complex Hessian -b elsewhere, so for b near 1 the form
        I + H sits at the edge of the cone on a set of full measure.  This
        is the datum that saturates the n log t derivative envelope; the
        cosine kink never does (its positivity margin stays at 1/2).
        """
        b = float(curvature)
        if not 0.0 < b <= 1.0:
            raise ConfigError("paraboloid curvature must lie in (0, 1]")
        c = tuple(center) if center is not None else (0.5,) * (2 * n)
        if len(c) != 2 * n:
            raise ConfigError(f"center needs {2 * n} coordinates")

        def ev(*coords):
            # true periodic squared distance, not the smooth cosine proxy:
            # the Hessian must equal -b a.e., with kinks only on the cut locus
            total = 0.0
            for x, x0 in zip(coords, c):
                d = np.abs(np.asarray(x, dtype=np.float64) - x0) % 1.0
                d = np.minimum(d, 1.0 - d)
                total = total + d * d
            return -b * total

        return cls("paraboloid", "lipschitz", ev, {"curvature": b, "center": c, "n": n})

    @classmethod
    def max_kink(cls, amplitude: float = 1.0 / (2.0 * np.pi**2)) -> "RoughPotential":
        """Lipschitz model max(a cos(2 pi x_1), 0); admissible for a <= 1/pi^2."""
        a = float(amplitude)
        return cls(
            "max-kink",
            "lipschitz",
            lambda *c: np.maximum(a * np.cos(2.0 * np.pi * c[0]), 0.0),
            {"amplitude": a},
        )

    @classmethod
    def log_pole(cls, gamma: float = 0.3, center=None, cap: float | None = None, n: int = 1):
        """Pole model gamma * log(dist to center), periodised away from the pole.

        The radial proxy agrees with |z - center| to second order, so the pole
        strength (Lelong number) at the center is exactly gamma.  With a finite
        cap the value is max(. , cap): bounded, and still admissible for small
        gamma.  Without a cap the model is tagged with a positive pole strength
        and is not accepted as flow data.
        """
        g = float(gamma)
        if g < 0:
            raise ConfigError("pole strength must be nonnegative")
        c = tuple(center) if center is not None else (0.0,) * (2 * n)

        def ev(*coords):
            ssq = _periodic_sq_dist(coords, c)
            with np.errstate(divide="ignore"):
                v = 0.5 * g * np.log(ssq)
            return v if cap is None else np.maximum(v, cap)

        tag = "bounded" if cap is not None else "unbounded-positive-lelong"
        return cls(
            "log-pole", tag, ev,
            {"gamma": g, "center": c, "cap": cap, "n": n},
            singular_points=(c,) if cap is None else (),
        )

    @classmethod
    def sqrt_log_pole(cls, amplitude: float = 0.1, center=None, n: int = 1):
        """Unbounded model -kappa sqrt(-log dist): zero pole strength.

        Unbounded below at the center yet with vanishing slope against log r,
        so the pole-strength estimate is ~ kappa / (2 sqrt(-log r)) -> 0.
        """
        k = float(amplitude)
        if k <= 0:
            raise ConfigError("amplitude must be positive")
        c = tuple(center) if center is not None else (0.0,) * (2 * n)

        def ev(*coords):
            ssq = _periodic_sq_dist(coords, c)
            with np.errstate(divide="ignore", invalid="ignore"):
                v = -k * np.sqrt(np.maximum(-0.5 * np.log(ssq), 0.0))
            return np.where(ssq > 0, v, -np.inf)

        return cls(
            "sqrt-log-pole", "unbounded-zero-lelong", ev,
            {"amplitude": k, "center": c, "n": n},
            singular_points=(c,),
        )

    @classmethod
    def from_field(cls, fld: ScalarField, tag: str) -> "RoughPotential":
        vals = fld.values

        def ev(*coords):
            return vals

        return cls("sampled", tag, ev, {"resolution": fld.grid.resolution, "n": fld.grid.n})


# ---------------------------------------------------------------------------
# decreasing mollification


@dataclass(frozen=True)
class RegularizationSchedule:
    """Strictly decreasing mollification widths; the last must resolve the grid."""

    deltas: tuple

    def __post_init__(self):
        d = tuple(float(x) for x in self.deltas)
        if len(d) < 1 or any(x <= 0 for x in d):
            raise ConfigError("need at least one positive width")
        if any(d[i + 1] >= d[i] for i in range(len(d) - 1)):
            raise ConfigError("widths must be strictly decreasing")
        object.__setattr__(self, "deltas", d)

    @classmethod
    def geometric(cls, delta0: float = 0.125, ratio: float = 0.5, levels: int = 5):
        return cls(tuple(delta0 * ratio**j for j in range(levels)))

    def validate_for_grid(self, grid: TorusGrid):
        if self.deltas[-1] < 2.0 * grid.spacing:
            raise ConfigError(
                f"smallest width {self.deltas[-1]:.4g} under-resolves spacing {grid.spacing:.4g}"
            )


def drift(n: int, delta: float) -> float:
    """Second-moment drift m(delta) = n delta^2 of the width-delta kernel."""
    return n * delta * delta


def _despike_floor(values: np.ndarray, floor: float) -> np.ndarray:
    """Replace floor-clamped entries by the deepest unclamped neighbour value.

    A clamped sample gives the singular point the weight of a full cell even
    though the sub-floor region of the potential has measure zero at any
    resolvable scale.  Smoothing the raw sample therefore manufactures a deep
    well that the underlying potential does not have; lifting the clamped
    entry to the smallest neighbouring unclamped value restores the correct
    weighting while staying below the local profile.
    """
    clamped = values <= floor + 1e-9
    if not clamped.any():
        return values
    out = values.copy()
    stacks, masks = [], []
    for ax in range(values.ndim):
        for s in (1, -1):
            stacks.append(np.roll(values, s, axis=ax))
            masks.append(np.roll(clamped, s, axis=ax))
    neighbours = np.where(np.stack(masks), np.inf, np.stack(stacks))
    repl = neighbours.min(axis=0)
    ok = clamped & np.isfinite(repl)
    out[ok] = repl[ok]
    return out


@dataclass
class MollificationLadder:
    """Decreasing smooth approximations of a rough potential."""

    grid: TorusGrid
    deltas: tuple
    levels: list          # ScalarField per width, pointwise non-increasing in j
    shifts: list          # constant repair applied per level (usually ~0)
    margins: list         # admissibility margin of each level
    base: ScalarField     # the clamped sample of the input


def mollify_decreasing(
    phi0,
    schedule: RegularizationSchedule,
    grid: TorusGrid = None,
    gate_tol: float = PSH_TOL,
) -> MollificationLadder:
    """Decreasing ladder phi_j = phi0 * rho_{delta_j} + n delta_j^2.

    The kernel is a periodised Gaussian of width delta; the quadratic drift
    n delta^2 is exactly the kernel's second moment applied to sum_j |z_j|^2,
    which dominates the curvature budget of an admissible potential, so the
    ladder is pointwise non-increasing as delta decreases.  Periodisation
    tails can break monotonicity at roundoff level; the smallest constant
    shift restoring order is added and reported, and a shift larger than
    10 * n delta_j^2 aborts (the input was not admissible).

    phi0 : RoughPotential (requires `grid`) or ScalarField.

    Floor-clamped entries (unbounded inputs) are lifted to the deepest
    unclamped neighbour before smoothing, and the admissibility gate is the
    margin of the sample pre-smoothed at four grid spacings: pointwise
    second differences straddling an unresolved singularity blow up like
    1/h^2 even for genuinely admissible potentials, while a bulk violation
    survives any amount of smoothing.
    """
    if isinstance(phi0, RoughPotential):
        if grid is None:
            raise ConfigError("sampling a closed-form potential needs a grid")
        base = phi0.sample(grid)
        floor = phi0.floor
    else:
        base = phi0
        grid = base.grid
        floor = DEFAULT_FLOOR
    schedule.validate_for_grid(grid)
    work = _despike_floor(base.values, floor)
    gate_width = 4.0 * grid.spacing
    gated = ScalarField(grid, gaussian_smooth(work, grid, gate_width))
    gate = psh_margin(gated, backend="spectral")
    if gate < -gate_tol:
        raise NotKahlerError(
            f"input is not admissible where sampled (smoothed margin {gate:.3e})",
            eigenvalue=gate,
        )

    n = grid.n
    fields = []
    for d in schedule.deltas:
        sm = gaussian_smooth(work, grid, d) + drift(n, d)
        fields.append(sm)

    shifts = [0.0] * len(fields)
    for j in range(len(fields) - 2, -1, -1):
        gap = float(np.max(fields[j + 1] - fields[j]))
        if gap > 0.0:
            allowance = 10.0 * drift(n, schedule.deltas[j])
            if gap > allowance:
                raise RepairTooLargeError(
                    f"monotonicity repair {gap:.3e} exceeds allowance {allowance:.3e}",
                    shift=gap,
                    allowance=allowance,
                )
            fields[j] = fields[j] + gap
            shifts[j] = gap

    levels, margins = [], []
    for vals in fields:
        fld = ScalarField(grid, vals)
        m = psh_margin(fld, backend="spectral")
        if m < -gate_tol:
            raise NotKahlerError(f"mollified level lost admissibility (margin {m:.3e})")
        levels.append(fld)
        margins.append(m)
    return MollificationLadder(
        grid, tuple(schedule.deltas), levels, tuple(shifts), tuple(margins), base
    )


# ---------------------------------------------------------------------------
# capacity


def capacity_lower_bound(
    grid: TorusGrid,
    mask: np.ndarray,
    dictionary_size: int = 32,
    seed: int = 0,
) -> float:
    """Certified lower bound for the Monge-Ampere capacity of the masked set.

    cap(K) = sup { integral_K det(I + H(psi)) : psi admissible, 0 <= psi <= 1 }.
    The bound maximises the integral over a seeded dictionary: the constant
    candidate (density one, so the bound is at least |K|) plus smooth periodic
    bump profiles rescaled into the admissible cone and normalised into [0,1].
    Candidates are generated in a fixed order, so the bound is monotone in the
    dictionary size; it is monotone in K because the integrand is nonnegative.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != grid.shape:
        raise ConfigError("mask shape does not match the grid")
    if not mask.any():
        return 0.0
    best = float(mask.mean())  # psi = const: MA density is 1
    rng = np.random.default_rng(seed)
    h = grid.spacing
    n = grid.n
    for _ in range(dictionary_size):
        center = rng.uniform(0.0, 1.0, size=grid.real_dim)
        width = rng.uniform(4.0 * h, 0.15)
        ssq = _periodic_sq_dist(grid.coordinates(), center)
        bump = -np.exp(-np.broadcast_to(ssq, grid.shape) / width**2)
        comps = hessian_components(bump, grid, "spectral")
        if n == 1:
            lam = float(np.min(comps[0]))
        else:
            lam = float(np.min(comps_eig_min(comps)))
        scale = 0.9 / max(-lam, 1e-30) if lam < 0 else 1.0
        u = scale * bump
        osc = float(u.max() - u.min())
        norm = max(osc, 1.0)
        scaled = tuple((scale / norm) * c for c in comps)
        if n == 1:
            dens = 1.0 + scaled[0]
        else:
            dens = comps_det((1.0 + scaled[0], 1.0 + scaled[1], scaled[2]))
        if float(np.min(dens)) < -PSH_TOL:
            continue  # numerically outside the cone; skip rather than clip
        best = max(best, float(np.where(mask, dens, 0.0).mean()))
    return best


# ---------------------------------------------------------------------------
# energy


def energy(
    theta: HermitianField,
    phi: ScalarField,
    omega_form: VolumeForm = None,
    backend: str = "spectral",
    tol: float = 1e-6,
) -> float:
    """Aubin-Yau style energy of phi against the form theta.

    E(phi) = 1/(n+1) * sum_{j=0..n} integral phi * (theta + H(phi))^j ^ theta^(n-j)

    against Lebesgue volume (the reference class has unit mass, so no extra
    normalisation).  Satisfies E(phi + c) = E(phi) + c and is monotone:
    phi <= psi pointwise implies E(phi) <= E(psi).  For unbounded potentials
    this is the energy of the clamped grid representative; callers should
    label it accordingly.  The volume form plays no role in the functional
    and is accepted only for interface symmetry with the flow.
    """
    grid = phi.grid
    comps = hessian_components(phi.values, grid, backend)
    alpha = tuple(t + h for t, h in zip(theta.components(), comps))
    worst = float(np.min(comps_eig_min(alpha)))
    if worst < -tol:
        raise NotKahlerError(f"theta + H(phi) leaves the cone (min eig {worst:.3e})")
    n = grid.n
    acc = 0.0
    for j in range(n + 1):
        dens = comps_mixed(alpha, theta.components(), j, n)
        acc += float(np.mean(phi.values * np.real(np.broadcast_to(dens, grid.shape))))
    return acc / (n + 1)
