"""Parameter extraction from |S21| sweeps by damped nonlinear least squares.

Supports the joint (shared-parameter) scheme used for multi-condition
datasets: a single mechanical frequency and linewidth can be tied across all
traces taken at one temperature while cavity frequency and linewidth stay
free per trace.  Residuals are magnitude differences; the optimizer is a
Levenberg-Marquardt loop with the exact Jacobian of |S21| (closed-form derivatives from one
evaluation of Q and N per dataset per trial; see :func:`residuals`), normal equations summed
from the blocks, scaled and decomposed, a flat penalty residual where the model rejects a point,
damping from 1e-2 and bound projection.
Positive rates (kappa, gamma_m, n_cav, g0) are optimized in log coordinates.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import InitVar, dataclass, field

import numpy as np

from .model import (
    PARAM_UNITS,
    TWO_PI,
    CavityParams,
    MechanicalParams,
    PumpConfig,
    PumpScheme,
    response_quadratic,
)
from .sweeps import SweepTrace

__all__ = [
    "PARAM_NAMES",
    "LOG_PARAMS",
    "FeatureNotFound",
    "UnderResolved",
    "InsufficientData",
    "ParamBinding",
    "FitDataset",
    "FitProblem",
    "FitResult",
    "residuals",
    "fit",
    "extract_linewidth",
]

PARAM_NAMES = tuple(PARAM_UNITS)

# Rates kept positive by optimizing their logarithm.
LOG_PARAMS = frozenset({"kappa", "gamma_m", "n_cav", "g0"})

# Residual value substituted when a trial point is singular/unphysical, large
# against O(1) magnitude residuals; it never enters the Jacobian.
PENALTY_RESIDUAL = 1e3

MAX_ITERATIONS = 200
INITIAL_DAMPING = 1e-2
DAMPING_FACTOR = 10.0
REL_REDUCTION_TOL = 1e-10
REL_STEP_TOL = 1e-10
# Eigenvalues of the scaled normal matrix (unit diagonal) below this: directions not determined.
RANK_TOL = 1e-10
MIN_POINTS_ACROSS_FWHM = 20


class FeatureNotFound(Exception):
    """No resolvable spectral feature in the trace."""


class UnderResolved(Exception):
    """Feature present but sampled by too few grid points for a width."""


class InsufficientData(Exception):
    """Fewer data points than adjustable parameters."""


@dataclass(frozen=True)
class ParamBinding:
    """How one physical parameter enters a fit.

    Attributes
    ----------
    name : str
        One of ``PARAM_NAMES``.
    mode : str
        "fixed" (held at ``init``), "free" (one slot per dataset) or
        "shared" (one slot per ``group`` across datasets).
    init : float
        Starting value; the held value for fixed bindings.  Angular units
        for frequencies/rates, a count for n_cav.
    lo, hi : float
        Bounds; must be finite for free/shared bindings.
    group : str or None
        Group id tying shared bindings together.
    """

    name: str
    mode: str
    init: float
    lo: float = -math.inf
    hi: float = math.inf
    group: str | None = None

    def __post_init__(self):
        if self.name not in PARAM_NAMES:
            raise ValueError(f"unknown parameter {self.name!r}")
        if self.mode not in ("fixed", "free", "shared"):
            raise ValueError(f"unknown binding mode {self.mode!r}")
        if not self.lo < self.hi:
            raise ValueError(f"{self.name}: bounds must satisfy lo < hi")
        if not (self.lo <= self.init <= self.hi):
            raise ValueError(f"{self.name}: init {self.init} outside bounds")
        if self.mode in ("free", "shared"):
            if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
                raise ValueError(f"{self.name}: free/shared bindings need finite bounds")
            if self.name in LOG_PARAMS and self.lo <= 0:
                raise ValueError(f"{self.name}: lower bound must be positive "
                                 "(optimized in log coordinates)")
        if self.mode == "shared" and not self.group:
            raise ValueError(f"{self.name}: shared binding needs a group id")

    @classmethod
    def fixed(cls, name, value):
        return cls(name, "fixed", value)

    @classmethod
    def free(cls, name, init, lo, hi):
        return cls(name, "free", init, lo, hi)

    @classmethod
    def shared(cls, name, group, init, lo, hi):
        return cls(name, "shared", init, lo, hi, group=group)


@dataclass
class FitDataset:
    """One trace plus its pump scheme and parameter bindings.

    ``bindings`` maps every name in ``PARAM_NAMES`` to its
    :class:`ParamBinding` (checked when the dataset joins a
    :class:`FitProblem`).  Of the trace only ``omega_d`` (pump), ``offsets``
    (its ``omega_p - omega_d``, the kernel's grid, with ``omega_p`` the absolute
    probe axis in rad/s) and ``data`` (|S21| samples) are kept.  A ``scheme``
    other than the one the trace's meta records is a ValueError.
    """

    trace: InitVar[SweepTrace]
    scheme: PumpScheme
    bindings: dict[str, ParamBinding]

    def __post_init__(self, trace):
        for name, b in self.bindings.items():
            if b.name != name:
                raise ValueError(f"binding key {name!r} does not match binding name {b.name!r}")
        if "pump_freq_hz" not in trace.meta:
            raise ValueError("trace meta must carry pump_freq_hz")
        if "scheme" in trace.meta and PumpScheme.parse(trace.meta["scheme"]) is not self.scheme:
            raise ValueError(f"trace recorded with scheme {trace.meta['scheme']!r} "
                             f"fitted as {self.scheme.value!r}")
        self.omega_d = TWO_PI * float(trace.meta["pump_freq_hz"])
        self.offsets = trace.omega
        self.data = trace.magnitude()

    @property
    def omega_p(self) -> np.ndarray:
        return self.omega_d + self.offsets

    @property
    def n_points(self) -> int:
        return len(self.data)


class FitProblem:
    """A set of datasets fitted together through their parameter bindings.

    Free bindings get one slot per dataset (``kappa[0]``); shared bindings
    one slot per (name, group) pair (``gamma_m@group``), which must be
    declared identically wherever it appears.  ``slot_params`` names the
    parameter of each slot in ``slot_names``; ``init_values``,
    ``lower_bounds`` and ``upper_bounds`` follow the same order.
    """

    def __init__(self, datasets):
        if not datasets:
            raise ValueError("need at least one dataset")
        self.datasets = list(datasets)
        slots: dict[str, ParamBinding] = {}
        self._slot_of: list[dict[str, int]] = []  # per dataset: each unfixed parameter's slot
        fixed = []  # the fixed values, by dataset and then in PARAM_NAMES order
        for i, ds in enumerate(self.datasets):
            missing = [n for n in PARAM_NAMES if n not in ds.bindings]
            if missing:
                raise ValueError(f"dataset {i}: bindings incomplete; missing {missing}")
            slot_of = {}
            for name in PARAM_NAMES:
                b = ds.bindings[name]
                if b.mode == "fixed":
                    fixed.append(float(b.init))
                    continue
                key = f"{name}[{i}]" if b.mode == "free" else f"{name}@{b.group}"
                prev = slots.setdefault(key, b)
                if (prev.init, prev.lo, prev.hi) != (b.init, b.lo, b.hi):
                    raise ValueError(
                        f"inconsistent shared binding {key}: "
                        f"{(b.init, b.lo, b.hi)} vs {(prev.init, prev.lo, prev.hi)}")
                slot_of[name] = list(slots).index(key)
            self._slot_of.append(slot_of)
        # Each dataset's PARAM_NAMES as places in the slot vector extended by the fixed values.
        self._fixed_values = np.array(fixed)
        at = iter(range(len(slots), len(slots) + len(fixed)))
        self._index = np.array([[slot_of[n] if n in slot_of else next(at) for n in PARAM_NAMES]
                                for slot_of in self._slot_of], dtype=np.intp)
        # Each dataset's rows in the stacked residual.
        ends = np.cumsum([0] + [ds.n_points for ds in self.datasets]).tolist()
        self._rows = [slice(a, b) for a, b in zip(ends, ends[1:])]
        # Each dataset's slots (its Jacobian block's rows) and their flat places in JᵀJ.
        self._slots = [np.array(list(slot_of.values()), dtype=np.intp) for slot_of in self._slot_of]
        self._pairs = [(j[:, None] * len(slots) + j).ravel() for j in self._slots]

        bindings = list(slots.values())
        self.slot_names = tuple(slots)
        self.slot_params = tuple(b.name for b in bindings)
        self.init_values = np.array([b.init for b in bindings], dtype=float)
        self.lower_bounds = np.array([b.lo for b in bindings], dtype=float)
        self.upper_bounds = np.array([b.hi for b in bindings], dtype=float)
        self._log_flags = np.array([b.name in LOG_PARAMS for b in bindings], dtype=bool)

    @property
    def n_parameters(self) -> int:
        return len(self.slot_names)

    @property
    def n_points(self) -> int:
        return self._rows[-1].stop

    def dataset_values(self, values) -> list[dict[str, float]]:
        """Resolve the full parameter dict of every dataset from a slot vector."""
        return [dict(zip(PARAM_NAMES, p)) for p in self._resolve(values)]

    def _resolve(self, values) -> list[list[float]]:
        """Each dataset's parameter values in PARAM_NAMES order."""
        return np.concatenate((np.asarray(values, dtype=float), self._fixed_values))[
            self._index].tolist()


def residuals(problem: FitProblem, values) -> tuple[np.ndarray, Callable[[], dict]]:
    """Residual vector |S21_model| - |S21_data| over all datasets and a closure for
    its exact Jacobian in internal coordinates (a log slot's row is scaled by its value).

    ``values`` holds the physical slot values (rad/s, counts) in ``problem.slot_names`` order.
    Per dataset one :func:`~omitbench.model.response_quadratic` gives Q and N, and |S21| =
    sqrt(|N|^2/|Q|^2) the residual; ``jacobian()`` builds from the same arrays a dict {i: block},
    dataset i's (k, n_points) derivatives by the k slots it reads, in ``problem._slot_of[i]``
    order.  A dataset the model rejects (a parameter out of range, a blue pump past threshold,
    or a non-finite |S21|) gets the finite penalty value at every point and, like a dataset with
    no slot, no block.  With S = N/Q, m = gamma_m/2 - i (Omega +/- omega_m) and
    A = (kappa_ext/2) conj(N Q)/(|Q|^4 |S|), 0 where S = 0, d|S|/domega_c = -Im(m^2 A),
    d|S|/dkappa = Re(m^2 A)/2, d|S|/domega_m = g0^2 n Im A, d|S|/dgamma_m = +/- g0^2 n Re(A)/2,
    d|S|/d(g0^2 n) = -/+ Re(m A) and d|S|/dkappa_ext = -Re(m conj N)/(2 |Q| |N|), the upper
    signs blue's.
    """
    r = np.full(problem.n_points, PENALTY_RESIDUAL)
    # One buffer per evaluation: Re Q, Im Q, Re N, Im N, |Q|^2, |S21| and the block rows.  Dozens
    # of arrays per evaluation would have the allocator return and fault in memory every trial.
    work = np.empty((6 + max(map(len, problem._slots)), problem.n_points))
    accepted = []
    for i, (ds, p, slot_of, rows) in enumerate(zip(
            problem.datasets, problem._resolve(values), problem._slot_of, problem._rows)):
        omega_c, kappa, kappa_ext, omega_m, gamma_m, g0, n_cav = p
        delta = ds.omega_d - omega_c
        try:
            CavityParams.check(omega_c, kappa, kappa_ext)
            MechanicalParams.check(omega_m, gamma_m, g0)
            PumpConfig.check(delta, n_cav)
        except ValueError:
            continue
        terms = response_quadratic(ds.offsets, delta, kappa, kappa_ext, omega_m, gamma_m,
                                   g0 * g0 * n_cav, ds.scheme, out=work[:4, rows])
        if terms is None:
            continue
        (re_q, im_q, re_n, im_n), (qq, mag) = terms, work[4:6, rows]
        np.add(re_q * re_q, im_q * im_q, out=qq)
        np.sqrt(np.divide(np.add(re_n * re_n, im_n * im_n, out=mag), qq, out=mag), out=mag)
        if not mag.max() < math.inf:  # NaN fails too
            continue
        np.subtract(mag, ds.data, out=r[rows])
        if slot_of:
            accepted.append((i, ds, p, slot_of, rows))

    def jacobian():
        blocks = {}
        for i, ds, p, slot_of, rows in accepted:
            re_q, im_q, re_n, im_n, qq, mag = work[:6, rows]
            _, kappa, kappa_ext, omega_m, gamma_m, g0, n_cav = p
            sign, b, g2n = ds.scheme.sign, 0.5 * gamma_m, g0 * g0 * n_cav
            u = ds.offsets + sign * omega_m  # m = b - i u
            den = qq * qq * mag  # h = 0 where S = 0; the masked division is twice as slow
            h = (0.5 * kappa_ext / den if den.min() > 0 else
                 np.divide(0.5 * kappa_ext, den, out=np.zeros_like(den), where=den > 0))
            re_a = h * (re_n * re_q - im_n * im_q)  # A = h conj(N Q)
            neg_im_a = h * (re_n * im_q + im_n * re_q)
            re_m2, two_bu = b * b - u * u, (2.0 * b) * u  # m^2 = re_m2 - i two_bu
            blocks[i] = work[6:6 + len(slot_of), rows]
            for name, row in zip(slot_of, blocks[i]):  # a log slot's factor holds its value
                if name == "omega_c":  # -Im(m^2 A)
                    np.add(re_m2 * neg_im_a, two_bu * re_a, out=row)
                elif name == "kappa":  # Re(m^2 A)/2
                    np.multiply(re_m2 * re_a - two_bu * neg_im_a, 0.5 * kappa, out=row)
                elif name == "omega_m":  # g0^2 n Im A
                    np.multiply(neg_im_a, -g2n, out=row)
                elif name == "gamma_m":  # +/- g0^2 n Re(A)/2
                    np.multiply(re_a, 0.5 * sign * g2n * gamma_m, out=row)
                elif name == "kappa_ext":  # -Re(m conj N)/(2 |Q| |N|): |Q| |N| = |Q|^4 |S|/|Q|^2
                    np.multiply(b * re_n - u * im_n, h * qq * (-1.0 / kappa_ext), out=row)
                else:  # -/+ Re(m A) g0^2 n for n_cav, twice that for g0
                    np.multiply(b * re_a - u * neg_im_a, -sign * g2n * (1 + (name == "g0")), row)
        return blocks

    return r, jacobian


@dataclass
class FitResult:
    """Outcome of :func:`fit`.

    ``values``/``stderr`` are keyed by slot name and hold physical (angular)
    units; uncertainties come from the eigendecomposition of the scaled normal
    matrix at the returned point times the reduced residual variance; a slot with
    weight in a direction cut by RANK_TOL (no dependence, squares that underflow,
    or g0 and n_cav fitted together) has a NaN stderr, as has every slot at a penalty.
    ``cost_history`` is the sequence of accepted residual norms (monotone
    non-increasing).  ``termination`` says why the fit stopped:
    ``reduction_tol`` or ``step_tol`` (a relative tolerance was met),
    ``zero_residual``, ``no_free_parameters``, ``iteration_cap``, or
    ``penalty`` (the model rejects a dataset at the returned point).
    ``converged`` is false for the last two.  ``residuals`` is the stacked
    residual vector at the returned point, NaN over each rejected dataset;
    ``rms_residual`` is its rms over the other datasets, NaN if there are none.
    ``n_residual_evals`` counts calls to :func:`residuals`: 1 + ``iterations``.
    """

    values: dict[str, float]
    stderr: dict[str, float]
    rms_residual: float
    iterations: int
    termination: str
    residuals: np.ndarray
    cost_history: list[float] = field(default_factory=list)
    dataset_params: list[dict[str, float]] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.termination not in ("iteration_cap", "penalty")

    @property
    def n_residual_evals(self) -> int:
        return 1 + self.iterations


def _to_internal(v, log_flags):
    x = np.array(v, dtype=float)
    x[log_flags] = np.log(x[log_flags])
    return x


def _to_physical(x, log_flags):
    v = np.array(x, dtype=float)
    v[log_flags] = np.exp(v[log_flags])
    return v


def fit(problem: FitProblem) -> FitResult:
    """Damped least squares over the problem's free and shared slots.

    Levenberg-Marquardt with the exact Jacobian on normal equations scaled by
    their diagonal (Marquardt's damping by λ diag(JᵀJ)), steps in the eigenbasis of
    the scaled matrix without its directions under RANK_TOL, λ divided (multiplied)
    by 10 on accepted (rejected) steps from 1e-2, bound handling by projection, and
    convergence once the relative residual-norm reduction or the relative parameter
    step drops below 1e-10, capped at 200 iterations.  On hitting the cap, or when
    a dataset's residual at the returned point is the penalty, the best parameters
    so far are returned with ``converged=False``; ``termination`` names the reason.
    Each trial point costs one evaluation of Q and N per dataset, which gives the residual;
    the Jacobian blocks are built from the same arrays only at the start and after each
    accepted step.  There the scaled normal equations are summed from the blocks and
    decomposed, and the standard errors reuse the last decomposition.

    Raises
    ------
    InsufficientData
        If the problem has fewer points than adjustable parameters.
    """
    n_par, n_pts = problem.n_parameters, problem.n_points
    if n_pts < n_par:
        raise InsufficientData(f"{n_pts} data points for {n_par} adjustable parameters")

    log_flags = problem._log_flags
    lo = _to_internal(problem.lower_bounds, log_flags)
    hi = _to_internal(problem.upper_bounds, log_flags)
    x = np.clip(_to_internal(problem.init_values, log_flags), lo, hi)
    r, jacobian = residuals(problem, _to_physical(x, log_flags))
    rnorm = float(np.linalg.norm(r))
    history = [rnorm]
    lam = INITIAL_DAMPING
    iterations = 0
    termination = ("no_free_parameters" if n_par == 0 else
                   "zero_residual" if rnorm == 0.0 else None)
    w, v, g, s = _normal_equations(problem, r, jacobian())
    del jacobian

    while termination is None and iterations < MAX_ITERATIONS:
        iterations += 1
        step = s * (v @ ((v.T @ -g) / (w + lam)))
        x_trial = np.clip(x + step, lo, hi)
        # Per-parameter relative step: a vector norm would let large linear
        # coordinates (omega_c ~ 1e10 rad/s) mask meaningful motion in the
        # O(1) logarithmic coordinates and stop the loop early.
        step_rel = float(np.max(np.abs(x_trial - x) / (1.0 + np.abs(x))))
        r_trial, jacobian = residuals(problem, _to_physical(x_trial, log_flags))
        rt_norm = float(np.linalg.norm(r_trial))
        if rt_norm < rnorm:
            drop = (rnorm - rt_norm) / rnorm
            x, r, rnorm = x_trial, r_trial, rt_norm
            history.append(rnorm)
            lam /= DAMPING_FACTOR
            w, v, g, s = _normal_equations(problem, r, jacobian())
            termination = ("reduction_tol" if drop < REL_REDUCTION_TOL else
                           "step_tol" if step_rel < REL_STEP_TOL else
                           "zero_residual" if rnorm == 0.0 else None)
        else:
            lam *= DAMPING_FACTOR
            # Damping has pinned the proposal; no reducing step exists.
            termination = "step_tol" if step_rel < REL_STEP_TOL else None
        del r_trial, jacobian  # a trial's buffer not alive beside the next trial's

    # A dataset the model rejects at x gives a flat penalty with a zero Jacobian, so the loop
    # stops there without having fitted anything; its rows would swamp s², so no errors.
    kept = np.ones(n_pts, dtype=bool)
    for rows in problem._rows:
        if np.all(r[rows] == PENALTY_RESIDUAL):
            r[rows], kept[rows], termination, rnorm = math.nan, False, "penalty", math.nan
    n_kept = int(kept.sum())
    rms = float(np.linalg.norm(r[kept])) / math.sqrt(n_kept) if n_kept else math.nan
    values_phys = _to_physical(x, log_flags)
    stderr_phys = _uncertainties(n_pts, w, v, s, rnorm, values_phys, log_flags)
    return FitResult(
        values=dict(zip(problem.slot_names, values_phys.tolist())),
        stderr=dict(zip(problem.slot_names, stderr_phys.tolist())),
        rms_residual=rms,
        iterations=iterations,
        termination=termination or "iteration_cap",
        residuals=r,
        cost_history=history,
        dataset_params=problem.dataset_values(values_phys),
    )


def _normal_equations(problem, r, blocks):
    """JᵀJ and Jᵀr, each dataset's block G adding G Gᵀ and G r_i at its slots, scaled
    once by S = diag(JᵀJ)^(-1/2) (1 where that diagonal is 0): the eigenvalues w >= RANK_TOL
    of ã = S JᵀJ S with their eigenvectors V (columns), S Jᵀr and S."""
    a, g = np.zeros(problem.n_parameters ** 2), np.zeros(problem.n_parameters)
    for i, block in blocks.items():
        # With a copy numpy calls gemm, faster than syrk on these (k, n_points) blocks.
        a[problem._pairs[i]] += (block @ block.copy().T).ravel()
        g[problem._slots[i]] += block @ r[problem._rows[i]]
    d = a[::len(g) + 1]
    s = 1.0 / np.sqrt(np.where(d > 0, d, 1.0))
    w, v = np.linalg.eigh(s[:, None] * a.reshape(len(g), len(g)) * s)
    return w[w >= RANK_TOL], v[:, w >= RANK_TOL], s * g, s


def _uncertainties(n_pts, w, v, s, rnorm, values_phys, log_flags):
    n_par = len(s)
    s2 = rnorm ** 2 / (n_pts - n_par) if n_pts > n_par else math.nan
    sig = s * np.sqrt((v ** 2 / w).sum(axis=1) * s2)
    # Weight in the cut directions (all of it for a zero diagonal of ã): the slot is not determined.
    sig[1.0 - (v ** 2).sum(axis=1) > RANK_TOL] = math.nan
    # Delta method back to physical units for log-coordinate slots.
    return np.where(log_flags, sig * values_phys, sig)


def _noise_estimate(y: np.ndarray) -> float:
    """Robust noise std from first differences (immune to slow structure)."""
    d = np.diff(y)
    return float(np.median(np.abs(d - np.median(d)))) / (math.sqrt(2.0) * 0.6745)


def extract_linewidth(trace: SweepTrace) -> float:
    """FWHM of the optomechanical feature (rad/s), by half-contrast crossing.

    The width is measured on the power response |S21|^2, whose feature is an
    exact offset Lorentzian in the sideband-resolved limit (the magnitude
    feature is not).  The slowly varying cavity background is removed by a
    quadratic fitted to the trace edges, so a pump-off scan (pure cavity
    curvature, no mechanical feature) is rejected rather than measured.
    Crossings are located by linear interpolation between bracketing samples.
    A narrow span reads low, because the edge fit absorbs the Lorentzian wings:
    noiseless red and blue traces of 4001 points read 0.944 gamma_eff at +/- 3
    gamma_eff, 0.985 at +/- 6, 0.995 at +/- 10 and 0.999 at +/- 25.

    Raises
    ------
    FeatureNotFound
        No feature above the noise floor, no bracketing half crossing inside
        the trace, an edge rms above twice max(noise, 1 % of the contrast)
        (the background was fitted to the feature itself), or a half crossing
        less than one measured width from its end of the trace.
    UnderResolved
        Fewer than 20 grid points across the measured width, or in the trace.
    """
    power = trace.magnitude() ** 2
    axis = trace.omega
    n = len(power)
    if n < MIN_POINTS_ACROSS_FWHM:
        raise UnderResolved(f"only {n} grid points in the trace (need >= {MIN_POINTS_ACROSS_FWHM})")
    k = max(3, n // 20)
    edge = np.concatenate([np.arange(k), np.arange(n - k, n)])
    # Normalized abscissa keeps the quadratic edge fit well conditioned.
    x = (axis - axis[len(axis) // 2]) / max(axis[-1] - axis[0], 1e-30)
    coeffs = np.polyfit(x[edge], power[edge], 2)
    dev = power - np.polyval(coeffs, x)
    idx = int(np.argmax(np.abs(dev)))
    contrast = float(dev[idx])
    level = float(np.median(power))
    noise = _noise_estimate(power)
    threshold = max(3.0 * noise, 1e-4 * max(level, 1e-30))
    if abs(contrast) <= threshold:
        raise FeatureNotFound("no spectral feature above the noise floor")
    half = contrast / 2.0
    # Sample pairs (i, i + 1) that bracket the half level: the nearest one
    # below idx and the nearest at or above it.
    pairs = np.flatnonzero(((dev[:-1] - half) * (dev[1:] - half) <= 0)
                           & (dev[1:] != dev[:-1]))
    j = int(np.searchsorted(pairs, idx))
    if j == 0 or j == len(pairs):
        raise FeatureNotFound("feature has no half-contrast crossing inside the trace")
    i = pairs[[j - 1, j]]
    left, right = axis[i] + (half - dev[i]) / (dev[i + 1] - dev[i]) * (axis[i + 1] - axis[i])
    inside = np.count_nonzero((axis > left) & (axis < right))
    if inside < MIN_POINTS_ACROSS_FWHM:
        raise UnderResolved(
            f"only {inside} grid points across the feature width "
            f"(need >= {MIN_POINTS_ACROSS_FWHM})")
    if math.sqrt(np.mean(dev[edge] ** 2)) > 2.0 * max(noise, 1e-2 * abs(contrast)):
        raise FeatureNotFound("feature reaches the trace edges, where the background is fitted")
    if min(left - axis[0], axis[-1] - right) < right - left:
        raise FeatureNotFound("feature lies less than its measured width from a trace end")
    return float(right - left)

