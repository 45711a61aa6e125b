"""Self-contained 1-D quadrature with explicit convergence accounting.

The rule is composite Simpson, which stays robust on the kinked integrands
produced by folded transmission profiles (callers split at the kinks).
Refinement doubles the panel count until successive values agree to
`refine_until`; refusal to converge raises
:class:`QuadratureConvergenceError` carrying the best value and its estimate
rather than silently returning garbage.

The error estimate |S_2n - S_n| / 15 is the standard Richardson factor for
a fourth-order rule.

One kernel, :func:`integrate_rows`, integrates a batch of intervals at once
as a (rows x nodes) array per level; :func:`integrate` is its one-row case.
Halving the step leaves the level-k nodes bitwise equal to the even nodes of
level k + 1, so each level evaluates only its new odd nodes and keeps the
rest.  Rows leave the batch as soon as they meet `refine_until`.  Every sum
runs over a contiguous copy in the same order as a fresh composite rule on
that level's full node set, so results do not depend on batching or reuse.
Rows are taken in blocks of at most `_BLOCK_NODES` first-level nodes, which
keeps each block's working set small.

Why 8192 nodes, and why the nodes and the profile are built in place: each
block call allocates and frees several node-sized temporaries.  glibc
returns a freed heap top above its trim threshold to the kernel, and the
next call faults it back in.  So larger blocks and out-of-place arithmetic
cost page faults on every call, while smaller blocks cost more Python per
node.  No allocator setting is involved.

At `DEFAULT_QUADRATURE` every block is one row of 4097 nodes, as it is for
any `_BLOCK_NODES` below 8194.  Blocks of several rows, 15 of 513 nodes at
the fit's quadrature, come only from the fit: its start check, the residual
of its result and the curve of a candidate whose lattice estimate
(`transmission._lattice_pair_curve`) misses its target.  The default fit
makes 10 block calls, and none carries pending rows over to a second
doubling; only a fit whose candidates fall back to the kernel reaches that
code, as the cusp fit (e = 0.3, c = 0) does in 19 of its 38.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import ParameterError, QuadratureConvergenceError


@dataclass(frozen=True)
class QuadratureSpec:
    """Resolution and refinement policy for one integral.

    panels: Simpson panel count (must be even) at the first refinement
        level; each level doubles it.
    refine_until: absolute error target for the two-level estimate.
    max_refinements: doublings allowed before giving up.
    """

    panels: int = 4096
    refine_until: float = 1e-9
    max_refinements: int = 8

    def __post_init__(self):
        if not isinstance(self.panels, (int, np.integer)) or self.panels < 2:
            raise ParameterError("panels must be an integer >= 2")
        if self.panels % 2:
            raise ParameterError("composite Simpson needs an even panel count")
        if not (
            isinstance(self.refine_until, (int, float, np.integer, np.floating))
            and np.isfinite(self.refine_until)
            and self.refine_until > 0
        ):
            raise ParameterError("refine_until must be a positive finite float")
        if not isinstance(self.max_refinements, (int, np.integer)) or self.max_refinements < 0:
            raise ParameterError("max_refinements must be a non-negative integer")


DEFAULT_QUADRATURE = QuadratureSpec()

# First-level nodes per block of rows (at least one row per block).
_BLOCK_NODES = 8192


def _sample(f: Callable, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    values = np.ascontiguousarray(f(x, rows), dtype=float)
    if values.shape != x.shape:
        raise ParameterError(
            f"integrand returned shape {values.shape} for nodes of shape {x.shape}"
        )
    if not np.all(np.isfinite(values)):
        raise ParameterError("integrand returned non-finite values")
    return values


def _simpson(y: np.ndarray, odd: np.ndarray, even: np.ndarray, h: np.ndarray) -> np.ndarray:
    # odd and even must be contiguous: a strided 2-D sum can pair its terms
    # differently from the 1-D pairwise sum
    return h / 3.0 * (y[:, 0] + y[:, -1] + 4.0 * odd.sum(axis=1) + 2.0 * even.sum(axis=1))


def _nodes(offsets: np.ndarray, h: np.ndarray, lo: np.ndarray) -> np.ndarray:
    # offsets * h + lo row by row, built in place
    x = offsets * h[:, None]
    x += lo[:, None]
    return x


def _integrate_block(
    f: Callable, rows: np.ndarray, lo: np.ndarray, hi: np.ndarray, spec: QuadratureSpec
) -> Tuple[np.ndarray, np.ndarray]:
    n = spec.panels
    h = (hi - lo) / n
    # np.linspace(lo, hi, n + 1) row by row
    x = _nodes(np.arange(n + 1.0), h, lo)
    x[:, -1] = hi
    y = _sample(f, x, rows)
    del x  # the refinements need only y
    value = _simpson(
        y, np.ascontiguousarray(y[:, 1:-1:2]), np.ascontiguousarray(y[:, 2:-2:2]), h
    )
    estimate = np.full(rows.size, np.inf)
    live = np.arange(rows.size)
    for _ in range(spec.max_refinements):
        n *= 2
        h = (hi[live] - lo[live]) / n
        odd = _sample(f, _nodes(np.arange(1.0, n, 2.0), h, lo[live]), rows[live])
        refined = _simpson(y, odd, np.ascontiguousarray(y[:, 1:-1]), h)
        estimate[live] = np.abs(refined - value[live]) / 15.0
        value[live] = refined
        pending = ~(estimate[live] <= spec.refine_until)
        if not pending.any():
            return value, estimate
        finer = np.empty((int(pending.sum()), n + 1))
        finer[:, 0::2] = y[pending]
        finer[:, 1::2] = odd[pending]
        y = finer
        live = live[pending]
    first = int(live[0])
    raise QuadratureConvergenceError(
        f"estimate {estimate[first]:.3e} above target {spec.refine_until:.3e} "
        f"after {spec.max_refinements} refinements",
        value=float(value[first]),
        error_estimate=float(estimate[first]),
    )


def integrate_rows(
    f: Callable,
    lo,
    hi,
    spec: Optional[QuadratureSpec] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Integrate over each interval [lo[i], hi[i]]; return (values, error_estimates).

    f(x, rows) receives the nodes x of shape (len(rows), m) for the batch
    rows `rows` (indices into lo and hi) and returns the integrand at them,
    with the same shape (any other shape raises ParameterError).  Each row is
    refined on its own, exactly as `integrate` would refine it alone.  Raises
    QuadratureConvergenceError for the first row whose estimate never reaches
    spec.refine_until.
    """
    spec = spec or DEFAULT_QUADRATURE
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.ndim != 1 or lo.shape != hi.shape:
        raise ParameterError("lo and hi must be 1-D arrays of one length")
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ParameterError("integration limits must be finite")
    if np.any(hi < lo):
        raise ParameterError("upper limit must not precede lower limit")
    values = np.zeros(lo.size)
    estimates = np.zeros(lo.size)
    rows = np.flatnonzero(hi > lo)
    per_block = max(1, _BLOCK_NODES // (spec.panels + 1))
    for start in range(0, rows.size, per_block):
        block = rows[start : start + per_block]
        values[block], estimates[block] = _integrate_block(f, block, lo[block], hi[block], spec)
    return values, estimates


def integrate(
    f: Callable,
    lo: float,
    hi: float,
    spec: Optional[QuadratureSpec] = None,
) -> Tuple[float, float]:
    """Integrate f over [lo, hi]; return (value, error_estimate).

    f must be vectorized: it receives a 1-D array of nodes and returns the
    integrand at each of them, with the same shape; any other shape raises
    ParameterError.  Raises QuadratureConvergenceError if the estimate never
    reaches spec.refine_until within spec.max_refinements doublings.
    """
    values, estimates = integrate_rows(
        lambda x, rows: np.asarray(f(x[0]))[None], [float(lo)], [float(hi)], spec
    )
    return float(values[0]), float(estimates[0])
