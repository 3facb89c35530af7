"""Stochastic reconfiguration (SR) — stochastic natural gradient (Sorella 1998).

With per-sample log-derivatives ``O_k(x) = ∂ log ψθ(x)/∂θ_k`` the quantum
Fisher / overlap matrix is

    S_{kk'} = ⟨O_k O_{k'}⟩ - ⟨O_k⟩⟨O_{k'}⟩                     (covariance of O)

and the energy gradient (Eq. 5 of the paper, halved) is

    F_k = ⟨(l(x) - L) O_k(x)⟩ .

SR replaces the update direction ``F`` by ``(S + λI)^{-1} F``. The paper's
Eq. 5 writes the Fisher information of πθ, whose log-derivative is
``∇ log π = 2 O``; that matrix is ``4S`` and the factor is absorbed into the
learning rate (we document rather than chase constants — the paper's
settings λ = 0.001, lr = 0.1 are defined w.r.t. this standard convention).

Two solver paths:

- ``dense``: build S explicitly, ``scipy.linalg.solve`` (assume_a='pos').
  Right choice when ``d ≲ 2000``.
- ``cg``: conjugate gradients that never form S. One loop (:func:`_cg`),
  run in whichever coordinates make the problem smaller (see below).

``solver='auto'`` switches on dimension.

Two coordinate systems for CG
-----------------------------
``S + λI = λI + OcᵀOc/N`` has rank ``N`` plus a multiple of the identity,
and with ``Q = [Oc; F]`` (the ``N`` centred rows, and the right-hand side
``F`` as one more row so that *any* ``F`` is representable) every CG vector
lies in the row space of ``Q``:

- **parameter space** — vectors are d-vectors, the matvec is
  ``Ocᵀ(Oc v)/N + λv``: two passes over the (N×d) ``Oc`` per iteration.
- **sample space** — vectors are ``Qᵀw`` with ``w`` an (N+1)-vector. After
  *one* Gram product ``G = QQᵀ`` the matvec is ``A(Qᵀw) = Qᵀ(E·Gw/N + λw)``
  (``E`` zeroes the last row) and inner products are ``w₁ᵀGw₂``, so an
  iteration costs a few (N+1)² products and the result ``δ = Qᵀw`` is one
  more pass over ``Oc``. In exact arithmetic the iterates are those of
  parameter space; in floating point the two drift apart as fast as CG
  drifts from itself under a last-digit change of ``O`` (≈1e-14 after a
  dozen iterations, ≈1e-3 after 32 on an ill-conditioned VQMC system).

The Gram product costs about ``N/2`` parameter-space iterations, so sample
space is taken iff ``N < d`` and ``N ≤ 16·cg_maxiter`` (any ``N < d`` when
``cg_maxiter`` is None) — both read off the solve's own inputs;
:data:`SAMPLE_ROWS_PER_ITERATION` sits at the low end of the measured
break-even (see docs/performance.md). The space a solve took is ``SRSolveInfo.space``.

Distributed solves
------------------
``natural_gradient`` accepts a :class:`~repro.distributed.comm.Communicator`
and then solves the *global* system — the one a single process would build
from the concatenated batch — with every rank holding only its local ``O``
shard:

- centring uses the **global** mean: one allreduce of the length-``d+1``
  vector ``[Σ_local O, B_local]`` yields ``⟨O⟩`` and the global sample
  count in a single collective;
- the dense path allreduces the local ``Ocᵀ Oc`` (d×d — inherent to
  materialising S, and only ever chosen when ``d`` is small);
- parameter-space CG allreduces one *d-vector* per matvec — O(d·iters)
  per solve, never O(d²);
- sample-space CG transposes the sharding instead: one ``alltoall`` gives
  each rank the column block ``[lo:hi)`` of **all** ``N`` rows, the ranks
  allreduce their partial ``(N+1)²`` Gram matrices, run the identical
  small recurrence, and assemble ``δ`` by one allreduce of the
  zero-padded shard — four collectives per solve whatever the iteration
  count, ``N_r·(d − d/L) + (N+1)² + 2d`` floats, and the Gram product is
  split ``L`` ways.

Every rank receives identical allreduce results (the collective algorithms
are cross-rank bit-reproducible for ``sum``), so all ranks run the same CG
iterates, terminate at the same iteration, and issue congruent collective
sequences — checked under :class:`repro.analysis.CommSanitizer` in the
tests. Solver and space resolution depend only on ``d`` and the global
sample count, which are identical everywhere by construction.

Every solve records an :class:`SRSolveInfo` in :attr:`last_solve`
(resolved solver, CG iterations, relative residual, incomplete flag,
collective payload bytes) and, when a :class:`~repro.obs.Metrics` registry
is attached, bumps the ``sr.*`` counters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = ["StochasticReconfiguration", "SRSolveInfo"]

#: sample-space CG pays one Gram product up front, worth about N/2 of the
#: parameter-space iterations it replaces, so it wins while the iteration
#: budget is not small against N. Measured break-even at d = 11 158 is
#: N/k ≈ 24–40 rows per iteration with one BLAS thread and ≈ 16 with two
#: (docs/performance.md). 16 sits at the low end: at the boundary the two
#: cost about the same, below it sample space is up to 2–4× cheaper.
SAMPLE_ROWS_PER_ITERATION = 16


def _cg(apply, inner, b: np.ndarray, tol: float, maxiter: int | None):
    """Conjugate gradients from ``x₀ = 0`` in any coordinate system.

    ``apply(v)`` is the operator and ``inner(u, v)`` the inner product it is
    symmetric positive definite under — ``np.dot`` for d-vectors, ``uᵀGv``
    for sample-space coefficients. Stops once ``‖r‖ ≤ tol·‖b‖`` or after
    ``maxiter`` iterations (default ``10·len(b)``); the recurrence is
    SciPy's ``sparse.linalg.cg`` operation for operation.

    Returns ``(x, iterations, relative residual, converged)``; the residual
    is the recurrence's own ``‖r‖/‖b‖``, which costs no extra matvec.
    """
    if maxiter is None:
        maxiter = 10 * b.size
    x = np.zeros_like(b)
    r = b.copy()
    p = b.copy()
    rho = rho0 = inner(r, r)
    stop = tol * tol * rho0
    iterations = 0
    while rho > stop and iterations < maxiter:
        q = apply(p)
        curvature = inner(p, q)
        if curvature <= 0.0:
            # The operator is positive definite, so only rounding gets here:
            # the residual is below what these coordinates can resolve.
            break
        alpha = rho / curvature
        x += alpha * p
        r -= alpha * q
        rho_next = inner(r, r)
        p *= rho_next / rho
        p += r
        rho = rho_next
        iterations += 1
    residual = math.sqrt(max(rho, 0.0) / rho0) if rho0 > 0.0 else 0.0
    return x, iterations, residual, rho <= stop


@dataclass(frozen=True)
class SRSolveInfo:
    """Diagnostics of one ``natural_gradient`` solve.

    Attributes
    ----------
    solver:
        The *resolved* solver — ``'dense'`` or ``'cg'``, never ``'auto'``.
    distributed:
        Whether the solve allreduced over a communicator.
    d, samples:
        Parameter count and **global** sample count feeding the Fisher
        estimate (summed over ranks in distributed solves).
    iterations:
        CG iterations taken (0 on the dense path).
    residual:
        Relative residual ``‖(S + λI)δ − F‖ / ‖F‖`` of the returned
        direction against the global system (computed for dense solves,
        the recurrence's own for CG).
    incomplete:
        CG stopped at ``cg_maxiter`` before reaching ``cg_tol`` (the
        partial iterate is still a descent direction and is returned).
    comm_bytes:
        Collective payload bytes this solve moved (0 in serial solves):
        O(d²) for dense, O(d·iters) for parameter-space CG, and
        ``N_r·(d − d/L) + (N+1)² + 2d`` floats for sample-space CG.
    space:
        Coordinates the CG ran in — ``'sample'`` or ``'parameter'`` — and
        ``''`` for dense solves.
    """

    solver: str
    distributed: bool
    d: int
    samples: int
    iterations: int
    residual: float
    incomplete: bool
    comm_bytes: int
    space: str = ""


class StochasticReconfiguration:
    """Natural-gradient preconditioner built from per-sample log-derivatives.

    Parameters
    ----------
    diag_shift:
        Regularisation λ added to the diagonal of S (paper: 0.001).
    solver:
        ``'dense'``, ``'cg'`` or ``'auto'`` (dense below ``dense_threshold``).
        Honoured identically in serial and distributed solves.
    dense_threshold:
        Parameter-count crossover for ``'auto'``.
    cg_tol, cg_maxiter:
        Conjugate-gradient stopping controls: relative residual and
        iteration budget (default ten times the dimension of the
        coordinates the solve runs in). They mean the same in sample and
        parameter space, which share one recurrence.

    Attributes
    ----------
    last_solve:
        :class:`SRSolveInfo` of the most recent solve (None before the
        first).
    last_cg_incomplete:
        Whether the most recent solve was a CG solve that hit
        ``cg_maxiter``; ``False`` after dense solves and before the first
        solve.
    tracer:
        Span recorder for solve sub-spans (``sr.center`` / ``sr.dense`` /
        ``sr.cg``); defaults to the shared disabled tracer. Attach with
        :meth:`attach_tracer` — the VQMC driver does this for you.
    metrics:
        Optional :class:`repro.obs.Metrics`; when set, each solve bumps
        ``sr.solves`` / ``sr.sample_space_solves`` / ``sr.cg_iterations``
        / ``sr.cg_incomplete`` / ``sr.comm_bytes`` and gauges
        ``sr.residual``.
    """

    tracer: Tracer = NULL_TRACER

    def __init__(
        self,
        diag_shift: float = 1e-3,
        solver: str = "auto",
        dense_threshold: int = 2000,
        cg_tol: float = 1e-10,
        cg_maxiter: int | None = None,
    ):
        if diag_shift < 0:
            raise ValueError(f"diag_shift must be >= 0, got {diag_shift}")
        if solver not in ("dense", "cg", "auto"):
            raise ValueError(f"unknown solver {solver!r}")
        self.diag_shift = diag_shift
        self.solver = solver
        self.dense_threshold = dense_threshold
        self.cg_tol = cg_tol
        self.cg_maxiter = cg_maxiter
        self.last_cg_incomplete = False
        self.last_solve: SRSolveInfo | None = None
        self.metrics = None

    def attach_tracer(self, tracer: Tracer) -> None:
        """Report solve sub-spans on ``tracer`` (the Communicator idiom)."""
        self.tracer = tracer

    # -- matrix construction ----------------------------------------------------

    @staticmethod
    def fisher_matrix(per_sample_o: np.ndarray) -> np.ndarray:
        """Dense centred overlap matrix ``S`` from ``O`` of shape (B, d)."""
        o = np.asarray(per_sample_o, dtype=np.float64)
        oc = o - o.mean(axis=0, keepdims=True)
        return oc.T @ oc / o.shape[0]

    # -- centring and the matrix-free operator -----------------------------------

    @staticmethod
    def _mean(o: np.ndarray, comm) -> tuple[np.ndarray, int]:
        """The (global) column mean of ``O`` and the (global) row count.

        With a communicator, allreducing the length-``d+1`` vector
        ``[Σ_local O, B_local]`` yields both in one collective.
        """
        bsz, d = o.shape
        if comm is None or comm.size == 1:
            return o.mean(axis=0), bsz
        sums = comm.allreduce(
            np.concatenate([o.sum(axis=0), [float(bsz)]]), op="sum"
        )
        total = int(round(sums[-1]))
        return sums[:d] / total, total

    def fisher_operator(self, per_sample_o: np.ndarray, comm=None):
        """The action of ``(S + λI)`` on d-vectors, matrix-free.

        Returns ``(matvec, total_count)`` where ``matvec(v)`` evaluates the
        globally-centred ``Ocᵀ(Oc v)/N + λv``. With a communicator, each
        call allreduces one d-vector — never a d×d matrix — so the
        operator is exactly the dense global-S matvec (property-tested in
        ``tests/test_optim/test_sr_distributed.py``) at O(d) communication.
        """
        o = np.asarray(per_sample_o, dtype=np.float64)
        mean, total = self._mean(o, comm)
        return self._matvec_from(o - mean, total, comm), total

    def _matvec_from(self, oc: np.ndarray, total: int, comm):
        distributed = comm is not None and comm.size > 1

        def matvec(v: np.ndarray) -> np.ndarray:
            sv = oc.T @ (oc @ v)
            if distributed:
                sv = comm.allreduce(sv, op="sum")
            return sv / total + self.diag_shift * v

        return matvec

    def _solve_in_sample_space(
        self, o: np.ndarray, mean: np.ndarray, total: int, grad: np.ndarray, comm
    ):
        """CG on the coefficients ``w`` of ``Qᵀw``, ``Q = [Oc; grad]``.

        A rank of a distributed solve works on its column block of all
        ``total`` rows (``alltoall`` of the raw columns, centred in place on
        arrival, so the full ``Oc`` never exists); the partial Gram
        matrices and the zero-padded shards of ``δ`` are summed over ranks.
        Same return as :func:`_cg`.
        """
        d = o.shape[1]
        distributed = comm is not None and comm.size > 1
        if distributed:
            bounds = np.linspace(0, d, comm.size + 1).astype(int)
            lo, hi = bounds[comm.rank], bounds[comm.rank + 1]
            rows = comm.alltoall([o[:, a:b] for a, b in zip(bounds[:-1], bounds[1:])])
            rows -= mean[lo:hi]
            f = grad[lo:hi]
        else:
            rows, f = o - mean, grad

        n = total
        gram = np.empty((n + 1, n + 1))
        gram[:n, :n] = rows @ rows.T
        gram[:n, n] = gram[n, :n] = rows @ f
        gram[n, n] = f @ f
        if distributed:
            gram = comm.allreduce(gram, op="sum")

        def apply(w: np.ndarray) -> np.ndarray:
            out = gram @ w
            out[n] = 0.0  # Oc has no row for the right-hand side
            out /= n
            out += self.diag_shift * w
            return out

        rhs = np.zeros(n + 1)
        rhs[n] = 1.0
        w, iterations, residual, converged = _cg(
            apply, lambda u, v: u @ (gram @ v), rhs, self.cg_tol, self.cg_maxiter
        )
        sol = rows.T @ w[:n] + w[n] * f
        if distributed:
            padded = np.zeros(d)
            padded[lo:hi] = sol
            sol = comm.allreduce(padded, op="sum")
        return sol, iterations, residual, converged

    # -- solve -------------------------------------------------------------------

    def natural_gradient(
        self, per_sample_o: np.ndarray, grad: np.ndarray, comm=None
    ) -> np.ndarray:
        """Return ``(S + λI)^{-1} grad`` for the (global) Fisher matrix.

        Parameters
        ----------
        per_sample_o:
            This rank's ``O`` shard, shape ``(B_local, d)``.
        grad:
            The *globally reduced* energy gradient, shape ``(d,)`` —
            identical on every rank in distributed runs.
        comm:
            Optional communicator. When given (and ``size > 1``), the
            solve targets the global system over all ranks' samples:
            parameter-space CG allreduces one d-vector per iteration,
            sample-space CG exchanges column blocks once and allreduces
            an ``(N+1)²`` Gram matrix; the dense path allreduces the d×d
            moment matrix. All solver selection
            (``'auto'``/``'dense'``/``'cg'``) and CG controls behave
            identically in serial and parallel.
        """
        o = np.asarray(per_sample_o, dtype=np.float64)
        grad = np.asarray(grad, dtype=np.float64)
        bsz, d = o.shape
        if grad.shape != (d,):
            raise ValueError(f"grad shape {grad.shape} != ({d},)")

        distributed = comm is not None and comm.size > 1
        bytes_before = comm.stats.collective_bytes if distributed else 0
        tracer = self.tracer

        # 'auto' resolves on d alone — identical on every rank, so all
        # ranks pick the same path and issue congruent collectives.
        solver = self.solver
        if solver == "auto":
            solver = "dense" if d <= self.dense_threshold else "cg"

        with tracer.span("sr.center", d=d, distributed=distributed):
            mean, total = self._mean(o, comm)

        if solver == "dense":
            space = ""
            with tracer.span("sr.dense", d=d, distributed=distributed):
                oc = o - mean
                s = oc.T @ oc
                if distributed:
                    s = comm.allreduce(s, op="sum")
                s /= total
                s[np.diag_indices_from(s)] += self.diag_shift
                sol = scipy.linalg.solve(s, grad, assume_a="pos")
                residual = float(
                    np.linalg.norm(s @ sol - grad)
                    / max(np.linalg.norm(grad), np.finfo(np.float64).tiny)
                )
            iterations, incomplete = 0, False
        else:
            # The global count, like d, is the same on every rank.
            budget = self.cg_maxiter
            sample = total < d and (
                budget is None or total <= SAMPLE_ROWS_PER_ITERATION * budget
            )
            space = "sample" if sample else "parameter"
            with tracer.span("sr.cg", d=d, distributed=distributed, space=space):
                if sample:
                    sol, iterations, residual, converged = (
                        self._solve_in_sample_space(o, mean, total, grad, comm)
                    )
                else:
                    sol, iterations, residual, converged = _cg(
                        self._matvec_from(o - mean, total, comm),
                        np.dot, grad, self.cg_tol, budget,
                    )
            # Out of budget: the partial solution is still a descent
            # direction (S is PSD + λI), so use it but record it.
            incomplete = not converged

        self.last_cg_incomplete = incomplete
        comm_bytes = (
            comm.stats.collective_bytes - bytes_before if distributed else 0
        )
        self.last_solve = SRSolveInfo(
            solver=solver,
            distributed=distributed,
            d=d,
            samples=total,
            iterations=iterations,
            residual=residual,
            incomplete=incomplete,
            comm_bytes=comm_bytes,
            space=space,
        )
        metrics = self.metrics
        if metrics is not None:
            metrics.inc("sr.solves")
            if space == "sample":
                metrics.inc("sr.sample_space_solves")
            metrics.inc("sr.cg_iterations", iterations)
            if incomplete:
                metrics.inc("sr.cg_incomplete")
            metrics.inc("sr.comm_bytes", comm_bytes)
            metrics.set("sr.residual", residual)
        return sol

    # -- gradient assembly (shared with the VQMC driver) ---------------------------

    @staticmethod
    def energy_gradient(
        per_sample_o: np.ndarray, local_energies: np.ndarray
    ) -> np.ndarray:
        """Covariance form ``F_k = ⟨(l - ⟨l⟩) O_k⟩`` — half the paper's Eq. 5."""
        o = np.asarray(per_sample_o, dtype=np.float64)
        l = np.asarray(local_energies, dtype=np.float64)
        centred = l - l.mean()
        return centred @ o / o.shape[0]
