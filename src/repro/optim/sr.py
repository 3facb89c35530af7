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

One direct solver per regime
----------------------------
``S + λI = λI + OcᵀOc/N`` (``Oc = HO`` the centred rows, ``H = I − 11ᵀ/N``)
is a d×d matrix of rank ``N`` plus a multiple of the identity, so it is
solved in whichever space is smaller:

- ``dense`` (``d ≤ N``): build S explicitly and solve by one Cholesky
  factorisation (``cho_factor``/``cho_solve``); an ``S + λI`` that is not
  numerically positive definite raises ``LinAlgError``. Also the oracle the
  other path is tested against.
- ``cg`` (``N < d``; the name is kept for its callers and now only means
  "never form the d×d matrix"): the **sample-space** solve, minSR (Chen &
  Heyl, arXiv:2302.01941). With the N×N Gram matrix ``G = O Oᵀ`` centred in
  sample space, ``Gc = HGH = Oc Ocᵀ``, Woodbury's identity gives, for *any*
  right-hand side ``F``,

      δθ = (F − Ocᵀ c) / λ ,      c = (Gc/N + λI)⁻¹ Oc F / N ,

  one Cholesky factorisation of an N×N matrix (N = 128: under a megaflop)
  — exact, with no iteration budget — between one ``O @ F`` and one
  weighted backward ``(Hc) @ O``. ``cg_maxiter`` is accepted and has no
  effect on a direct solve.
- ``auto`` picks ``dense`` iff ``d ≤ N`` (the global ``N``).

Repeated samples
----------------
Draws from a concentrated ``|ψ|²`` repeat, and repeated samples have equal
rows of ``O``. With the U distinct rows ``O_U``, their counts, ``s =
√counts``, ``S = diag(s)`` and ``Π = I − s sᵀ/N`` (``sᵀs = N``), the
indicator ``P`` of each sample's distinct row gives ``O = P O_U`` and
``H P S⁻¹ = P S⁻¹ Π``; ``P S⁻¹`` has orthonormal columns, so the N×N
system's solution is ``c = P S⁻¹ c'`` with

    (Π S G_U S Π / N + λI) c' = Π S O_U F / N ,   δθ = (F − O_Uᵀ S Π c') / λ ,

one U×U Cholesky, one U-row ``O @ F`` and one U-row back-projection. The
``λ = 0`` branch takes the same substitution. A factored ``O`` supplies
``O_U`` and the counts (:meth:`~repro.nn.factored.FactoredO.counted`); an
array ``O`` is its N rows with unit counts. This is the only system
solved: at unit counts ``s = 1``, ``Π = H``, and the centring sums are
divided by ``N`` as a mean is, so the result is the N×N system above bit
for bit.

``O`` may be a plain (N, d) array (``G`` is then ``O Oᵀ``, counted as
``sr.dense_jacobian``) or the layers' factors of one
(:class:`~repro.nn.factored.FactoredO`, what MADE, deep MADE and RBM
return): ``G`` is then built from layer statistics and no
N×d object exists at any point of the solve.

With ``λ = 0`` and ``N ≤ d`` the centred system is singular: the sample-
space solve returns the minimum-norm solution ``Ocᵀ (Gc/N)⁺² Oc F / N``
(the minSR formula) when ``F`` lies in the row space of ``Oc`` — the
energy gradient always does — and raises a ``ValueError`` naming
``diag_shift`` otherwise.

Distributed solves
------------------
``natural_gradient`` accepts a :class:`~repro.distributed.comm.Communicator`
and then solves the *global* system — the one a single process would build
from the concatenated batch — from every rank's local rows of ``O``:

============  =================================  ===================================
solver        collectives per solve              payload per rank
============  =================================  ===================================
sample space  1 allgather                        ``U_r·(Σ_l(in_l + out_l) + 1)`` floats
                                                 of layer factors and row counts —
                                                 ``U_r·(2(n + h) + 1)`` for the
                                                 paper's MADE — or ``N_r·d`` for an
                                                 array ``O``
dense         2 allreduces                       ``d + 1`` (centring) and ``d²``
``auto``      + 1 allreduce of the row count     1 float
============  =================================  ===================================

After the allgather every rank holds the same bytes and runs the same code
on them, so all ranks build the same ``G``, the same ``c`` and the same
``δθ`` — replicas stay in lock-step with no allreduce inside the solve and
no broadcast after it. Solver resolution depends only on ``d`` and the
global sample count, identical everywhere by construction; the collective
sequences are checked under :class:`repro.analysis.CommSanitizer` in the
tests.

Every solve records an :class:`SRSolveInfo` in :attr:`last_solve`
(resolved solver, how ``G`` was built, relative residual, collective
payload bytes) and, when a :class:`~repro.obs.Metrics` registry is
attached, bumps the ``sr.*`` counters.

``scipy.linalg`` is imported by the two solves that call it — each a
``cho_factor``/``cho_solve`` pair — at the first solve, not with this
module: a run without SR never loads scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.factored import FactoredO
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = ["StochasticReconfiguration", "SRSolveInfo"]

_TINY = np.finfo(np.float64).tiny


@dataclass(frozen=True)
class SRSolveInfo:
    """Diagnostics of one ``natural_gradient`` solve.

    Attributes
    ----------
    solver:
        The *resolved* solver — ``'dense'`` or ``'cg'`` (the sample-space
        solve), never ``'auto'``.
    distributed:
        Whether the solve ran collectives over a communicator.
    d, samples:
        Parameter count and **global** sample count feeding the Fisher
        estimate (summed over ranks in distributed solves).
    iterations, incomplete:
        Always ``0`` and ``False``: both solvers are direct. (Kept for the
        readers of the iterative solver these replaced.)
    residual:
        Relative residual of the linear system actually factorised: the
        d×d ``‖(S + λI)δ − F‖ / ‖F‖`` for dense, the N×N
        ``‖(Gc/N + λI)c − OcF/N‖ / ‖OcF/N‖`` in sample space (in its
        count-weighted form on the U distinct rows).
    comm_bytes:
        Collective payload bytes this solve moved (0 in serial solves);
        see the module's table.
    gram:
        How the sample-space solve built ``G``: ``'layers'`` (from a
        factored ``O``), ``'dense'`` (``O Oᵀ`` of an array), ``''`` for the
        dense solver.
    """

    solver: str
    distributed: bool
    d: int
    samples: int
    iterations: int
    residual: float
    incomplete: bool
    comm_bytes: int
    gram: str = ""


class StochasticReconfiguration:
    """Natural-gradient preconditioner built from per-sample log-derivatives.

    Parameters
    ----------
    diag_shift:
        Regularisation λ added to the diagonal of S (paper: 0.001).
    solver:
        ``'dense'`` (d×d), ``'cg'`` (the sample-space solve) or
        ``'auto'`` (the smaller of the two). Honoured identically in serial
        and distributed solves.
    cg_maxiter:
        Accepted for the callers of the conjugate-gradient solver the
        direct sample-space solve replaced; it has no effect.

    Attributes
    ----------
    last_solve:
        :class:`SRSolveInfo` of the most recent solve (None before the
        first).
    tracer:
        Span recorder for solve sub-spans (``sr.dense``, or ``sr.gram`` then
        ``sr.cholesky``); defaults to the shared disabled tracer. Attach
        with :meth:`attach_tracer` — the VQMC driver does this for you.
    metrics:
        Optional :class:`repro.obs.Metrics`; when set, each solve bumps
        ``sr.solves`` / ``sr.sample_space_solves`` / ``sr.dense_jacobian``
        / ``sr.comm_bytes`` and gauges ``sr.residual``.
    """

    tracer: Tracer = NULL_TRACER

    def __init__(
        self,
        diag_shift: float = 1e-3,
        solver: str = "auto",
        cg_maxiter: int | None = None,
    ):
        if diag_shift < 0:
            raise ValueError(f"diag_shift must be >= 0, got {diag_shift}")
        if solver not in ("dense", "cg", "auto"):
            raise ValueError(f"unknown solver {solver!r}")
        self.diag_shift = diag_shift
        self.solver = solver
        self.last_solve: SRSolveInfo | None = None
        self.metrics = None

    def attach_tracer(self, tracer: Tracer) -> None:
        """Report solve sub-spans on ``tracer`` (the Communicator idiom)."""
        self.tracer = tracer

    @staticmethod
    def fisher_matrix(per_sample_o) -> np.ndarray:  # repro-lint: disable=api-unreachable-export -- test oracle: the dense S every natural gradient is checked against
        """Dense centred overlap matrix ``S`` from ``O`` of shape (B, d)."""
        o = np.asarray(per_sample_o, dtype=np.float64)
        oc = o - o.mean(axis=0, keepdims=True)
        return oc.T @ oc / o.shape[0]

    # -- the two direct solves -----------------------------------------------------

    def _solve_dense(self, o, grad: np.ndarray, comm):
        """d×d: ``(S + λI) δ = F`` with S from the globally centred rows.
        Returns ``(δ, global N, residual)``."""
        import scipy.linalg

        o = np.asarray(o, dtype=np.float64)
        total, sums = o.shape[0], o.sum(axis=0)
        if comm is not None:
            # [Σ_local O, B_local]: global mean and count in one collective
            sums = comm.allreduce(np.append(sums, float(total)), op="sum")
            total, sums = int(round(sums[-1])), sums[:-1]
        oc = o - sums / total
        s = oc.T @ oc
        if comm is not None:
            s = comm.allreduce(s, op="sum")
        s /= total
        s[np.diag_indices_from(s)] += self.diag_shift
        # check_finite only on the way in: NaN/inf in S raises ValueError
        factor = scipy.linalg.cho_factor(s)
        sol = scipy.linalg.cho_solve(factor, grad, check_finite=False)
        residual = np.linalg.norm(s @ sol - grad) / max(np.linalg.norm(grad), _TINY)
        return sol, total, float(residual)

    def _solve_in_sample_space(self, o, grad: np.ndarray, comm):
        """U×U: Woodbury through the centred Gram matrix of the distinct
        rows, count-weighted (module docstring). Returns ``(δ, global N,
        residual)``."""
        factored = isinstance(o, FactoredO)
        shift = self.diag_shift
        with self.tracer.span("sr.gram", gram="layers" if factored else "dense") as span:
            if comm is not None:
                o = o.allgather(comm) if factored else np.concatenate(comm.allgather(o))
            n = o.shape[0]
            # the distinct rows over all ranks, and how many samples each is
            o, counts = o.counted() if factored else (o, np.ones(n))
            a = FactoredO._gram(o.factors) if factored else o @ o.T
            # ΠSG_USΠ, S = diag(s), Π = I - ssᵀ/N: at unit counts HGH with
            # H = I - 11ᵀ/N, each sum divided by N as a mean is, bit for bit
            s = np.sqrt(counts)
            a *= s[:, None] * s
            a -= s[:, None] * ((s[:, None] * a).sum(axis=0) / n)
            a -= (a * s).sum(axis=1, keepdims=True) / n * s
            a /= n
            self.tracer.end(span, rows=len(a))
        with self.tracer.span("sr.cholesky", n=len(a)):
            rhs = o @ grad
            rhs *= s
            rhs -= s * ((s * rhs).sum() / n)
            rhs /= n  # ΠS O_U F / N: Oc F / N at unit counts
            if not np.isfinite(a.sum() + rhs.sum()):
                # non-finite in, non-finite out: the driver's divergence
                # guard skips the update and counts the step
                return np.full(o.shape[1], np.nan), n, float("nan")
            if shift > 0.0:
                import scipy.linalg

                a[np.diag_indices_from(a)] += shift
                try:
                    factor = scipy.linalg.cho_factor(a, check_finite=False)
                except np.linalg.LinAlgError as exc:
                    m = len(a)
                    raise ValueError(
                        f"diag_shift={shift} leaves the {m}x{m} sample-space "
                        "system numerically singular; increase it"
                    ) from exc
                c = scipy.linalg.cho_solve(factor, rhs, check_finite=False)
                residual = np.linalg.norm(a @ c - rhs) / max(np.linalg.norm(rhs), _TINY)
                return (grad - self._centred(c, s, n) @ o) / shift, n, float(residual)
            # λ = 0: the minimum-norm δ = Ocᵀ (Gc/N)⁺² u, u = Oc F/N, defined
            # only for F in the row space of Oc, where |F|² = N·uᵀ(Gc/N)⁺u.
            vals, vecs = np.linalg.eigh(a)
            keep = vals > n * np.finfo(np.float64).eps * max(vals[-1], 0.0)
            vals, vecs = vals[keep], vecs[:, keep]
            coef = vecs.T @ rhs / vals  # (Gc/N)⁺u in the eigenbasis
            if grad @ grad - n * (coef**2 @ vals) > 1e-10 * (grad @ grad):
                raise ValueError(
                    "diag_shift=0 with a gradient outside the row space of the "
                    f"centred O ({n} samples, {o.shape[1]} parameters): the "
                    "system is singular; set diag_shift > 0"
                )
            c = vecs @ (coef / vals)
            residual = np.linalg.norm(a @ (a @ c) - rhs) / max(np.linalg.norm(rhs), _TINY)
            return self._centred(c, s, n) @ o, n, float(residual)

    @staticmethod
    def _centred(c: np.ndarray, s: np.ndarray, n: int) -> np.ndarray:
        """``SΠc``, the weights that back-project ``c`` onto the centred
        rows (``s`` the square roots of the counts): ``Hc`` at unit counts."""
        return s * (c - s * ((s * c).sum() / n))

    # -- solve -------------------------------------------------------------------

    def natural_gradient(self, per_sample_o, grad: np.ndarray, comm=None) -> np.ndarray:
        """Return ``(S + λI)^{-1} grad`` for the (global) Fisher matrix.

        Parameters
        ----------
        per_sample_o:
            This rank's rows of ``O``: an array of shape ``(B_local, d)``
            or a :class:`~repro.nn.factored.FactoredO` of that shape.
        grad:
            The *globally reduced* energy gradient, shape ``(d,)`` —
            identical on every rank in distributed runs.
        comm:
            Optional communicator. When given (and ``size > 1``), the
            solve targets the global system over all ranks' samples: the
            sample-space solve allgathers the rows (or their layer
            factors) once, the dense solve allreduces the d×d moment
            matrix. Solver selection behaves identically in serial and
            parallel.
        """
        o = per_sample_o
        factored = isinstance(o, FactoredO)
        if not factored:
            o = np.asarray(o, dtype=np.float64)
        grad = np.asarray(grad, dtype=np.float64)
        rows, d = o.shape
        if grad.shape != (d,):
            raise ValueError(f"grad shape {grad.shape} != ({d},)")

        distributed = comm is not None and comm.size > 1
        if not distributed:
            comm = None
        bytes_before = comm.stats.collective_bytes if distributed else 0

        solver = self.solver
        if solver == "auto":
            # The smaller system. The global count, like d, is the same on
            # every rank, so all ranks pick the same path.
            if distributed:
                rows = int(comm.allreduce(np.array([float(rows)]), op="sum")[0])
            solver = "dense" if d <= rows else "cg"

        if solver == "dense":
            gram = ""
            with self.tracer.span("sr.dense", d=d, distributed=distributed):
                sol, total, residual = self._solve_dense(o, grad, comm)
        else:
            gram = "layers" if factored else "dense"
            sol, total, residual = self._solve_in_sample_space(o, grad, comm)

        comm_bytes = comm.stats.collective_bytes - bytes_before if distributed else 0
        self.last_solve = SRSolveInfo(
            solver=solver,
            distributed=distributed,
            d=d,
            samples=total,
            iterations=0,
            residual=residual,
            incomplete=False,
            comm_bytes=comm_bytes,
            gram=gram,
        )
        metrics = self.metrics
        if metrics is not None:
            metrics.inc("sr.solves")
            if solver == "cg":
                metrics.inc("sr.sample_space_solves")
            if gram == "dense":
                metrics.inc("sr.dense_jacobian")
            metrics.inc("sr.comm_bytes", comm_bytes)
            metrics.set("sr.residual", residual)
        return sol
