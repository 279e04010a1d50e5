"""Bounds and numerical estimation of the supremum of the combined Gini index.

No state can have both measurement distributions fully concentrated, so the
combined index g_x + g_p stays strictly below twice the single-basis cap
(d-1)/(d+1). The gap between that strict ceiling and the actual supremum over
all states is the uncertainty coefficient of the dimension. The supremum has
no known closed form; this module brackets it from below by the value of an
explicit superposition state and sharpens the bracket with derivative-free
search over pure states, each search finished by a matrix-free eigen-solve
of the ordering operator of the state's own orderings. A restart is a
complex amplitude row everywhere but inside the coordinate search, which
alone steps the 2d real coordinates of a float view.
"""

import bisect
import itertools

import numpy as np

from qgini.errors import ValidationError
from qgini.gini import GiniReport, _ginis, _weighted_sums, gini_cap, gini_weights
from qgini.qsystem import (
    QuantumSystem, StateVector, _distribution_rows, _moduli_squared, _momentum_rows, _position_rows,
    _trusted, check_budget, check_dimension,
)
from qgini.sampling import check_seed, split_seed

INITIAL_STEP = 0.3
# a restart's coordinate search stops once its step drops below MIN_STEP, once
# its orderings stay the same over SETTLED_LEVELS whole step levels (its
# rank weights at SETTLED_LEVELS + 1 halvings in a row are equal), or when
# its sweeps run out; the finish optimizes the amplitudes of those orderings
# exactly. One level is too few: it lowered a d = 9 estimate by 6.4e-5
MIN_STEP = 1e-5
SETTLED_LEVELS = 2
BRACKET_SLACK = 1e-9
# candidates one search probes per round
PROBE_ROWS = 24
# ceiling on the memory of one round of the lockstep search: its candidate
# block and the objective's temporaries
_ROUND_BYTES = 32 * 2**20
# the finish: an eigen-solve stops once its residual is at most _RESIDUAL_TOL
# (certified) or after _SOLVE_ITERATIONS, and a restart re-ranks and solves
# at most _ASCENTS times
_RESIDUAL_TOL = 1e-9
_SOLVE_ITERATIONS = 200
_ASCENTS = 32
# bytes a finishing row takes per unit of d, its solver's temporaries included
_FINISH_ROW_BYTES = 1024

# Budget ceilings, far above the defaults (32 restarts, 2000 sweeps): a
# larger request is refused before any work rather than left to run for
# days. The search usually converges long before the sweep ceiling.
MAX_RESTARTS = 10_000
MAX_ITERATIONS = 1_000_000


def check_search_budget(restarts: int, iterations: int) -> None:
    """Reject restart and sweep counts outside [1, MAX_RESTARTS] and [1, MAX_ITERATIONS]."""
    check_budget("restarts", restarts, MAX_RESTARTS)
    check_budget("iterations", iterations, MAX_ITERATIONS)


def example_state(system: QuantumSystem) -> StateVector:
    """Equal superposition of the first position and first momentum state.

    Amplitudes are d**(1/4) / sqrt(2*sqrt(d) + 2) * (|X;0> + |P;0>), already
    normalized, so they are wrapped without the constructor's checks.
    Position and momentum distributions coincide (one enhanced outcome, d-1
    equal small ones), and the combined Gini index takes the closed form
    returned by :func:`example_gini_closed_form`, the reference lower bound
    on the supremum.
    """
    d = system.d
    c = d**0.25 / np.sqrt(2.0 * np.sqrt(d) + 2.0)
    amp = np.full(d, c / np.sqrt(d), dtype=np.complex128)
    amp[0] += c
    return _trusted(StateVector, dim=d, amplitudes=amp)


def example_gini_closed_form(d: int) -> float:
    """Combined Gini index of the example state: (d-1)/(d+1) * (1 + 1/(1+sqrt(d)))."""
    check_dimension(d)
    return gini_cap(d) * (1.0 + 1.0 / (1.0 + np.sqrt(d)))


class BoundSet:
    """The analytic bracket at one dimension.

    gini_cap        largest single-basis index, (d-1)/(d+1)
    g_lower         combined index of the example state (achieved, so a
                    lower bound for the supremum)
    g_strict_upper  2 * gini_cap, approached by no state
    eta_upper       g_strict_upper - g_lower, the most the uncertainty
                    coefficient can be; equals gini_cap * sqrt(d)/(1+sqrt(d))
    """

    def __init__(self, d: int):
        self.g_lower = example_gini_closed_form(d)  # validates d
        self.dim = int(d)
        self.gini_cap = gini_cap(d)
        self.g_strict_upper = 2.0 * self.gini_cap
        self.eta_upper = self.gini_cap * np.sqrt(d) / (1.0 + np.sqrt(d))

    def __repr__(self):
        return f"BoundSet(dim={self.dim})"


class EtaEstimate:
    """Result of one supremum search, derived from the state it found.

    best_state is the state found, gauge-fixed. g_sup_estimate is its
    combined index g_x + g_p, scored and added as gini_report scores and
    adds them, so it equals the g_xp of the state's report bit for bit and
    is a lower bound on the true supremum; eta_estimate = g_strict_upper -
    g_sup_estimate is the matching upper bound on the coefficient; bounds
    is the bracket at the state's dimension dim. converged records whether
    the winning restart's finish on the ordering operator ended certified:
    the state then attains 2 - 2/(d+1) times the least eigenvalue of the
    operator of its own orderings, to rounding. restarts and iterations
    must be integers within the search budget, and seed an integer in
    [0, 2**64).
    """

    def __init__(self, best_state, restarts, iterations, seed, converged):
        check_search_budget(restarts, iterations)
        check_seed(seed)
        if not isinstance(best_state, StateVector):
            raise ValidationError(f"best_state must be a StateVector, got {type(best_state).__name__}")
        bounds = BoundSet(best_state.dim)
        g_x, g_p = _ginis(best_state.amplitudes, pure=True)
        g = GiniReport(best_state.dim, float(g_x), float(g_p)).g_xp  # refuses g >= g_strict_upper
        if g < bounds.g_lower - BRACKET_SLACK:
            raise ValidationError(f"estimate {g!r} fell below the achievable lower bound {bounds.g_lower!r}")
        self.dim = bounds.dim
        self.g_sup_estimate = g
        self.eta_estimate = bounds.g_strict_upper - g
        self.bounds = bounds
        self.best_state = best_state
        self.restarts = int(restarts)
        self.iterations = int(iterations)
        self.seed = int(seed)
        self.converged = bool(converged)

    def __repr__(self):
        return (
            f"EtaEstimate(dim={self.dim}, g_sup={self.g_sup_estimate:.9f}, "
            f"eta={self.eta_estimate:.9f}, converged={self.converged})"
        )


# ---- search internals -------------------------------------------------------


def _combined_gini_objective(d: int):
    """Fast combined-index evaluator over blocks of amplitude rows.

    Each row of the (m, d) complex128 block is a unit-norm amplitude vector;
    callers keep candidates on the unit sphere. Returns the m sums of both
    indices in the weighted-sort form of :func:`qgini.gini.gini_weights`, so
    one call scores a whole block of candidates. Both distributions come
    from the same two kernels every report takes them from
    (qsystem._position_rows and _momentum_rows): momenta are the orthonormal
    FFT of each row, so F is never built.

    The FFT transforms each row on its own and the weighted sums are per-row
    dot products, never one matrix-matrix product, so a row rounds exactly
    as a lone vector: a candidate scores the same bits whichever block it
    sits in, and the batched search accepts exactly the moves of a
    one-candidate-at-a-time search.
    """
    w, scale = gini_weights(d)

    def objective(z: np.ndarray) -> np.ndarray:
        px, pp = _position_rows(z, True), _momentum_rows(z, True)
        px.sort(axis=-1)
        pp.sort(axis=-1)
        return 2.0 - scale * (_weighted_sums(px, w) + _weighted_sums(pp, w))

    return objective


def _row_norms(block: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row as an (m, 1) column.

    Per-row dot products, each rounded as np.linalg.norm rounds one vector,
    so a row's norm does not depend on the block it sits in.
    """
    return np.sqrt(np.matmul(block[:, None, :], block[:, :, None]))[:, 0]


def _pattern_search(objective, starts, max_sweeps):
    """Greedy coordinate pattern search on the unit sphere, every start in lockstep.

    Each start (a complex row of the (R, d) stack) runs its own search over
    the reals (Re a_0, Im a_0, Re a_1, ...) of a float view, the only place
    they appear; the objective scores complex blocks. One sweep probes the
    candidates (coordinate 0, +step), (0, -step), (1, +step), ... in that
    order, renormalizing each back to the sphere, and accepts the first that
    improves on the best value; the sweep then resumes at the next
    coordinate. A sweep without any accepted move halves the step, which
    starts at INITIAL_STEP, and ranks the point's two distributions
    (_rank_weights, as the finish ranks them). A search stops when its step
    drops below MIN_STEP, when its rank weights equal those of its previous
    SETTLED_LEVELS halvings (its orderings, which the finish optimizes
    exactly, went unchanged over that many step levels), or when its sweep
    budget is spent.

    The searches advance in rounds. Each round stacks the next PROBE_ROWS
    candidates (fewer at the end of a sweep) of the first live searches into
    one block and scores it with one objective call. A block and the
    objective's temporaries stay under _ROUND_BYTES, and so does every call
    that scores the starts: searches that do not fit wait for the next
    round, but a round always takes at least one search. Because the
    objective scores a row the same whatever block it is in, each search
    accepts exactly the moves it would accept run alone with its whole sweep
    scored at once, whatever the window and the waiting. Returns the (R, d)
    complex points the searches end at and their R values.
    """
    z = np.array(starts, dtype=np.complex128)
    x = z.view(np.float64)  # the real coordinates, sharing z's memory
    x /= _row_norms(x)
    count, n = x.shape
    # a block row is 8n bytes; the objective's temporaries take about 3x more:
    # the row's FFT (1x), then the position moduli and the FFT's two squares
    # and their sum (0.5x each)
    max_rows = max(1, _ROUND_BYTES // (32 * n))
    best = np.concatenate([objective(z[i : i + max_rows]) for i in range(0, count, max_rows)])
    probe = min(PROBE_ROWS, max_rows)
    per_round = max_rows // probe
    coords = np.arange(2 * n) // 2
    signs = np.tile([1.0, -1.0], n)
    step = np.full(count, INITIAL_STEP)
    start = [0] * count  # next candidate of each search's current sweep
    improved = [False] * count
    sweeps = [1] * count
    ranks = [None] * count  # rank weights at each search's last halving
    settled = [0] * count  # halvings in a row that kept the previous one's ranks
    live = list(range(count))
    while live:
        ids = live[:per_round]
        rows = [min(probe, 2 * n - start[r]) for r in ids]
        *offsets, total = itertools.accumulate(rows, initial=0)
        # the search each block row belongs to, and the row's candidate index
        owner = np.array(ids).repeat(rows)
        cand = np.arange(total) + np.array([start[r] - o for r, o in zip(ids, offsets)]).repeat(rows)
        block = x.take(owner, axis=0)
        block[np.arange(total), coords.take(cand)] += signs.take(cand) * step.take(owner)
        block /= _row_norms(block)
        vals = objective(block.view(np.complex128))
        better = (vals > best.take(owner)).nonzero()[0].tolist()
        ended = []
        for r, o, m in zip(ids, offsets, rows):
            k = bisect.bisect_left(better, o)
            if k < len(better) and better[k] < o + m:
                j = better[k]
                x[r], best[r] = block[j], vals[j]
                start[r] = 2 * ((start[r] + j - o) // 2 + 1)  # the next coordinate
                improved[r] = True
            else:
                start[r] += m
            if start[r] == 2 * n:
                if not improved[r]:
                    step[r] *= 0.5
                    own = _rank_weights(z[r : r + 1])
                    settled[r] = settled[r] + 1 if np.array_equal(own, ranks[r]) else 0
                    ranks[r] = own
                if step[r] < MIN_STEP or settled[r] >= SETTLED_LEVELS or sweeps[r] == max_sweeps:
                    ended.append(r)
                else:
                    sweeps[r] += 1
                    start[r] = 0
                    improved[r] = False
        if ended:
            live = [r for r in live if r not in ended]
    return z, best


def _ordering_rows(z: np.ndarray, rx: np.ndarray, rp: np.ndarray) -> np.ndarray:
    """M z for each row of z, M = diag(rx) + F diag(rp) F^dag the ordering operator.

    One FFT pair per row (F^dag is the forward DFT), no F and no d x d
    array; rx and rp broadcast against z. With a row's own rank weights,
    g_x + g_p = 2 - 2/(d+1) * <z|M|z>.
    """
    return rx * z + np.fft.ifft(rp * np.fft.fft(z))


def _rank_weights(z: np.ndarray) -> np.ndarray:
    """Rank weights of each row's position and momentum distributions, as an (m, 2, d) stack.

    The most probable index gets 1 and the least probable d: weight w[j] of
    gini_weights goes to the j-th smallest probability (stable order, so
    ties break toward the lower index), via the order's inverse permutation.
    """
    w, _ = gini_weights(z.shape[-1])
    return w[_distribution_rows(z, True).argsort(axis=-1, kind="stable").argsort(axis=-1)]


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a|b> of each row pair over the last axis: elementwise products and a per-row sum, no BLAS."""
    return (a.conj() * b).sum(axis=-1)


def _lengths(a: np.ndarray) -> np.ndarray:
    return np.sqrt(_moduli_squared(a).sum(axis=-1))


def _orthonormal_to(basis: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Each row of v made orthogonal to its (k, d) orthonormal basis, twice over, then unit."""
    for _ in range(2):
        v = v - (_row_dots(basis, v[:, None])[:, :, None] * basis).sum(axis=1)
    return v / _lengths(v)[:, None]


_NEXT, _AFTER = [1, 2, 0], [2, 0, 1]


def _lowest_ritz(a: np.ndarray) -> np.ndarray:
    """Unit eigenvector of the least eigenvalue of each Hermitian 3 x 3 matrix of the stack a.

    The least root of the characteristic cubic in trigonometric form, then
    the longest cross product of two rows of a - lambda I, which spans the
    null space. Elementwise arithmetic only: loading a LAPACK eigensolver
    alone raised the peak memory of a process running estimates by about 1 MB.
    """
    diag = a[:, [0, 1, 2], [0, 1, 2]].real
    q = diag.sum(axis=1) / 3.0
    b = diag - q[:, None]
    off = a[:, [0, 0, 1], [1, 2, 2]]
    s = _moduli_squared(off)
    p = np.sqrt(((b * b).sum(axis=1) + 2.0 * s.sum(axis=1)) / 6.0)
    det = b.prod(axis=1) + 2.0 * (off[:, 0] * off[:, 2] * off[:, 1].conj()).real - (b * s[:, ::-1]).sum(axis=1)
    angle = np.arccos(np.clip(det / (2.0 * p**3), -1.0, 1.0)) / 3.0
    n = a - (q + 2.0 * p * np.cos(angle + 2.0 * np.pi / 3.0))[:, None, None] * np.eye(3)
    u, v = n[:, _NEXT], n[:, _AFTER]
    cross = u[:, :, _NEXT] * v[:, :, _AFTER] - u[:, :, _AFTER] * v[:, :, _NEXT]
    norms = _moduli_squared(cross).sum(axis=2)
    rows, longest = np.arange(len(a)), norms.argmax(axis=1)
    return cross[rows, longest] / np.sqrt(norms[rows, longest])[:, None]


def _bottom_vectors(z: np.ndarray, rx: np.ndarray, rp: np.ndarray):
    """Bottom eigenvector of each row's ordering operator, by LOBPCG started at the row.

    z holds (m, d) unit rows, rx and rp their (m, d) rank weights. A row
    whose residual ||Mx - <x|M|x> x|| is at most _RESIDUAL_TOL is certified
    and frozen; the others move to the bottom Ritz vector of the
    orthonormalized span[x, residual, previous step] (Knyazev's LOBPCG with
    one vector). Only per-row FFTs, per-row sums and elementwise arithmetic,
    so a row rounds exactly as it would alone, at any thread count. Returns
    the vectors and which are certified (not after _SOLVE_ITERATIONS).
    """
    out = z.copy()
    certified = np.zeros(len(z), dtype=bool)
    live = np.arange(len(z))
    x, step = z, np.zeros_like(z)
    for i in range(_SOLVE_ITERATIONS):
        mx = _ordering_rows(x, rx, rp)
        residual = mx - _row_dots(x, mx).real[:, None] * x
        done = _lengths(residual) <= _RESIDUAL_TOL
        if done.any():
            out[live[done]] = x[done]
            certified[live[done]] = True
            keep = ~done
            live, x, mx, residual, step, rx, rp = (a[keep] for a in (live, x, mx, residual, step, rx, rp))
            if not live.size:
                return out, certified
        s = np.stack((x, _orthonormal_to(x[:, None], residual), step), axis=1)
        if i:
            s[:, 2] = _orthonormal_to(s[:, :2], step)
        ms = np.concatenate((mx[:, None], _ordering_rows(s[:, 1:], rx[:, None], rp[:, None])), axis=1)
        gram = _row_dots(s[:, :, None], ms[:, None])
        if not i:
            # no step yet: its zero direction gets a Rayleigh quotient above
            # M's spectrum, which lies in [2, 2d], so it takes no weight
            gram[:, 2, 2] = 2.0 * z.shape[1] + 1.0
        c = _lowest_ritz(gram)[:, :, None]
        step = (c[:, 1:] * s[:, 1:]).sum(axis=1)
        x = c[:, 0] * x + step
        x /= _lengths(x)[:, None]
    out[live] = x
    return out, certified


def _finish(z: np.ndarray, best: np.ndarray):
    """Finish searched restarts on the ordering operator, by alternating ascent.

    z holds (m, d) complex unit rows and best their values. A row's own
    orderings give its operator M, whose bottom eigenvector scores at least
    2 - 2/(d+1) * lambda_min(M) >= the row's value. Each step re-ranks the
    row and solves from it; the row moves only if the objective re-scores
    the eigenvector above its value, or at it when the orderings are a
    fixed point, so a value never falls. A row ends certified at a fixed
    point or at a certified solve without gain (it then attains its own
    lambda_min to rounding), and uncertified at an uncertified solve or
    after _ASCENTS steps. Returns the rows, their values and which ended
    certified.
    """
    objective = _combined_gini_objective(z.shape[-1])
    z, best = z.copy(), best.copy()
    ranks = _rank_weights(z)
    certified = np.zeros(len(z), dtype=bool)
    live = np.arange(len(z))
    for _ in range(_ASCENTS):
        vectors, solved = _bottom_vectors(z[live], ranks[live, 0], ranks[live, 1])
        vals = objective(vectors)
        own = _rank_weights(vectors)
        fixed = (own == ranks[live]).all(axis=(1, 2))
        gain = vals > best[live]
        accept = solved & (gain | (fixed & (vals == best[live])))
        moved = live[accept]
        z[moved], best[moved], ranks[moved] = vectors[accept], vals[accept], own[accept]
        go_on = solved & gain & ~fixed
        certified[live[solved & ~go_on]] = True
        live = live[go_on]
        if not live.size:
            break
    return z, best, certified


def _gauge_fixed(z: np.ndarray) -> StateVector:
    """The amplitudes z, first nonzero entry made real positive."""
    k = int(np.flatnonzero(np.abs(z) > 1e-12)[0])
    return StateVector.normalized(z * (np.conj(z[k]) / abs(z[k])))


def estimate_sup_gini(
    system: QuantumSystem,
    restarts: int = 32,
    iterations: int = 2000,
    seed: int = 42,
) -> EtaEstimate:
    """Estimate the supremum of g_x + g_p over all states of the system.

    The combined index is convex over mixing, so the supremum is approached
    on pure states and the search runs over complex unit amplitude rows
    only. Each restart performs a coordinate pattern search (one iteration
    = one full sweep of the 2d reals of its row, probing +step and -step,
    halving the step after sweeps without improvement, stopping below
    MIN_STEP or once its orderings settle); all restarts run in lockstep,
    their candidates scored together in rounds of bounded memory (see
    _pattern_search). Every restart, whichever stop ended its
    search, is then finished on the ordering operator
    M = diag(r_x) + F diag(r_p) F^dag of its own rank weights: it moves to
    the bottom eigenvector of M, found matrix-free from the searched point,
    re-ranks and solves again until its orderings are a fixed point, never
    losing value (see _finish). Restarts are finished in chunks under
    _ROUND_BYTES; each row's steps are its own, so the chunks do not change
    any result.

    Restart 0 starts from the example superposition state, which pins the
    estimate at or above the closed-form lower bound. Restart r >= 1 starts
    from 2d standard normals, the real and imaginary parts of d amplitudes
    in turn, drawn from numpy's default generator seeded with
    split_seed(seed, r). Each restart's result is the one it reaches run
    alone, so a fixed (dimension, restarts, iterations, seed) tuple
    reproduces the result bit for bit. The winner is the restart of the
    largest search value, ties resolved toward the lowest restart index; the
    estimate reports the winner's gauge-fixed state and the value its own
    report gives that state (see EtaEstimate).
    """
    check_search_budget(restarts, iterations)
    check_seed(seed)
    d = system.d
    starts = np.empty((restarts, d), dtype=np.complex128)
    starts[0] = example_state(system).amplitudes
    for r in range(1, restarts):
        starts[r].real, starts[r].imag = np.random.default_rng(split_seed(seed, r)).standard_normal((d, 2)).T
    z, best = _pattern_search(_combined_gini_objective(d), starts, iterations)
    certified = np.empty(restarts, dtype=bool)
    chunk = max(1, _ROUND_BYTES // (_FINISH_ROW_BYTES * d))
    for i in range(0, restarts, chunk):
        part = slice(i, i + chunk)
        z[part], best[part], certified[part] = _finish(z[part], best[part])
    r = int(best.argmax())
    return EtaEstimate(_gauge_fixed(z[r]), restarts, iterations, seed, certified[r])
