"""In-process reference answers with no random draws in the program: ``exact``.

* The oracle grid: ``weighted_chi2_cdf`` and ``np_test_exact_probs`` over
  n in {10, 100, 1000} x weight spread in {1, 2, 1e2, 1e4}.  The grid is a
  fixed table, the same for every seed.  The cdf cells use weights
  geomspace(1, spread, n) at x = sum(w), the mean.  The NP cells use
  sigma^2 proportional to the same profile, scaled so that sum sigma^2 =
  3 sqrt(n), at the mid-window level: both error probabilities then lie
  in [0.01, 0.5], where the exact oracle is what the check needs.
* Exponent solves at n in {10, 1000, 100000}, on one flat and three random
  intensities per n, at a random level inside the operating window.
* The tail sandwiches, and ``reduce_to_minimal`` on random point sets.

Eight operations per round fail on every run because of faults in the
program (README "Known faults"); their inputs do not depend on the seed,
they are checked and counted as failed, and their time is left out of
every metric.
"""

from __future__ import annotations

import math

import numpy as np

from ledger import checks, program_modules, typical_rate, typical_seconds
from wl_mc import mid_window_level

GRID_N = (10, 100, 1000)
GRID_SPREAD = (("1", 1.0), ("2", 2.0), ("1e2", 1e2), ("1e4", 1e4))
SOLVE_N = (10, 1000, 100_000)
SOLVERS = ("solve_u0", "alpha_upper_bound", "beta_mismatch_upper", "beta_lower_bound")
REDUCE_M = (200, 300, 400)
REDUCE_DIM = 4
MC_SAMPLES = 100_000  # every grid cell is also checked by independent MC
MIN_SEEDED_LEVEL = -1400.0

# Cells of the grid on which the program fails whatever the seed.
CDF_FAULTS = {(1000, "1e2"): "a", (1000, "1e4"): "a", (100, "1e4"): "d"}
NP_FAULTS = {(1000, "1e2"): "a", (1000, "1e4"): "a"}


def grid_profile(n: int, spread: float) -> np.ndarray:
    return np.geomspace(1.0, spread, n) if spread > 1 else np.ones(n)


class Exact:
    name = "exact"

    def setup(self, seed: int) -> None:
        from gausdet import model

        self.modules = M = program_modules()
        self.seed = seed
        IV = model.IntensityVector
        # Oracle grid and the fault cases (fixed, not seeded).
        self.cdf_cells, self.np_cells = [], []
        for n in GRID_N:
            for label, spread in GRID_SPREAD:
                cell = f"n{n}.spread{label}"
                w = grid_profile(n, spread)
                self.cdf_cells.append((cell, n, w, float(w.sum()),
                                       CDF_FAULTS.get((n, label))))
                s2 = w * 3.0 * math.sqrt(n) / w.sum()
                sigma = IV(np.sqrt(s2))
                A = mid_window_level(sigma.values)
                self.np_cells.append((cell, n, sigma, A, model.NpTest(sigma, A),
                                      NP_FAULTS.get((n, label))))
        # (b) near-equal weights at n = 200, x = 40: true value about 3.3e-37.
        self.cdf_cells.append(("fault_b", 200, np.linspace(1.0, 1.001, 200), 40.0, "b"))
        # (c) flat sigma = 1, n = 50, A = 60: true alpha about 4.5e-18.
        ones = IV(np.ones(50))
        self.np_cells.append(("fault_c", 50, ones, 60.0, model.NpTest(ones, 60.0), "c"))

        rng = np.random.default_rng([seed, 3])
        self.solves = []
        for n in SOLVE_N:
            for flat in (True, False, False, False):
                if flat:
                    s = np.full(n, rng.uniform(0.5, 1.5))
                    lam = s * rng.uniform(0.95, 1.05)
                else:
                    s = rng.uniform(0.3, 1.5, n)
                    lam = s * rng.uniform(0.95, 1.05, n)
                s2 = s * s
                D = float(np.sum(np.log1p(s2)))
                lo, hi = float(np.sum(s2 / (1 + s2))) - D, float(np.sum(s2)) - D
                # Levels below -2 * 709.78 make alpha_upper_bound overflow;
                # fault (f) below covers that on fixed inputs.
                lo = max(lo, MIN_SEEDED_LEVEL)
                A = lo + float(rng.uniform(0.35, 0.65)) * (hi - lo)
                self.solves.append((n, s, lam, A, IV(s), IV(lam)))
        # (f) flat sigma = 1, n = 1e5, A = -5000, inside the operating window.
        self.alpha_fault = (np.ones(100_000), -5000.0, IV(np.ones(100_000)))

        self.tails = []
        for z in rng.uniform(0.2, 6.0, 6):
            self.tails.append(("normal_tail_bounds", (float(z),)))
        for _ in range(6):
            n = int(rng.integers(1, 401))
            self.tails.append(("chi2_lower_tail_sandwich",
                               (float(rng.uniform(0.1, 1.0)) * n, n)))
        for _ in range(6):
            n = int(rng.integers(2, 401))
            self.tails.append(("chi2_upper_tail_sandwich",
                               (float(rng.uniform(1.0, 4.0)) * n, n)))
        self.flat_tails = []
        for _ in range(3):
            n, s = int(rng.integers(20, 501)), float(rng.uniform(0.3, 1.0))
            s2 = s * s
            D, T, B = n * math.log1p(s2), n * s2 / (1 + s2), 2 * n * (s2 / (1 + s2)) ** 2
            A = T - D + float(rng.uniform(0.5, 3.0)) * math.sqrt(B)
            self.flat_tails.append(("berry_esseen_alpha", n, s, A, IV(np.full(n, s))))
        for _ in range(3):
            n, s = int(rng.integers(50, 501)), float(rng.uniform(0.5, 1.5))
            self.flat_tails.append(("prop4_threshold", n, s, None, IV(np.full(n, s))))

        self.reductions = []
        for m in REDUCE_M:
            pts = rng.uniform(0.2, 2.0, (m, REDUCE_DIM))
            pts[rng.choice(m, 5, replace=False)] = pts[rng.choice(m, 5, replace=False)]
            self.reductions.append(
                (m, pts, model.FinitePoints(tuple(IV(p) for p in pts))))

        # One warm-up call per entry point, on small inputs.
        small = IV(np.array([0.5, 0.7, 0.9]))
        A = mid_window_level(small.values)
        M["simulate"].weighted_chi2_cdf([1.0, 2.0], 1.0)
        M["simulate"].np_test_exact_probs(model.NpTest(small, A))
        for fn in SOLVERS:
            getattr(M["exponents"], fn)(*((small, small, A) if fn == "beta_mismatch_upper"
                                          else (small, A)))
        M["exponents"].g_eval(small, A, 1.0)
        M["tails"].normal_tail_bounds(1.0)
        M["tails"].chi2_lower_tail_sandwich(1.0, 2)
        M["tails"].chi2_upper_tail_sandwich(3.0, 2)
        M["tails"].berry_esseen_alpha(small, A)
        M["tails"].prop4_threshold(IV(np.ones(20)))
        M["reduction"].reduce_to_minimal(model.FinitePoints((small, small)))

    def prepare_checks(self) -> None:
        """Independent MC frequencies of every grid cell, once per run.

        1e5 PCG64 samples per n, shared by the cells of that n; at n = 1000
        this is 1e8 normals, made after set-up and before the measured
        rounds.
        """
        self.mc = {}
        for n in GRID_N:
            rows, xs, keys = [], [], []
            for cell, cn, w, x, _ in self.cdf_cells:
                if cn == n:
                    rows.append(w)
                    xs.append(x)
                    keys.append(("cdf", cell))
            for cell, cn, sigma, A, _, _ in self.np_cells:
                if cn == n:
                    s2 = sigma.values ** 2
                    thr = float(np.sum(np.log1p(s2))) + A
                    rows += [s2 / (1.0 + s2), s2]
                    xs += [thr, thr]
                    keys += [("alpha", cell), ("beta", cell)]
            freq = checks().mc_weighted_chi2_le(rows, xs, MC_SAMPLES,
                                                self.seed * 10_000 + n)
            self.mc.update(zip(keys, freq))

    def mc_cdf(self, cell: str):
        """(frequency, samples) of a cdf cell; None off the grid."""
        f = self.mc.get(("cdf", cell))
        return None if f is None else (f, MC_SAMPLES)

    def mc_np(self, cell: str):
        """(alpha, beta, samples) of an NP cell; None off the grid."""
        a, b = self.mc.get(("alpha", cell)), self.mc.get(("beta", cell))
        return None if a is None else (1.0 - a, b, MC_SAMPLES)

    def run_round(self, ledger, r: int) -> None:
        M = self.modules
        S, E, T = M["simulate"], M["exponents"], M["tails"]
        for cell, n, w, x, fault in self.cdf_cells:
            ledger.op("oracle", lambda: S.weighted_chi2_cdf(w, x),
                      lambda v: checks().check_chi2_cdf(v, w, x, self.mc_cdf(cell)),
                      fault=fault, cell=cell)
        for cell, n, sigma, A, test, fault in self.np_cells:
            ledger.op("oracle", lambda: S.np_test_exact_probs(test),
                      lambda out: checks().check_np_exact(out, sigma.values, A,
                                                          self.mc_np(cell)),
                      fault=fault, cell=cell)

        for n, s, lam, A, sig, lam_iv in self.solves:
            ledger.op("solve", lambda: (E.solve_u0(sig, A), E.g_eval(sig, A, 1.0)),
                      lambda out: checks().check_solve_u0(out, s, A), work=1)
            ledger.op("solve", lambda: E.alpha_upper_bound(sig, A),
                      lambda out: checks().check_alpha_bound(out, s, A), work=1)
            ledger.op("solve", lambda: E.beta_mismatch_upper(sig, lam_iv, A),
                      lambda out: checks().check_mismatch_bound(out, s, lam, A), work=1)
            ledger.op("solve", lambda: E.beta_lower_bound(sig, A),
                      lambda out: checks().check_beta_sandwich(out, s, A), work=1)
        s, A, sig = self.alpha_fault
        ledger.op("solve", lambda: E.alpha_upper_bound(sig, A),
                  lambda out: checks().check_alpha_bound(out, s, A), work=1, fault="f")

        for fn, args in self.tails:
            if fn == "normal_tail_bounds":
                check = lambda sw: checks().check_normal_tail(sw, *args)  # noqa: E731
            else:
                tail = "lower" if fn == "chi2_lower_tail_sandwich" else "upper"
                check = lambda sw: checks().check_chi2_log_tail(sw, *args, tail)  # noqa: E731
            ledger.op("tails", lambda: getattr(T, fn)(*args), check)
        for fn, n, s, A, sig in self.flat_tails:
            if fn == "berry_esseen_alpha":
                ledger.op("tails", lambda: T.berry_esseen_alpha(sig, A),
                          lambda out: checks().check_berry_esseen(out, s, n, A))
            else:
                ledger.op("tails", lambda: T.prop4_threshold(sig),
                          lambda out: checks().check_prop4(out, s, n))

        for m, pts, cands in self.reductions:
            ledger.op(
                "reduce", lambda: M["reduction"].reduce_to_minimal(cands),
                lambda res: checks().check_reduction(
                    pts, [p.values for p in res.reduced.points],
                    res.removed_count, res.witness_map),
                work=m)

    def end_to_end(self, ledger) -> dict:
        return {
            "round_s": typical_seconds(ledger.timed()),
            "key_op_s": typical_seconds(ledger.timed({"oracle"})),
            "work_per_s": typical_rate(ledger.timed({"solve"})),
        }
