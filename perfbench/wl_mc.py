"""In-process Monte Carlo workloads: ``mc-draw`` and ``mc-stat``.

``mc-draw`` is bound by drawing Philox normals: NP miss and false-alarm
estimates on flat intensities at n = 200 and 1000 (the shape of acceptance
criterion 01) and the sum-floor experiment at n = 1e4 with a two-hot probe
(criterion 09).  ``mc-stat`` is bound by scoring: GLRT and Bayes tests with
64 candidates at n = 16, so each sample has few draws and many quadratic
forms, plus the convex-symmetric-set check on boxes and ellipsoids.

Each round uses a fresh Monte Carlo seed derived from the run seed and the
round number; the instances themselves are fixed for the run.
"""

from __future__ import annotations

import math

import numpy as np

from ledger import checks, program_modules, typical_rate, typical_seconds

NP_CASES = ((200, 50_000), (1000, 10_000))  # (n, samples)
EXAMPLE3 = (10_000, 1.0, 1_000)  # (n, R, samples)
STAT_N, STAT_K, STAT_SAMPLES = 16, 64, 200_000
LEMMA1_SAMPLES = 100_000


def mid_window_level(sigma_values) -> float:
    """Level A at the middle of the operating window (T - D, sum s^2 - D)."""
    s2 = np.asarray(sigma_values, dtype=float) ** 2
    D = float(np.sum(np.log1p(s2)))
    return 0.5 * (float(np.sum(s2 / (1.0 + s2))) + float(np.sum(s2))) - D


def round_seed(seed: int, r: int) -> int:
    return (seed * 1000 + r) * 4  # example3 also uses the next two seeds


class McDraw:
    name = "mc-draw"

    def setup(self, seed: int) -> None:
        from gausdet import model, simulate

        self.modules = program_modules()
        self.seed = seed
        rng = np.random.default_rng([seed, 1])
        self.np_cases = []
        for n, samples in NP_CASES:
            s = float(rng.uniform(0.2, 0.4))
            sigma = model.IntensityVector(np.full(n, s))
            A = mid_window_level(sigma.values)
            self.np_cases.append((n, samples, s, A, model.NpTest(sigma, A), sigma))
        n, R, samples = EXAMPLE3
        probe = np.zeros(n)
        probe[rng.choice(n, 2, replace=False)] = math.sqrt(n * R * R / 2.0)
        self.probe = model.IntensityVector(probe)
        # One warm-up call per entry point, on small inputs.
        small = model.IntensityVector(np.full(4, 0.5))
        simulate.estimate_error_probs(model.NpTest(small, 0.0), None, 1000, 1)
        simulate.example3_experiment(8, 1.0, 1000, 1, model.IntensityVector(np.ones(8)))

    def prepare_checks(self) -> None:
        checks()

    def run_round(self, ledger, r: int) -> None:
        S = self.modules["simulate"]
        mc_seed = round_seed(self.seed, r)
        for n, samples, s, A, test, sigma in self.np_cases:
            ledger.op(
                "np_alpha",
                lambda: S.estimate_error_probs(test, None, samples, mc_seed),
                lambda est: checks().mc_consistent(
                    est.p_hat, samples, checks().flat_np_alpha(s, n, A),
                    what="alpha_hat"),
                work=samples * n)
            ledger.op(
                "np_beta",
                lambda: S.estimate_error_probs(test, sigma, samples, mc_seed),
                lambda est: checks().mc_consistent(
                    est.p_hat, samples, checks().flat_np_beta(s, n, A),
                    what="beta_hat"),
                work=samples * n)
        n, R, samples = EXAMPLE3
        ledger.op(
            "example3",
            lambda: S.example3_experiment(n, R, samples, mc_seed, self.probe),
            lambda rep: checks().check_example3(rep, n, R, self.probe.values, samples),
            work=3 * samples * n)

    def end_to_end(self, ledger) -> dict:
        return {
            "round_s": typical_seconds(ledger.timed()),
            "key_op_s": typical_seconds(ledger.timed({"example3"})),
            "work_per_s": typical_rate(ledger.timed()),
        }


class McStat:
    name = "mc-stat"

    def setup(self, seed: int) -> None:
        from gausdet import model, simulate

        self.modules = program_modules()
        self.seed = seed
        rng = np.random.default_rng([seed, 2])
        self.sizes, self.values, points = [], [], []
        for _ in range(STAT_K):
            size = int(rng.integers(2, 9))
            v = float(rng.uniform(0.5, 1.5))
            arr = np.zeros(STAT_N)
            arr[rng.choice(STAT_N, size, replace=False)] = v
            self.sizes.append(size)
            self.values.append(v)
            points.append(model.IntensityVector(arr))
        self.levels = rng.uniform(5.0, 7.0, STAT_K)
        self.glrt = model.GlrtTest(model.FinitePoints(tuple(points)), self.levels)
        w = rng.uniform(0.5, 1.5, STAT_K)
        self.weights = w / w.sum()
        self.level = float(rng.uniform(1.5, 2.5))
        self.bayes = model.BayesTest(
            model.DiscretePrior(tuple(points), self.weights), self.level)
        # The 2-D unit box with unit noise, then random boxes and ellipsoids
        # of fixed dimensions, so that the work does not depend on the seed.
        self.regions = [("box", np.ones(2), 0.0, np.ones(2), np.ones(2))]
        for kind, d in (("box", 3), ("ellipsoid", 4), ("box", 5), ("ellipsoid", 2)):
            shape = rng.uniform(0.5, 2.0, d)
            c = float(rng.uniform(0.5, 3.0 * d)) if kind == "ellipsoid" else 0.0
            self.regions.append((kind, shape, c, rng.uniform(0.5, 1.5, d),
                                 rng.uniform(0.5, 1.5, d)))
        self.region_objs = [
            simulate.Box(shape) if kind == "box" else simulate.Ellipsoid(shape, c)
            for kind, shape, c, _, _ in self.regions]
        # One warm-up call per entry point, on small inputs.
        simulate.estimate_error_probs(self.glrt, None, 1000, 1)
        simulate.estimate_error_probs(self.bayes, None, 1000, 1)
        simulate.lemma1_check(simulate.Box(np.ones(2)), np.ones(2), np.ones(2), 1000, 1)

    def alpha_bracket(self, kind: str) -> tuple[float, float]:
        if kind == "glrt":
            return checks().glrt_alpha_bracket(self.sizes, self.values, self.levels)
        return checks().bayes_alpha_bracket(self.sizes, self.values, self.weights,
                                            self.level)

    def prepare_checks(self) -> None:
        checks()

    def run_round(self, ledger, r: int) -> None:
        S = self.modules["simulate"]
        mc_seed = round_seed(self.seed, r)
        for kind, test in (("glrt", self.glrt), ("bayes", self.bayes)):
            ledger.op(
                kind,
                lambda: S.estimate_error_probs(test, None, STAT_SAMPLES, mc_seed),
                lambda est: checks().check_alpha_in(
                    est, STAT_SAMPLES, self.alpha_bracket(kind), f"{kind} alpha_hat"),
                work=STAT_SAMPLES * STAT_K)
        for (kind, shape, c, xi_sd, eta_sd), region in zip(self.regions,
                                                           self.region_objs):
            ledger.op(
                "lemma1",
                lambda: S.lemma1_check(region, xi_sd, eta_sd, LEMMA1_SAMPLES, mc_seed),
                lambda res: checks().check_lemma1(res, kind, shape, c, xi_sd, eta_sd,
                                                  LEMMA1_SAMPLES))

    def end_to_end(self, ledger) -> dict:
        return {
            "round_s": typical_seconds(ledger.timed()),
            "key_op_s": typical_seconds(ledger.timed({"lemma1"})),
            "work_per_s": typical_rate(ledger.timed({"glrt", "bayes"})),
        }

