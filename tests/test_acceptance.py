"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run ``pytest tests/test_acceptance.py -v -s`` to see the summary lines as
they are produced.  Every line is also backed by an assert, so the suite
fails loudly without ``-s``.  The three training-based checks (7, 8, 10)
share a module-scoped fixture that performs the full twin training runs
plus a fixed-filter baseline once; everything else runs in seconds.
"""

import dataclasses
import time
from pathlib import Path

import numpy as np
import pytest

from test_backprop import check_network_gradients, make_instance

from ucdl.csc import (
    AdmmConfig,
    CodeState,
    FilterBank,
    admm_step_traced,
    dictionary_synthesis,
    filter_spectra,
    kernel_spectra,
    s_update_traced,
    soft_threshold,
)
from ucdl.data import PhantomSpec, make_phantom
from ucdl.dc import NormalOperator, cg_solve
from ucdl.metrics import psnr, roi_crop
from ucdl.network import (
    NetworkConfig,
    NetworkParams,
    forward_reconstruct,
    init_network,
)
from ucdl.operators import (
    adjoint_apply,
    forward_apply,
    make_coil_maps,
    make_mask,
    simulate_measurement,
)
from ucdl.tensors import dft_forward, dft_inverse, norm2_sq
from ucdl.training import train


def report(num, desc, ok):
    """Print the criterion verdict, then enforce it."""
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}")
    assert ok, f"criterion {num}: {desc}"


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def relative_defect(lhs, rhs):
    scale = max(abs(lhs), abs(rhs), 1e-30)
    return abs(lhs - rhs) / scale


# ---------------------------------------------------------------------------
# Criterion 1: adjoint probes on the synthesis, diagonal, and measurement
# operators
# ---------------------------------------------------------------------------

class TestCriterion1Adjoints:
    N_PROBES = 100
    TOL = 1e-10

    def test_adjoint_suite(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(17)
        worst = 0.0

        # dictionary synthesis D and its spectral-diagonal form
        for probe in range(self.N_PROBES):
            if probe % 2 == 0:
                spatial = (int(rng.integers(6, 17)), int(rng.integers(6, 17)))
                kshape = (3, 3)
            else:
                spatial = (
                    int(rng.integers(6, 17)),
                    int(rng.integers(6, 17)),
                    int(rng.integers(3, 5)),
                )
                kshape = (3, 3, 3)
            n_filters = int(rng.integers(1, 5))
            bank = FilterBank(rng.standard_normal((n_filters,) + kshape))
            bank_spectra = kernel_spectra(bank, spatial)
            spectra = bank_spectra.d
            ndim = len(spatial)

            s = random_complex(rng, (n_filters,) + spatial)
            x = random_complex(rng, spatial)
            lhs = np.vdot(dictionary_synthesis(bank, s, spectra=bank_spectra), x)
            adj = dft_inverse(np.conj(spectra) * dft_forward(x)[np.newaxis], ndim=ndim)
            worst = max(worst, relative_defect(lhs, np.vdot(s, adj)))

            # frequency-domain operator: pointwise multiply, sum over filters
            s_hat = random_complex(rng, (n_filters,) + spatial)
            x_hat = random_complex(rng, spatial)
            lhs = np.vdot((spectra * s_hat).sum(axis=0), x_hat)
            rhs = np.vdot(s_hat, np.conj(spectra) * x_hat[np.newaxis])
            worst = max(worst, relative_defect(lhs, rhs))

        # multi-coil masked Fourier measurement A
        for probe in range(self.N_PROBES):
            shape = (
                int(rng.integers(6, 17)),
                int(rng.integers(6, 17)),
                int(rng.integers(1, 5)),
            )
            coils = make_coil_maps(int(rng.integers(1, 4)), shape[:2])
            family = "columns" if probe % 2 == 0 else "points"
            mask = make_mask(shape, accel=float(rng.uniform(1.2, 4.0)),
                             family=family, seed=int(rng.integers(0, 1000)))
            x = random_complex(rng, shape)
            y = random_complex(rng, (coils.count, mask.num_sampled))
            lhs = np.vdot(forward_apply(x, coils, mask), y)
            rhs = np.vdot(x, adjoint_apply(y, coils, mask))
            worst = max(worst, relative_defect(lhs, rhs))

        elapsed = time.perf_counter() - t0
        report(
            1,
            f"adjoint defect {worst:.2e} <= 1e-10 over {self.N_PROBES} probes "
            f"per operator ({elapsed:.1f}s)",
            worst <= self.TOL and elapsed < 10.0,
        )


# ---------------------------------------------------------------------------
# Criterion 2: per-frequency rank-one solve against a dense oracle
# ---------------------------------------------------------------------------

class TestCriterion2ShermanMorrison:
    TOL = 1e-10

    def test_matches_dense_solves(self):
        t0 = time.perf_counter()
        spatial = (8, 8)
        worst = 0.0
        for n_filters in (1, 2, 4, 8):
            for seed in range(50):
                rng = np.random.default_rng(1000 * n_filters + seed)
                bank = FilterBank(rng.standard_normal((n_filters, 3, 3)))
                gamma = float(rng.uniform(0.1, 3.0))
                x = random_complex(rng, spatial)
                u = random_complex(rng, (n_filters,) + spatial)
                z = random_complex(rng, (n_filters,) + spatial)

                s, _ = s_update_traced(x, u, z, bank, gamma)

                # dense oracle: one K x K system per frequency
                spectra = filter_spectra(bank, spatial)
                dvec = spectra.reshape(n_filters, -1).T        # (F, K)
                eye = np.eye(n_filters)
                systems = gamma * eye[np.newaxis] + (
                    np.conj(dvec)[:, :, np.newaxis] * dvec[:, np.newaxis, :]
                )
                x_hat = dft_forward(x).reshape(-1)
                w_hat = dft_forward(u + z, ndim=2).reshape(n_filters, -1).T
                rhs = np.conj(dvec) * x_hat[:, np.newaxis] + gamma * w_hat
                dense = np.linalg.solve(systems, rhs[..., np.newaxis])[..., 0]

                s_hat = dft_forward(s, ndim=2).reshape(n_filters, -1).T
                rel = np.linalg.norm(s_hat - dense) / np.linalg.norm(dense)
                worst = max(worst, float(rel))
        elapsed = time.perf_counter() - t0
        report(
            2,
            f"rank-one frequency solves match dense oracles, worst relative "
            f"error {worst:.2e} <= 1e-10 ({elapsed:.1f}s)",
            worst <= self.TOL and elapsed < 10.0,
        )


# ---------------------------------------------------------------------------
# Criterion 3: prox step against a scalar grid scan
# ---------------------------------------------------------------------------

class TestCriterion3Prox:
    N_TUPLES = 10_000
    PITCH = 1e-4

    def test_matches_grid_minimizer(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(23)
        s = rng.uniform(-1.0, 1.0, self.N_TUPLES)
        z = rng.uniform(-1.0, 1.0, self.N_TUPLES)
        alpha = rng.uniform(0.0, 1.5, self.N_TUPLES)
        beta = rng.uniform(0.1, 3.0, self.N_TUPLES)

        # scan objective 0.5 b (g - w)^2 + a |g|; dropping the g-independent
        # 0.5 b w^2 term leaves the argmin unchanged and makes each row a
        # fixed combination of three grid vectors, i.e. one matrix product
        grid = np.arange(-2.1, 2.1 + self.PITCH / 2, self.PITCH)
        basis = np.vstack([grid**2, grid, np.abs(grid)])
        coeff = np.column_stack([0.5 * beta, -beta * (s - z), alpha])
        best = np.empty(self.N_TUPLES)
        chunk = 500
        buf = np.empty((chunk, grid.size))
        for lo in range(0, self.N_TUPLES, chunk):
            hi = lo + chunk
            np.dot(coeff[lo:hi], basis, out=buf)
            best[lo:hi] = grid[np.argmin(buf, axis=1)]

        prox = soft_threshold(s - z, alpha / beta)
        worst = float(np.abs(prox - best).max())
        elapsed = time.perf_counter() - t0
        report(
            3,
            f"prox equals grid-scan minimizer within pitch, worst gap "
            f"{worst:.2e} <= 1e-4 over {self.N_TUPLES} tuples ({elapsed:.1f}s)",
            worst <= self.PITCH and elapsed < 5.0,
        )


# ---------------------------------------------------------------------------
# Criterion 4: CG against dense solves and the identity closed form
# ---------------------------------------------------------------------------

class TestCriterion4Cg:
    def test_dense_and_identity(self):
        shape = (8, 8, 1)
        image = (1, 8, 8)  # frames-first, as the operator takes it
        n = 64
        worst = 0.0
        for seed in range(4):
            rng = np.random.default_rng(40 + seed)
            coils = make_coil_maps(2 + seed % 2, shape[:2])
            mask = make_mask(shape, accel=2.0,
                             family="columns" if seed % 2 == 0 else "points",
                             seed=seed)
            lam = float(rng.uniform(0.2, 1.5))
            operator = NormalOperator(coils, mask, lam)

            dense = np.zeros((n, n), dtype=np.complex128)
            basis = np.zeros(image, dtype=np.complex128)
            for i in range(n):
                basis.flat[i] = 1.0
                dense[:, i] = operator(basis).ravel()
                basis.flat[i] = 0.0
            rhs = random_complex(rng, image)
            exact = np.linalg.solve(dense, rhs.ravel()).reshape(image)

            result = cg_solve(rhs, operator, np.zeros(image, np.complex128), n)
            rel = np.linalg.norm(result.image - exact) / np.linalg.norm(exact)
            worst = max(worst, float(rel))

        # full sampling and sum-of-squares-normalized coils make A^H A the
        # identity, so the solution has the closed form b / (1 + lam)
        rng = np.random.default_rng(77)
        coils = make_coil_maps(3, shape[:2])
        mask = make_mask(shape, accel=1.0, seed=0)
        assert mask.mask.all()
        lam = 0.7
        rhs = random_complex(rng, image)
        result = cg_solve(rhs, NormalOperator(coils, mask, lam),
                          np.zeros(image, np.complex128), 4)
        closed = rhs / (1.0 + lam)
        identity_err = float(
            np.abs(result.image - closed).max() / np.abs(closed).max()
        )

        report(
            4,
            f"CG matches dense solves (worst {worst:.2e} <= 1e-8) and the "
            f"identity closed form (error {identity_err:.2e} <= 1e-12)",
            worst <= 1e-8 and identity_err <= 1e-12,
        )


# ---------------------------------------------------------------------------
# Criterion 5: reverse-mode gradients against finite differences
# ---------------------------------------------------------------------------

class TestCriterion5Gradients:
    def test_network_gradcheck_sweep(self):
        t0 = time.perf_counter()
        for n_outer in (1, 2):
            for n_cg in (1, 2, 3):
                sample, config, params, target = make_instance(
                    "2d", (6, 6, 2), seed=200,
                    n_outer=n_outer, n_admm=1, n_cg=n_cg,
                )
                check_network_gradients(sample, config, params, target,
                                        rel_tol=1e-5)
        elapsed = time.perf_counter() - t0
        report(
            5,
            f"reverse-mode gradients match finite differences to 1e-5 over "
            f"6 unroll configurations ({elapsed:.1f}s)",
            elapsed < 60.0,
        )


# ---------------------------------------------------------------------------
# Criterion 6: ADMM consensus and objective decrease
# ---------------------------------------------------------------------------

class TestCriterion6Admm:
    def test_convergence_on_fixed_instance(self):
        rng = np.random.default_rng(7)
        kernels = rng.standard_normal((2, 3, 3))
        kernels /= np.sqrt((kernels**2).sum(axis=(1, 2), keepdims=True))
        bank = FilterBank(kernels)
        x = random_complex(rng, (8, 8))
        config = AdmmConfig(lam=1.0, alpha=0.5, beta=1.0)
        spectra = kernel_spectra(bank, (8, 8))

        def consensus_objective(state):
            synth = dictionary_synthesis(bank, state.u, spectra=spectra)
            fidelity = 0.5 * config.lam * norm2_sq(x - synth)
            l1 = np.abs(state.u.real).sum() + np.abs(state.u.imag).sum()
            return float(fidelity + config.alpha * l1)

        state = CodeState.zeros(2, (8, 8))
        gaps, objectives = [], []
        for _ in range(200):
            state, _ = admm_step_traced(x, state, bank, config, spectra=spectra)
            gaps.append(float(np.abs(state.u - state.s).max()))
            objectives.append(consensus_objective(state))

        report(
            6,
            f"ADMM consensus gap {gaps[-1]:.2e} <= 1e-5 within 200 iterations "
            f"and objective fell {objectives[0]:.2f} -> {objectives[-1]:.2f}",
            min(gaps) <= 1e-5 and objectives[-1] <= objectives[0],
        )


# ---------------------------------------------------------------------------
# Criteria 7, 8, 10: shared training fixture
# ---------------------------------------------------------------------------

IMAGE_SHAPE = (32, 32, 8)
N_TRAIN, N_VAL = 24, 8
N_COILS = 3
ACCEL = 4.0
CENTER_FRACTION = 0.05
NOISE_SIGMA = 0.02
TRAIN_SEED, VAL_SEED = 100, 200
PHANTOM_KWARGS = {"intensity_range": (0.8, 2.0), "motion_amplitude": 0.04}
TRAIN_CONFIG = NetworkConfig(mode="3d", n_filters=8, kernel_size=5,
                             n_outer=4, n_admm=1, n_cg=12)
EPOCHS = 16
RUN_SEED = 0
LEARNING_RATE = 5e-4


def build_dataset(rng_seed, n_samples, coils):
    spec = PhantomSpec(image_shape=IMAGE_SHAPE, rng_seed=rng_seed,
                       **PHANTOM_KWARGS)
    seed_rng = np.random.default_rng(spec.rng_seed)
    pairs = []
    for _ in range(n_samples):
        ps, ms, ns = (int(v) for v in seed_rng.integers(0, 2**31, size=3))
        target = make_phantom(dataclasses.replace(spec, rng_seed=ps))
        mask = make_mask(IMAGE_SHAPE, accel=ACCEL, seed=ms,
                         center_fraction=CENTER_FRACTION)
        pairs.append(
            (simulate_measurement(target, coils, mask, sigma=NOISE_SIGMA,
                                  rng_seed=ns), target)
        )
    return pairs


@pytest.fixture(scope="module")
def training_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("acceptance_training")
    coils = make_coil_maps(N_COILS, IMAGE_SHAPE[:2])
    train_set = build_dataset(TRAIN_SEED, N_TRAIN, coils)
    val_set = build_dataset(VAL_SEED, N_VAL, coils)

    norm_deviations = []

    def record_norms(params):
        norm_deviations.append(
            float(np.abs(params.filters.norms() - 1.0).max())
        )

    t0 = time.perf_counter()
    params_a, history_a = train(
        train_set, val_set, TRAIN_CONFIG, epochs=EPOCHS, seed=RUN_SEED,
        lr=LEARNING_RATE, run_dir=base / "run_a", step_callback=record_norms,
    )
    params_b, _ = train(
        train_set, val_set, TRAIN_CONFIG, epochs=EPOCHS, seed=RUN_SEED,
        lr=LEARNING_RATE, run_dir=base / "run_b",
    )
    fixed_config = dataclasses.replace(TRAIN_CONFIG, train_filters=False)
    _, history_fixed = train(
        train_set, val_set, fixed_config, epochs=EPOCHS, seed=RUN_SEED,
        lr=LEARNING_RATE,
    )
    elapsed = time.perf_counter() - t0

    return {
        "base": base,
        "val_set": val_set,
        "params": params_a,
        "history": history_a,
        "history_fixed": history_fixed,
        "norm_deviations": norm_deviations,
        "elapsed": elapsed,
        "params_b": params_b,
    }


class TestCriterion7Training:
    def test_validation_improvement_and_psnr_gain(self, training_runs):
        history = training_runs["history"]
        first, last = history[0].val_loss, history[-1].val_loss
        ratio_ok = last < 0.9 * first

        fixed_last = training_runs["history_fixed"][-1].val_loss
        baseline_ok = last < fixed_last

        trained_psnr, zf_psnr = [], []
        for sample, target in training_runs["val_set"]:
            image = forward_reconstruct(
                sample, training_runs["params"], TRAIN_CONFIG
            ).image
            reference = roi_crop(target)
            trained_psnr.append(psnr(roi_crop(image), reference))
            zero_filled = adjoint_apply(sample.y, sample.coils, sample.mask)
            zf_psnr.append(psnr(roi_crop(zero_filled), reference))
        gain = float(np.mean(trained_psnr) - np.mean(zf_psnr))
        elapsed = training_runs["elapsed"]

        report(
            7,
            f"val loss {first:.4f} -> {last:.4f} (< 0.9x), trained "
            f"{last:.4f} < fixed-filter {fixed_last:.4f}, PSNR gain "
            f"{gain:.2f} dB >= 3 over zero-filled ({elapsed:.0f}s)",
            ratio_ok and baseline_ok and gain >= 3.0 and elapsed <= 1800.0,
        )


class TestCriterion8FilterNorms:
    def test_unit_norm_after_every_step(self, training_runs):
        deviations = training_runs["norm_deviations"]
        worst = max(deviations)
        report(
            8,
            f"max filter-norm deviation {worst:.2e} <= 1e-12 across "
            f"{len(deviations)} optimizer steps",
            worst <= 1e-12 and len(deviations) == EPOCHS * N_TRAIN,
        )


# ---------------------------------------------------------------------------
# Criterion 9: 2d path equals 3d path on single-frame data
# ---------------------------------------------------------------------------

class TestCriterion9ModeConsistency:
    def test_single_frame_equivalence(self):
        rng = np.random.default_rng(31)
        shape = (8, 8, 1)
        coils = make_coil_maps(2, shape[:2])
        mask = make_mask(shape, accel=2.0, seed=5)
        target = random_complex(rng, shape)
        sample = simulate_measurement(target, coils, mask, sigma=0.01,
                                      rng_seed=6)

        config_2d = NetworkConfig(mode="2d", n_filters=2, kernel_size=3,
                                  n_outer=2, n_admm=2, n_cg=4)
        params_2d = dataclasses.replace(
            init_network(config_2d, rng_seed=9),
            log_lam=float(np.log(0.8)),
            log_alpha=float(np.log(0.05)),
            log_beta=float(np.log(1.3)),
        )
        config_3d = dataclasses.replace(config_2d, mode="3d")
        params_3d = dataclasses.replace(
            params_2d,
            filters=FilterBank(params_2d.filters.kernels[..., np.newaxis]),
        )

        result_2d = forward_reconstruct(sample, params_2d, config_2d)
        result_3d = forward_reconstruct(sample, params_3d, config_3d)

        image_rel = np.linalg.norm(result_2d.image - result_3d.image)
        image_rel /= np.linalg.norm(result_3d.image)
        code_rel = np.linalg.norm(result_2d.code_state.s - result_3d.code_state.s)
        code_rel /= max(np.linalg.norm(result_3d.code_state.s), 1e-30)

        report(
            9,
            f"single-frame 2d and 3d paths agree: image {image_rel:.2e}, "
            f"codes {code_rel:.2e} (<= 1e-10)",
            image_rel <= 1e-10 and code_rel <= 1e-10,
        )


# ---------------------------------------------------------------------------
# Criterion 10: bitwise deterministic training logs
# ---------------------------------------------------------------------------

class TestCriterion10Determinism:
    def test_loss_logs_identical(self, training_runs):
        base = training_runs["base"]
        log_a = Path(base / "run_a" / "losses.csv").read_bytes()
        log_b = Path(base / "run_b" / "losses.csv").read_bytes()
        report(
            10,
            f"two identically seeded runs wrote byte-identical losses.csv "
            f"({len(log_a)} bytes)",
            log_a == log_b and len(log_a) > 0,
        )
