"""Generator algebra, closed-form matrix exponentials, and Dirac evolution."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoflow import (
    PauliVector,
    bloch_evolve,
    dirac2_evolution,
    dirac4_evolution,
    exp_pauli,
    generators,
    kappa_parametrization,
    pauli_line_power,
    pauli_sqrt_identity,
    position_evolution,
    sqrt_symbol_check,
)


def taylor_expm(m):
    """Scaled-and-squared 60-term Taylor exponential (independent oracle)."""
    nrm = float(np.abs(m).sum(axis=1).max())
    s = max(0, int(math.ceil(math.log2(nrm)))) if nrm > 1.0 else 0
    a = m / (2.0**s)
    out = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for n in range(1, 60):
        term = term @ a / n
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def anticommutator(a, b):
    return a @ b + b @ a


def maxabs(m):
    return float(np.max(np.abs(m)))


# ----------------------------------------------------------------------
# generators


def test_pauli_anticommutation_exact():
    sigma = [generators(f"sigma{i}") for i in (1, 2, 3)]
    for i in range(3):
        for j in range(3):
            want = 2.0 * np.eye(2) if i == j else np.zeros((2, 2))
            assert np.array_equal(anticommutator(sigma[i], sigma[j]), want)


def test_dirac_anticommutation_exact():
    alpha = [generators(f"alpha{i}") for i in (1, 2, 3)]
    beta = generators("beta")
    for i in range(3):
        for j in range(3):
            want = 2.0 * np.eye(4) if i == j else np.zeros((4, 4))
            assert np.array_equal(anticommutator(alpha[i], alpha[j]), want)
        assert np.array_equal(anticommutator(alpha[i], beta), np.zeros((4, 4)))
        assert np.array_equal(generators(f"gamma{i + 1}"), beta @ alpha[i])
    assert np.array_equal(beta @ beta, np.eye(4))


def test_kappa_delta_anticommutation_exact():
    kappa = [generators(f"kappa{i}") for i in (1, 2, 3)]
    delta = generators("delta")
    for j in range(3):
        for l in range(3):
            want = 2.0 * np.eye(4) if j == l else np.zeros((4, 4))
            assert np.array_equal(anticommutator(kappa[j], kappa[l]), want)
        assert np.array_equal(anticommutator(kappa[j], delta), np.zeros((4, 4)))
    assert np.array_equal(delta @ delta, -np.eye(4))


def test_generators_return_fresh_copies():
    m = generators("sigma1")
    m[0, 0] = 99.0
    assert generators("sigma1")[0, 0] == 0.0


def test_generators_unknown_kind():
    kinds = "sigma1, sigma2, .*, identity2 or identity4"
    with pytest.raises(ValueError, match=f"^kind must be one of {kinds}$"):
        generators("tau3")


def test_cli_offers_every_generator_kind():
    # the one list of names, which the CLI reads without numpy
    from pseudoflow import _choices, clifford

    assert clifford.GENERATOR_KINDS is _choices.GENERATOR_KINDS
    assert tuple(_GENERATOR_ENTRIES) == _choices.GENERATOR_KINDS  # each pinned below


_I = 1j
# each generator name and its matrix, entry by entry: alpha_k = [[0, sigma_k],
# [sigma_k, 0]], beta = diag(1, 1, -1, -1), gamma_k = beta alpha_k,
# kappa = (-alpha3, alpha1, beta)
_GENERATOR_ENTRIES = {
    "sigma1": [[0, 1], [1, 0]],
    "sigma2": [[0, -_I], [_I, 0]],
    "sigma3": [[1, 0], [0, -1]],
    "alpha1": [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
    "alpha2": [[0, 0, 0, -_I], [0, 0, _I, 0], [0, -_I, 0, 0], [_I, 0, 0, 0]],
    "alpha3": [[0, 0, 1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, -1, 0, 0]],
    "beta": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
    "gamma1": [[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]],
    "gamma2": [[0, 0, 0, -_I], [0, 0, _I, 0], [0, _I, 0, 0], [-_I, 0, 0, 0]],
    "gamma3": [[0, 0, 1, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, 1, 0, 0]],
    "kappa1": [[0, 0, -1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, 1, 0, 0]],
    "kappa2": [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
    "kappa3": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
    "delta": [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]],
    "identity2": [[1, 0], [0, 1]],
    "identity4": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
}


@pytest.mark.parametrize("kind", list(_GENERATOR_ENTRIES))
def test_each_generator_name_binds_its_own_matrix(kind):
    # the names bind to the matrices by position, so each is pinned here
    mat = generators(kind)
    assert mat.dtype == complex
    assert np.array_equal(mat, np.array(_GENERATOR_ENTRIES[kind], dtype=complex))


def test_pauli_vector():
    pv = PauliVector(2.0 - 1.0j, (0.0, 0.0, 1.0))
    want = (2.0 - 1.0j) * np.eye(2) + generators("sigma3")
    assert np.array_equal(pv.as_mat2(), want)
    with pytest.raises(ValueError, match="^v must be 3 finite values$"):
        PauliVector(0.0, (1.0, 2.0))
    with pytest.raises(ValueError, match="finite"):
        PauliVector(0.0, (1.0, math.nan, 0.0))


# ----------------------------------------------------------------------
# sigma . v and its exponential


def test_pauli_sqrt_identity_examples():
    assert np.array_equal(pauli_sqrt_identity((1, 0, 0)), generators("sigma1"))
    n = pauli_sqrt_identity((3, 4, 0))
    assert np.array_equal(n @ n, 25.0 * np.eye(2))


@settings(max_examples=200, deadline=None)
@given(
    v=st.tuples(
        *[
            st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False)
            for _ in range(3)
        ]
    )
)
def test_pauli_sqrt_identity_squares_to_scalar(v):
    n = pauli_sqrt_identity(v)
    s = sum(c * c for c in v)
    assert maxabs(n @ n - s * np.eye(2)) <= 1e-14 * max(1.0, abs(s))


def test_exp_pauli_degenerate_cases():
    assert np.array_equal(exp_pauli(0.0, (0.7, -0.2, 1.1)), np.eye(2))
    got = exp_pauli(0.37, (0, 0, 1))
    want = np.diag([math.exp(0.37), math.exp(-0.37)]).astype(complex)
    np.testing.assert_allclose(got, want, rtol=1e-15)
    # v . v = 0: nilpotent direction, series stops at the linear term
    v = (1.0, 1.0j, 0.0)
    n = pauli_sqrt_identity(v)
    assert maxabs(n @ n) == 0.0
    assert np.array_equal(exp_pauli(0.9, v), np.eye(2) + 0.9 * n)


def test_exp_pauli_matches_taylor_exponential():
    rng = np.random.default_rng(7)
    sigma = [generators(f"sigma{i}") for i in (1, 2, 3)]
    for _ in range(100):
        y = complex(*rng.uniform(-1.5, 1.5, 2))
        v = rng.uniform(-1.5, 1.5, 3) + 1j * rng.uniform(-1.5, 1.5, 3)
        got = exp_pauli(y, v)
        ref = taylor_expm(y * sum(c * s for c, s in zip(v, sigma)))
        assert maxabs(got - ref) <= 1e-10


# ----------------------------------------------------------------------
# 2x2 evolution and Bloch precession


def test_dirac2_zero_momentum_is_phase_pair():
    u = dirac2_evolution(0.0, 0.8)
    want = np.diag([np.exp(-0.8j), np.exp(0.8j)])
    np.testing.assert_allclose(u, want, rtol=0, atol=1e-15)


def test_dirac2_unitary_semigroup():
    rng = np.random.default_rng(11)
    for _ in range(50):
        pi_ = float(rng.uniform(-3, 3))
        t1, t2 = rng.uniform(0, 2, 2)
        u1 = dirac2_evolution(pi_, t1)
        assert maxabs(u1.conj().T @ u1 - np.eye(2)) <= 1e-14
        assert maxabs(u1 @ dirac2_evolution(pi_, t2) - dirac2_evolution(pi_, t1 + t2)) <= 1e-13


def test_bloch_parallel_spin_is_stationary():
    # sigma0 along Omega = 2(pi, 0, 1): zero torque at every stage
    out = bloch_evolve((0.7, 0.0, 1.0), 0.7, 2.0, 1e-2)
    assert np.array_equal(out, np.array([0.7, 0.0, 1.0]))


def test_bloch_matches_axis_angle_rotation():
    s0 = np.array([0.3, -0.5, 0.8])
    pi_ = 0.7
    out = bloch_evolve(s0, pi_, 10.0, 1e-3)
    assert abs(np.linalg.norm(out) - np.linalg.norm(s0)) <= 1e-8
    omega = np.array([2.0 * pi_, 0.0, 2.0])
    axis = omega / np.linalg.norm(omega)
    ang = np.linalg.norm(omega) * 10.0
    rot = (
        s0 * math.cos(ang)
        + np.cross(axis, s0) * math.sin(ang)
        + axis * np.dot(axis, s0) * (1.0 - math.cos(ang))
    )
    assert maxabs(out - rot) <= 1e-8


def test_bloch_validation():
    with pytest.raises(ValueError, match="^sigma0 must be 3 finite values$"):
        bloch_evolve((1.0, 0.0), 0.5, 1.0, 0.1)
    with pytest.raises(ValueError, match="nonzero"):
        bloch_evolve((0.0, 0.0, 0.0), 0.5, 1.0, 0.1)
    with pytest.raises(ValueError, match="dt must be positive"):
        bloch_evolve((1.0, 0.0, 0.0), 0.5, 1.0, 0.0)
    with pytest.raises(ValueError, match="tau must be nonnegative"):
        bloch_evolve((1.0, 0.0, 0.0), 0.5, -1.0, 0.1)
    with pytest.raises(ValueError, match="dt must not exceed tau"):
        bloch_evolve((1.0, 0.0, 0.0), 0.5, 1.0, 2.0)
    out = bloch_evolve((1.0, 0.0, 0.0), 0.5, 0.0, 0.1)
    assert np.array_equal(out, np.array([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("tau, dt", [(1e300, 1e-300), (1.0, 1e-6)])
def test_bloch_refuses_more_steps_than_its_cap(tau, dt):
    # ceil(tau / dt) past float range raised a bare OverflowError, and 10^6
    # steps ran for minutes; both are past the cap of 10^5 steps
    with pytest.raises(ValueError, match="at most 100000 steps") as exc:
        bloch_evolve((1.0, 0.0, 0.0), 0.5, tau, dt)
    assert str(exc.value).endswith(f"at tau = {tau!r}, dt = {dt!r}")


# ----------------------------------------------------------------------
# 4x4 evolution


def test_dirac4_identity_at_zero_tau():
    assert np.array_equal(dirac4_evolution((0.4, -0.2, 1.0), 0.0), np.eye(4))


def test_dirac4_unitary_taylor_and_commutes_with_h():
    rng = np.random.default_rng(13)
    alpha = [generators(f"alpha{i}") for i in (1, 2, 3)]
    beta = generators("beta")
    for _ in range(50):
        p = rng.uniform(-2, 2, 3)
        t = float(rng.uniform(0, 2))
        u = dirac4_evolution(p, t)
        h = sum(c * a for c, a in zip(p, alpha)) + beta
        assert maxabs(u.conj().T @ u - np.eye(4)) <= 1e-14
        assert maxabs(u - taylor_expm(-1j * t * h)) <= 1e-10
        assert maxabs(u @ h - h @ u) <= 1e-13


def test_dirac4_validation():
    with pytest.raises(ValueError, match="^pi must be 3 finite values$"):
        dirac4_evolution((1.0,), 0.5)


@pytest.mark.parametrize(
    "build, args, name",
    [
        (dirac2_evolution, (math.nan, 1.0), "pi"),
        (dirac2_evolution, (0.9, math.inf), "tau"),
        (dirac4_evolution, ((0.1, math.nan, 0.0), 1.0), "pi"),
        (dirac4_evolution, ((0.1, 0.2, 0.3), math.nan), "tau"),
        (position_evolution, (math.inf, 1.0), "pi"),
        (position_evolution, (0.9, math.nan, "beta_diagonal"), "tau"),
        (sqrt_symbol_check, (math.nan,), "k"),
        (kappa_parametrization, ((1.0, math.inf, 0.0), 1.0), "w"),
        (kappa_parametrization, ((1.0, 0.0, 0.0), math.nan), "r"),
        (exp_pauli, (complex(0.3, math.nan), (0, 0, 1)), "y"),
        (pauli_line_power, (math.inf, 0.5, 0.5), "a"),
        (pauli_line_power, (1.25, 0.75, math.nan), "p"),
        (pauli_line_power, (1.25, 0.75, math.inf), "p"),
        (bloch_evolve, ((1.0, math.nan, 0.0), 0.5, 1.0, 0.1), "sigma0"),
        (bloch_evolve, ((1.0, 0.0, 0.0), math.nan, 1.0, 0.1), "pi"),
        (bloch_evolve, ((1.0, 0.0, 0.0), 0.5, math.nan, 0.1), "tau"),
        (bloch_evolve, ((1.0, 0.0, 0.0), 0.5, math.inf, 0.1), "tau"),
        (bloch_evolve, ((1.0, 0.0, 0.0), 0.5, 1.0, math.nan), "dt"),
    ],
)
def test_builders_reject_nonfinite_input(build, args, name):
    # a NaN or inf parameter is refused by name, never turned into a NaN
    # matrix; bloch_evolve's tau and dt name their sign as well, a momentum
    # pi its square, pauli_line_power's a and b that they are real, and a
    # three-vector says it wants three finite values
    domain = "(nonnegative and |positive and |real and )?finite|finite with a finite square|3 finite values"
    with pytest.raises(ValueError, match=f"^{name} must be ({domain})$"):
        build(*args)


_KINDS = ", ".join(["sigma1", "sigma2", "sigma3", "alpha1", "alpha2", "alpha3", "beta"]
                   + ["gamma1", "gamma2", "gamma3", "kappa1", "kappa2", "kappa3", "delta"])


@pytest.mark.parametrize(
    "build, args, message",
    [
        (generators, ("tau3",), f"kind must be one of {_KINDS}, identity2 or identity4"),
        # a list is no name: refused, not looked up as an unhashable key
        (generators, (["beta"],), f"kind must be one of {_KINDS}, identity2 or identity4"),
        (
            position_evolution,
            (0.9, 0.5, "weyl"),
            "parametrization must be one of dirac or beta_diagonal",
        ),
        (
            kappa_parametrization,
            ((1.0, 0.0, 0.0), 1.0, "delta"),
            "variant must be one of i_delta or plain_delta",
        ),
        (kappa_parametrization, ((1.0, 0.0), 1.0), "w must be 3 finite values"),
        (kappa_parametrization, ((1.0, 0.0, 0.0, 0.0), 1.0), "w must be 3 finite values"),
        (PauliVector, (0.0, (1.0, 2.0)), "v must be 3 finite values"),
        (PauliVector, (0.0, (1.0, math.nan, 0.0)), "v must be 3 finite values"),
        (pauli_sqrt_identity, ((1.0, 2.0),), "v must be 3 finite values"),
        (pauli_sqrt_identity, ([[1.0, 2.0, 3.0]],), "v must be 3 finite values"),
        (pauli_sqrt_identity, ((0.0, complex(0.0, math.inf), 1.0),), "v must be 3 finite values"),
        (exp_pauli, (0.3, (1.0, 0.0)), "v must be 3 finite values"),
        (exp_pauli, (0.3, ("a", "b", "c")), "v must be 3 finite values"),
        (bloch_evolve, ((1.0, 0.0), 0.5, 1.0, 0.1), "sigma0 must be 3 finite values"),
        # complex entries for a real vector are refused, not a TypeError
        (bloch_evolve, ((1j, 0.0, 0.0), 0.5, 1.0, 0.1), "sigma0 must be 3 finite values"),
        (dirac4_evolution, ((1.0,), 0.5), "pi must be 3 finite values"),
        (dirac4_evolution, ((0.1, 0.2, math.inf), 0.5), "pi must be 3 finite values"),
        # a complex array for a real vector is refused, not cast to its real part
        (dirac4_evolution, (np.array([1 + 1j, 0, 0]), 0.5), "pi must be 3 finite values"),
        (kappa_parametrization, (np.array([1.0 + 0j, 0, 0]), 1.0), "w must be 3 finite values"),
        (bloch_evolve, (np.array([1j, 0, 0]), 0.5, 1.0, 0.1), "sigma0 must be 3 finite values"),
    ],
)
def test_builders_refuse_unknown_names_and_bad_vectors(build, args, message):
    with warnings.catch_warnings(), pytest.raises(ValueError) as exc:
        warnings.simplefilter("error")
        build(*args)
    assert str(exc.value) == message


_RANGE = "is past float range at"


@pytest.mark.parametrize(
    "build, args, message",
    [
        # each input prints as the number computed with: an int component as a float
        (exp_pauli, (800.0, (0, 0, 1)), f"e^{{y sigma . v}} {_RANGE} y = 800.0, v = (0.0, 0.0, 1.0)"),
        (exp_pauli, (1e300, (0, 0, 1)), f"e^{{y sigma . v}} {_RANGE} y = 1e+300, v = (0.0, 0.0, 1.0)"),
        # v . v overflows
        (exp_pauli, (1.0, (1e200, 0, 0)), f"e^{{y sigma . v}} {_RANGE} y = 1.0, v = (1e+200, 0.0, 0.0)"),
        (pauli_sqrt_identity, ((1e308, 1e308j, 0),), f"sigma . v {_RANGE} v = (1e+308, 1e+308j, 0.0)"),
        (
            lambda: PauliVector(1e308, (0, 0, 1e308)).as_mat2(),
            (),
            f"c0 + sigma . v {_RANGE} c0 = (1e+308+0j), v = (0j, 0j, (1e+308+0j))",
        ),
        (pauli_line_power, (1e308, 0.0, 2.0), f"R^p {_RANGE} a = 1e+308, b = 0.0, p = 2.0"),
        (pauli_line_power, (2.0, 1.0, 1e6), f"R^p {_RANGE} a = 2.0, b = 1.0, p = 1000000.0"),
        # (a - b)^p and (a + b)^p are finite, their sum on the diagonal is not
        (pauli_line_power, (1.7e308, 0.0, 1.0), f"R^p {_RANGE} a = 1.7e+308, b = 0.0, p = 1.0"),
        # a + |b| overflows, where a negative p would bring the power back to 0
        (
            pauli_line_power,
            (1.7e308, 1e308, -0.5),
            f"a + |b| {_RANGE} a = 1.7e+308, b = 1e+308, p = -0.5",
        ),
        (dirac2_evolution, (1e200, 1.0), "pi must be finite with a finite square"),
        (dirac2_evolution, (10.0, 1e308), f"the phase E tau {_RANGE} pi = 10.0, tau = 1e+308"),
        (dirac4_evolution, ((1e200, 0.0, 0.0), 1.0), f"pi . pi {_RANGE} pi = (1e+200, 0.0, 0.0)"),
        (
            dirac4_evolution,
            ((1e154, 1e154, 1e154), 1.0),
            f"pi . pi {_RANGE} pi = (1e+154, 1e+154, 1e+154)",
        ),
        (
            dirac4_evolution,
            ((10.0, 0.0, 0.0), 1e308),
            f"the phase E tau {_RANGE} pi = (10.0, 0.0, 0.0), tau = 1e+308",
        ),
        (position_evolution, (1e200, 1.0), "pi must be finite with a finite square"),
        (position_evolution, (1e154, 1e300), f"the phase 2 E tau {_RANGE} pi = 1e+154, tau = 1e+300"),
        (
            position_evolution,
            (1e154, 1e300, "beta_diagonal"),
            f"the drift tau pi / E {_RANGE} pi = 1e+154, tau = 1e+300",
        ),
        (
            kappa_parametrization,
            ((-1e308, 0.0, 0.0), 1e308, "plain_delta"),
            f"kappa . w + delta r {_RANGE} w = (-1e+308, 0.0, 0.0), r = 1e+308",
        ),
        (bloch_evolve, ((1, 0, 0), 1e200, 1.0, 0.5), "pi must be finite with a finite square"),
        # dt |Omega| = 1e100: the Runge-Kutta steps leave float range
        (
            bloch_evolve,
            ((1, 0, 0), 1e100, 1.0, 0.5),
            f"the Runge-Kutta solution {_RANGE} sigma0 = (1.0, 0.0, 0.0), pi = 1e+100, tau = 1.0, "
            "dt = 0.5",
        ),
    ],
)
def test_builders_refuse_results_past_float_range(build, args, message):
    # finite input whose matrix leaves float range: a refusal that names the
    # inputs, never a NaN matrix, an OverflowError or a bare "math domain error"
    with warnings.catch_warnings(), pytest.raises(ValueError) as exc:
        warnings.simplefilter("error")
        build(*args)
    assert str(exc.value) == message


# ----------------------------------------------------------------------
# Heisenberg position


def test_position_zero_tau_is_zero():
    assert maxabs(position_evolution(0.9, 0.0)) == 0.0
    assert maxabs(position_evolution(0.9, 0.0, "beta_diagonal")) == 0.0


def test_position_unknown_parametrization():
    with pytest.raises(ValueError, match="^parametrization must be one of dirac or beta_diagonal$"):
        position_evolution(0.9, 0.5, "weyl")


def test_position_velocity_matches_heisenberg_picture():
    pi_, tau, step = 0.9, 0.7, 1e-5
    fd = (position_evolution(pi_, tau + step) - position_evolution(pi_, tau - step)) / (
        2.0 * step
    )
    u = dirac4_evolution((pi_, 0.0, 0.0), tau)
    vel = u.conj().T @ generators("alpha1") @ u
    assert maxabs(fd - vel) <= 1e-6


def test_position_beta_diagonal_two_branch_drift():
    pi_, tau = 0.8, 1.1
    speed = tau * pi_ / math.sqrt(1.0 + pi_ * pi_)
    got = position_evolution(pi_, tau, "beta_diagonal")
    assert np.array_equal(got, speed * generators("beta"))
    eigs = np.sort(np.linalg.eigvals(got).real)
    np.testing.assert_allclose(eigs, [-speed, -speed, speed, speed], rtol=0, atol=1e-14)


def test_position_projected_onto_one_branch_is_pure_drift():
    pi_, tau = 0.9, 1.3
    e = math.sqrt(1.0 + pi_ * pi_)
    h = pi_ * generators("alpha1") + generators("beta")
    disp = position_evolution(pi_, tau)
    for sign in (1.0, -1.0):
        proj = 0.5 * (np.eye(4) + sign * h / e)
        drift = sign * tau * pi_ / e
        assert maxabs(proj @ (disp - drift * np.eye(4)) @ proj) <= 1e-13


def test_position_oscillation_averages_out_over_a_period():
    pi_ = 0.9
    e = math.sqrt(1.0 + pi_ * pi_)
    period = 2.0 * math.pi / (2.0 * e)
    h_inv = (pi_ * generators("alpha1") + generators("beta")) / (1.0 + pi_ * pi_)
    taus = period * np.arange(64) / 64.0
    avg = sum(position_evolution(pi_, float(t)) - float(t) * pi_ * h_inv for t in taus) / 64.0
    constant = 0.5j * h_inv @ (generators("alpha1") - pi_ * h_inv)
    assert maxabs(avg - constant) <= 1e-8


# ----------------------------------------------------------------------
# symbol check, kappa variants, line powers


def test_sqrt_symbol_squares_to_one_plus_k_squared():
    assert np.array_equal(sqrt_symbol_check(0.0), generators("beta"))
    for k, want in ((1.0, 2.0), (-2.5, 7.25)):
        m = sqrt_symbol_check(k)
        assert maxabs(m @ m - want * np.eye(4)) <= 1e-14


def test_kappa_parametrization_squares():
    nilpotent = kappa_parametrization((1.0, 0.0, 0.0), 1.0, "plain_delta")
    assert maxabs(nilpotent @ nilpotent) == 0.0
    # delta is real antisymmetric, so the plain variant is the
    # non-Hermitian member of the family
    assert maxabs(nilpotent - nilpotent.conj().T) > 0.5
    n = kappa_parametrization((1.0, 0.0, 0.0), 1.0)
    assert np.array_equal(n @ n, 2.0 * np.eye(4))
    root_minus_one = kappa_parametrization((0.0, 0.0, 0.0), 1.0, "plain_delta")
    assert np.array_equal(root_minus_one @ root_minus_one, -np.eye(4))


def test_kappa_validation():
    with pytest.raises(ValueError, match="^variant must be one of i_delta or plain_delta$"):
        kappa_parametrization((1.0, 0.0, 0.0), 1.0, "delta")
    with pytest.raises(ValueError, match="^w must be 3 finite values$"):
        kappa_parametrization((1.0, 0.0), 1.0)


def test_line_power_examples():
    got = pauli_line_power(2.0, 0.0, 0.5)
    assert np.array_equal(got, math.sqrt(2.0) * np.eye(2))
    root = pauli_line_power(1.25, 0.75, 0.5)
    r = 1.25 * np.eye(2) + 0.75 * generators("sigma1")
    assert maxabs(root @ root - r) <= 1e-14
    inv = pauli_line_power(1.25, 0.75, -1.0)
    assert maxabs(inv - np.linalg.inv(r)) <= 1e-14


def test_line_power_addition_law():
    powers = (-1.0, -0.5, 0.5, 1.0)
    for p in powers:
        for q in powers:
            lhs = pauli_line_power(1.25, 0.75, p) @ pauli_line_power(1.25, 0.75, q)
            assert maxabs(lhs - pauli_line_power(1.25, 0.75, p + q)) <= 1e-13


def test_line_power_requires_positive_definite():
    with pytest.raises(ValueError, match="positive definite"):
        pauli_line_power(0.75, 0.75, 0.5)
    with pytest.raises(ValueError, match="positive definite"):
        pauli_line_power(1.0, -1.5, 0.5)
