import hashlib

import numpy as np
import pytest

from dropcoil.errors import DegenerateMetric, DomainError, EmbeddingViolation
from dropcoil.geometry import (build_coil, build_cylinder, build_sphere,
                               build_straight, curvature_expansion_check,
                               curvature_profile_coefficient, evaluate_forms,
                               export_mesh, straight_normal)
from dropcoil.geometry import _bend, _forms
from dropcoil.jacobi import JacobiSolver
from dropcoil.profile import solve_profile


def grid(n1=16, n2=17, y3span=(-0.9, 0.9)):
    th = np.linspace(0, 2 * np.pi, n1, endpoint=False)
    y3 = np.linspace(*y3span, n2)
    return np.meshgrid(th, y3, indexing="ij")


def test_unit_sphere_h_equals_2():
    TH, Y3 = grid()
    F = evaluate_forms(build_sphere(1.0), TH, Y3)
    assert np.max(np.abs(F.H - 2.0)) < 1e-12
    # metric positive definite
    assert np.all(np.linalg.det(F.g) > 0)
    assert np.all(F.g[..., 0, 0] > 0)


def test_cylinder_h_equals_2():
    TH, Y3 = grid()
    F = evaluate_forms(build_cylinder(0.5), TH, Y3)
    assert np.max(np.abs(F.H - 2.0)) < 1e-12


@pytest.mark.parametrize("a", [0.1, 0.3, 0.45])
def test_straight_delaunay_cmc(a):
    prof = solve_profile(a)
    th = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    y3 = np.linspace(-prof.T / 2, prof.T / 2, 64)
    TH, Y3 = np.meshgrid(th, y3, indexing="ij")
    H = evaluate_forms(build_straight(prof), TH, Y3).H
    assert np.max(np.abs(H - 2.0)) < 1e-6


def test_straight_normal_closed_form(prof03):
    TH, Y3 = grid(12, 13, (-1.2, 1.2))
    F = evaluate_forms(build_straight(prof03), TH, Y3)
    assert np.max(np.abs(F.normal - straight_normal(prof03, TH, Y3))) < 1e-12


def test_axisymmetry_of_straight_h(prof03):
    y3 = np.linspace(-1.0, 1.0, 9)
    H1 = evaluate_forms(build_straight(prof03), np.full_like(y3, 0.3), y3).H
    H2 = evaluate_forms(build_straight(prof03), np.full_like(y3, 2.9), y3).H
    assert np.max(np.abs(H1 - H2)) < 1e-12


def test_coil_needs_three_blocks(prof03):
    with pytest.raises(DomainError):
        build_coil(prof03, 2)


def test_coil_block_constraint(prof03):
    patch = build_coil(prof03, 4)
    assert 2 * np.pi * patch.R == pytest.approx(4 * prof03.T)
    # n = 4, T = pi gives R = 2 on the cylinder profile
    cyl = solve_profile(0.5)
    assert build_coil(cyl, 4).R == pytest.approx(2.0)


def test_coil_symmetries(prof03):
    patch = build_coil(prof03, 12)
    th = np.array([0.3, 1.2, 2.2, 4.0])
    y3 = np.array([0.2, -0.4, 1.1, 0.0])
    P0 = patch.position(th, y3)
    ang = 2 * np.pi / 12
    rot = np.array([[1, 0, 0],
                    [0, np.cos(ang), -np.sin(ang)],
                    [0, np.sin(ang), np.cos(ang)]])
    assert np.max(np.abs(patch.position(th, y3 + prof03.T) - P0 @ rot.T)) < 1e-12
    assert np.max(np.abs(patch.position(np.pi - th, y3) - P0 @ np.diag([-1.0, 1, 1]))) < 1e-12
    assert np.max(np.abs(patch.position(th, -y3) - P0 @ np.diag([1.0, 1, -1]))) < 1e-12


def test_coil_derivatives_match_finite_differences(prof03):
    patch = build_coil(prof03, 8)
    th0, y30 = 0.7, 0.4
    d = patch.derivatives(np.array(th0), np.array(y30))
    errs = []
    for step in (2e-3, 1e-3):
        Pp = patch.position(np.array(th0 + step), np.array(y30 + step))
        Pm = patch.position(np.array(th0 - step), np.array(y30 - step))
        Ppm = patch.position(np.array(th0 + step), np.array(y30 - step))
        Pmp = patch.position(np.array(th0 - step), np.array(y30 + step))
        fd = (Pp - Ppm - Pmp + Pm) / (4 * step * step)
        errs.append(np.max(np.abs(fd - d["P_th3"])))
    assert errs[1] < errs[0] / 2.5  # second-order decay of the FD error
    assert errs[1] < 1e-4


def test_torus_limit_matches_classical_curvature():
    cyl = solve_profile(0.5)
    torus = build_coil(cyl, 10)
    th = np.linspace(0, 2 * np.pi, 17, endpoint=False)
    H = evaluate_forms(torus, th, np.full_like(th, 0.33)).H
    exact = 2.0 + np.sin(th) / (torus.R + 0.5 * np.sin(th))
    assert np.max(np.abs(H - exact)) < 1e-8
    # y2/R-expansion coefficient: Phi/f = 2 for the cylinder profile
    x = 0.5 * np.sin(th) / torus.R
    slope = float(np.dot(x, H - 2.0) / np.dot(x, x))
    assert slope == pytest.approx(2.0, rel=0.05)


def test_curvature_expansion_decay(prof03):
    rep = curvature_expansion_check(prof03, [8, 16, 32, 64])
    assert rep.decay_exponent <= -1.8
    assert rep.max_err == sorted(rep.max_err, reverse=True)
    # coefficient recovery at moderate block count
    assert rep.phi_fit_rel_err[rep.n_list.index(32)] < 0.05


def test_curvature_expansion_needs_n8(prof03):
    with pytest.raises(DomainError):
        curvature_expansion_check(prof03, [4, 8])


@pytest.mark.parametrize("n_list", [[], [64], [16, 16]])
def test_curvature_expansion_needs_two_distinct_n(prof03, n_list):
    # a line through one point has no decay exponent to report
    with pytest.raises(DomainError, match="two distinct n"):
        curvature_expansion_check(prof03, n_list)


def test_curvature_expansion_refuses_vanishing_phi0():
    # Phi(0) = 4a - 1 is 0 at a = 1/4, and the fit's error is relative to it
    with pytest.raises(DomainError, match=r"Phi\(0\) = 4a - 1 is 0 at a = 0.25"):
        curvature_expansion_check(solve_profile(0.25), [8, 16])


def test_curvature_expansion_bends_one_straight_frame(prof03):
    # each n bends the one straight frame; the coil patch bends its own, and
    # the two give H with the same bits
    th = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)[:, None]
    y3 = np.linspace(-prof03.T / 2.0, prof03.T / 2.0, 129)[None, :]
    frame = build_straight(prof03)._straight_frame(th, y3)
    for n in (8, 40):
        patch = build_coil(prof03, n)
        assert np.array_equal(_forms(_bend(patch.R, frame)).H, evaluate_forms(patch, th, y3).H)


def test_phi_coefficient_value(prof03):
    # at y3 = 0: f = 1-a, f' = 0, f'' = 1/(1-a) - 2, so Phi(0) = 4a - 1
    phi0 = curvature_profile_coefficient(prof03, np.array(0.0))
    assert phi0 == pytest.approx(4 * 0.3 - 1.0, rel=1e-9)


def test_perturbed_coil_keeps_symmetries(prof03, chart03, solver03):
    h = solver03.zero_field(kmax=3)
    h.modes[0] = 0.01 * np.cos(np.pi * solver03.t / solver03.tau)
    h.modes[1] = 0.005 * solver03.kernel.nu2
    h.modes[2] = 0.004
    patch = build_coil(prof03, 12, h, chart=chart03)
    th = np.array([0.5, 1.7, 3.3])
    y3 = np.array([0.3, -0.8, 1.0])
    H0 = evaluate_forms(patch, th, y3).H
    assert np.max(np.abs(evaluate_forms(patch, np.pi - th, y3).H - H0)) < 1e-10
    assert np.max(np.abs(evaluate_forms(patch, th, -y3).H - H0)) < 1e-10
    assert np.max(np.abs(evaluate_forms(patch, th, y3 + prof03.T).H - H0)) < 1e-10


def test_perturbed_straight_linearizes_to_jacobi(prof03, chart03, solver03):
    # H(h) - H(0) ~ -J[h]: the direct surface evaluation against the
    # spectral operator, symmetric difference kills the quadratic term
    h = solver03.zero_field(kmax=2)
    h.modes[1] = 0.004 * solver03.kernel.nu2
    h.modes[2] = 0.003 * np.cos(np.pi * solver03.t / solver03.tau)
    t_idx = np.arange(4, solver03.m - 4, 7)
    th = np.linspace(0.2, np.pi / 2, 5)
    TH, TT = np.meshgrid(th, solver03.t[t_idx], indexing="ij")
    Y3 = np.meshgrid(th, solver03.z[t_idx], indexing="ij")[1]
    Hp = evaluate_forms(build_straight(prof03, h, chart03), TH, Y3).H
    Hm = evaluate_forms(build_straight(prof03, -1.0 * h, chart03), TH, Y3).H
    lin = (Hp - Hm) / 2.0
    Jh = solver03.apply(h)
    target = -Jh.evaluate(TH, TT)
    assert np.max(np.abs(lin - target)) < 5e-4 * max(1.0, np.max(np.abs(target)))


def test_embedding_violation_checks(prof03, chart03, solver03):
    big = solver03.zero_field(kmax=0)
    big.modes[0] = 0.5  # exceeds 1/kappa_max at the neck
    patch = build_coil(prof03, 12, big, chart=chart03)
    with pytest.raises(EmbeddingViolation):
        evaluate_forms(patch, np.array([0.1]), np.array([prof03.T / 2]))
    with pytest.raises(EmbeddingViolation):
        huge = solver03.zero_field(kmax=0)
        huge.modes[0] = 10.0
        build_coil(prof03, 3, huge, chart=chart03)


def _loop_like_field(solver):
    """A perturbation on modes 0..4 of the size the reduction loop meets."""
    h = solver.zero_field(kmax=4)
    c = np.cos(np.pi * solver.t / solver.tau)
    h.modes[0] = 0.01 * c + 0.004
    h.modes[1] = 0.004 * solver.kernel.nu2
    h.modes[2] = 0.005 * np.cos(2 * np.pi * solver.t / solver.tau)
    h.modes[3] = 0.002 * c
    h.modes[4] = 0.001
    return h


def _open_grid(n1=16, n2=25, span=1.2):
    th = np.linspace(0, 2 * np.pi, n1, endpoint=False)
    return th[:, None], np.linspace(-span, span, n2)[None, :]


@pytest.mark.parametrize("kind", ["sphere", "cylinder", "straight", "straight-h",
                                  "coiled", "coiled-h"])
def test_open_grid_forms_match_meshgrid(prof03, chart03, solver03, kind):
    # the frame evaluates the curve on y3's own shape and cos/sin on theta's;
    # an open grid gives the meshgrid's forms and derivatives bit for bit
    h = _loop_like_field(solver03) if kind.endswith("-h") else None
    patch = {"sphere": lambda: build_sphere(1.3),
             "cylinder": lambda: build_cylinder(0.4),
             "straight": lambda: build_straight(prof03, h, chart03),
             "coiled": lambda: build_coil(prof03, 12, h, chart03)}[kind.split("-")[0]]()
    th, y3 = _open_grid()
    TH, Y3 = np.broadcast_arrays(th, y3)
    F_open, F_mesh = evaluate_forms(patch, th, y3), evaluate_forms(patch, TH, Y3)
    for name in ("H", "g", "A", "normal"):
        assert np.array_equal(getattr(F_open, name), getattr(F_mesh, name)), name
    assert F_open.H.shape == TH.shape and F_open.g.shape == TH.shape + (2, 2)
    d_open, d_mesh = patch.derivatives(th, y3), patch.derivatives(TH, Y3)
    assert sorted(d_open) == ["P", "P_3", "P_33", "P_th", "P_th3", "P_thth"]
    for key, value in d_open.items():
        assert value.shape == TH.shape + (3,)
        assert np.array_equal(value, d_mesh[key]), key
    assert np.array_equal(patch.position(th, y3), d_mesh["P"])


def test_lazy_forms_keep_stacked_bits(prof03, chart03, solver03):
    # g, A and the normal are stacked on first read, from the components H is
    # formed from; sha256 of the arrays the forms stacked eagerly, on a
    # perturbed coil at the desk's a = 0.3, n = 32
    F = evaluate_forms(build_coil(prof03, 32, _loop_like_field(solver03), chart03),
                       *_open_grid(16, 25, prof03.T / 2))
    assert not {"g", "A", "normal"} & set(vars(F))
    want = {"g": "5817e73669da286a6d181f70561ee16365e8799ff20f531896212627e4fc1c02",
            "A": "61978e0227a6fa619dc316f8f8623496a1e6e2ad2a01e5f2695e399dc0b53fd7",
            "normal": "f47357685c30a62d40ff2ef0b4d435defda9088c96fc6631a72b55c045683e3c",
            "H": "a22eda15c4e6cb4a0124561663e93bf03cb6f9a5f1d7b573431d8f7c03d12081"}
    shapes = {"g": (16, 25, 2, 2), "A": (16, 25, 2, 2), "normal": (16, 25, 3), "H": (16, 25)}
    for name, digest in want.items():
        value = getattr(F, name)
        assert value.shape == shapes[name] and value.dtype == np.float64, name
        assert hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest() == digest, name
        assert getattr(F, name) is value, name


@pytest.mark.parametrize("n", [12, 32])
def test_zero_field_coil_matches_unperturbed(prof03, chart03, solver03, n):
    # an all-zero SymmetricField goes through the h terms as arrays of
    # zeros, h = None as the scalar 0.0: the same H either way
    th, y3 = _open_grid(64, 33, prof03.T / 2)
    H_none = evaluate_forms(build_coil(prof03, n), th, y3).H
    zero = build_coil(prof03, n, solver03.zero_field(kmax=3), chart03)
    assert np.array_equal(evaluate_forms(zero, th, y3).H, H_none)


def test_open_grid_errors(prof03, chart03, solver03):
    th, y3 = _open_grid(8, 9, prof03.T / 2)
    big = solver03.zero_field(kmax=0)
    big.modes[0] = 0.5  # folds the graph at the neck
    patch = build_coil(prof03, 12, big, chart=chart03)
    for grid in ((th, y3), np.broadcast_arrays(th, y3)):
        with pytest.raises(EmbeddingViolation):
            evaluate_forms(patch, *grid)
        with pytest.raises(EmbeddingViolation):
            patch.derivatives(*grid)
        # a zero-radius cylinder has Y_theta = 0 everywhere
        with pytest.raises(DegenerateMetric):
            evaluate_forms(build_cylinder(0.0), *grid)


# ---- meshes ---------------------------------------------------------------

def load_obj(path):
    verts, faces = [], []
    with open(path) as fh:
        for line in fh:
            if line.startswith("v "):
                verts.append([float(x) for x in line.split()[1:4]])
            elif line.startswith("f "):
                faces.append([int(tok.split("/")[0]) - 1 for tok in line.split()[1:4]])
    return np.asarray(verts), np.asarray(faces, dtype=int)


def euler_characteristic(faces):
    edges = set()
    for a, b, c in faces:
        for u, v in ((a, b), (b, c), (c, a)):
            edges.add((min(u, v), max(u, v)))
    nv = len({v for f in faces for v in f})
    return nv - len(edges) + len(faces), edges


def boundary_edge_count(faces):
    seen = {}
    for a, b, c in faces:
        for u, v in ((a, b), (b, c), (c, a)):
            key = (min(u, v), max(u, v))
            seen[key] = seen.get(key, 0) + 1
    return sum(1 for v in seen.values() if v == 1)


def signed_volume(verts, faces):
    v = verts[faces]
    return float(np.sum(np.einsum("ij,ij->i", v[:, 0], np.cross(v[:, 1], v[:, 2])))) / 6.0


def test_coil_mesh_closed_torus(prof03, tmp_path):
    path = tmp_path / "coil.obj"
    export_mesh(build_coil(prof03, 12), (32, 32 * 12), path)
    verts, faces = load_obj(path)
    chi, _ = euler_characteristic(faces)
    assert chi == 0
    assert boundary_edge_count(faces) == 0
    assert signed_volume(verts, faces) > 0


def test_mesh_resolution_validation(prof03, tmp_path):
    with pytest.raises(DomainError):
        export_mesh(build_coil(prof03, 6), (4, 16), tmp_path / "x.obj")


def test_mesh_export_refuses_other_patches(prof03, tmp_path):
    # only coils are exported; the sphere, cylinder and straight patches serve
    # the curvature checks
    path = tmp_path / "x.obj"
    for patch in (build_sphere(1.0), build_cylinder(0.5), build_straight(prof03)):
        with pytest.raises(DomainError, match="mesh export takes a coiled patch"):
            export_mesh(patch, (16, 16), path)
    assert not path.exists()


def test_mesh_deterministic(prof03, tmp_path):
    p1, p2 = tmp_path / "m1.obj", tmp_path / "m2.obj"
    export_mesh(build_coil(prof03, 6), (16, 48), p1)
    export_mesh(build_coil(prof03, 6), (16, 48), p2)
    assert p1.read_bytes() == p2.read_bytes()
