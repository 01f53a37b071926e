"""Model construction tests."""
import numpy as np
import pytest

from trotterion.models import (
    CouplingGraph,
    FieldSpec,
    RampSpec,
    coupling_graph_model,
    ising2,
    long_range_ising,
    many_body_model,
    xy2,
    xyz2,
)
from trotterion.pauli import PauliString, hamiltonian_matrix


def _ops(model):
    return sorted((c, p.ops) for c, p in model.terms)


def test_two_spin_presets():
    assert _ops(ising2(0.5, 1.0)) == sorted([(0.5, "ZI"), (0.5, "IZ"), (1.0, "XX")])
    letters_xy = {ops for _, ops in _ops(xy2(1.0, 1.0))}
    assert {"XX", "YY"} <= letters_xy
    letters_xyz = {ops for _, ops in _ops(xyz2(1.0, 1.0))}
    assert {"XX", "YY", "ZZ"} <= letters_xyz


def test_long_range_ising_all_pairs():
    model, graph = long_range_ising(5, 0.5, 1.0)
    couplings = [p.ops for _, p in model.terms if len(p.ops.replace("I", "")) == 2]
    assert len(couplings) == 5 * 4 // 2
    assert all(ops.count("X") == 2 for ops in couplings)
    assert graph.n == 5
    assert np.allclose(graph.J, graph.J.T)


def test_coupling_graph_validation():
    with pytest.raises(ValueError):
        CouplingGraph(3, np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]]), 0.0)  # asymmetric
    g = CouplingGraph(3, np.array([[0, 2, 1], [2, 0, 1], [1, 1, 0]], float), 0.0)
    assert set(g.pairs()) == {(0, 1, 2.0), (0, 2, 1.0), (1, 2, 1.0)}


@pytest.mark.parametrize(
    "J, phi",
    [
        ([[0, np.nan, 1], [np.nan, 0, 1], [1, 1, 0]], 0.0),
        ([[0, np.inf, 1], [np.inf, 0, 1], [1, 1, 0]], 0.0),
        ([[0, -np.inf, 1], [-np.inf, 0, 1], [1, 1, 0]], 0.0),
        ([[np.nan, 1, 1], [1, 0, 1], [1, 1, 0]], 0.0),
        ([[0, 1, 1], [1, 0, 1], [1, 1, 0]], np.nan),
        ([[0, 1, 1], [1, 0, 1], [1, 1, 0]], np.inf),
    ],
)
def test_coupling_graph_rejects_non_finite_input(J, phi):
    with pytest.raises(ValueError, match="finite"):
        CouplingGraph(3, np.array(J, float), phi)


def test_coupling_graph_model_terms_follow_the_coupling_matrix():
    rng = np.random.default_rng(17)
    for n, phi, letter in ((2, 0.0, "X"), (5, 0.0, "X"), (6, np.pi / 2, "Y")):
        J = np.triu(rng.integers(-2, 4, (n, n)), 1).astype(float)
        J = J + J.T
        model = coupling_graph_model(CouplingGraph(n, J, phi), FieldSpec("x", 0.3))
        want = []
        for i in range(n):
            for j in range(i + 1, n):
                if J[i, j] != 0.0:
                    want.append((float(J[i, j]), "".join(letter if k in (i, j) else "I" for k in range(n))))
        want += [(0.3, "".join("X" if k == j else "I" for k in range(n))) for j in range(n)]
        assert [(c, p.ops) for c, p in model.terms] == want
        assert all(type(c) is float for c, _ in model.terms)


def test_coupling_graph_model_matches_dense_sum():
    J = np.array([[0, 2, 0], [2, 0, 1], [0, 1, 0]], float)
    g = CouplingGraph(3, J, 0.0)
    model = coupling_graph_model(g, FieldSpec("z", 0.5))
    m = hamiltonian_matrix(model)
    assert np.allclose(m, m.conj().T)
    # diagonal field part: trace of m with ZII etc recovers 0.5
    coeffs = dict((p.ops, c) for c, p in model.terms)
    assert coeffs["XXI"] == 2.0
    assert coeffs["IXX"] == 1.0
    assert "XIX" not in coeffs


def test_field_spec_validation():
    with pytest.raises(ValueError):
        FieldSpec("w", 1.0)
    with pytest.raises(ValueError):
        FieldSpec("x", np.inf)


def test_ramp_spec():
    ramp = RampSpec(np.pi / 2, 0.0, 4.0, 1.0)
    assert ramp.J_at(0.0) == 0.0
    assert ramp.J_at(np.pi / 2) == 4.0
    assert ramp.J_at(np.pi / 4) == pytest.approx(2.0)
    assert ramp.J_at(10.0) == 4.0  # clipped past the end
    with pytest.raises(ValueError):
        RampSpec(0.0, 0.0, 1.0, 1.0)


def test_many_body_model():
    p = PauliString.from_string("ZXX")
    model = many_body_model(p, 1.0, FieldSpec("y", 0.5))
    ops = {o for _, o in _ops(model)}
    assert "ZXX" in ops
    assert {"YII", "IYI", "IIY"} <= ops
