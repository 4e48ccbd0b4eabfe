"""Shared fixtures: the expensive flow traces are built once per session.

The graph-flow fixtures pair each surface with the Gaussian weight used by
the monotonicity tests; the refinement fixture materializes the three-level
(dt / 4, spacing / 2) ladder consumed by the convergence criteria.
``assert_bundle_matches`` compares a geometry view with the bundle rebuilt
on its state, field by field, and ``count_bundles`` records every bundle
built.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from mcf4d.flow import FlowTrace, RunControls, TraceScalars, run_flow
from mcf4d.geometry import SCALING_POWERS, GeometryBundle
from mcf4d.scenarios import (clifford_torus, grim_reaper_product,
                             lagrangian_graph, symplectic_graph,
                             translating_trace)

# (nodes per axis, dt, index of the comparison step) for the joint ladder.
REFINE_LEVELS = ((16, 9.6e-3, 4), (32, 2.4e-3, 16), (64, 6e-4, 64))

LAGR_CENTER = np.array([np.pi, 0.0, np.pi, 0.0])
SYMPL_CENTER = np.array([np.pi, np.pi, 0.0, -0.1])
WEIGHT_T0 = 0.1
SRC = Path(__file__).resolve().parent.parent / "src"


def src_env():
    """The environment with ``src`` first on PYTHONPATH, for subprocesses
    that import mcf4d from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def su2_real(rng):
    """Haar-random SU(2) matrix as a real 4x4 on (x1, y1, x2, y2)."""
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    a, b = complex(q[0], q[1]), complex(q[2], q[3])
    u = np.array([[a, b], [-b.conjugate(), a.conjugate()]])
    out = np.empty((4, 4))
    out[0::2, 0::2] = u.real
    out[0::2, 1::2] = -u.imag
    out[1::2, 0::2] = u.imag
    out[1::2, 1::2] = u.real
    return out


def thin_trace(trace, stride):
    """Subsampled copy of a trace's stored states (first and last kept)."""
    idx = list(range(0, len(trace.states), stride))
    if idx[-1] != len(trace.states) - 1:
        idx.append(len(trace.states) - 1)
    return FlowTrace(states=[trace.states[i] for i in idx],
                     state_steps=[trace.state_steps[i] for i in idx],
                     scalars=TraceScalars.from_rows([]),
                     termination_reason="thinned")


def window_trace(trace, k):
    """Three consecutive stored states centered on index k as a mini trace."""
    return FlowTrace(states=trace.states[k - 1:k + 2],
                     state_steps=trace.state_steps[k - 1:k + 2],
                     scalars=TraceScalars.from_rows([]),
                     termination_reason="window")


def _flat(name, value):
    """(label, array) pairs of a field, a tuple field entry by entry."""
    if not isinstance(value, tuple):
        return [(name, np.asarray(value))]
    return [pair for k, x in enumerate(value)
            for pair in _flat(f"{name}[{k}]", x)]


def _fields(bundle) -> dict:
    """Every scaled field of ``bundle`` by label, with the derived reads:
    the quadrature weights, and the tangential coefficients and normal part
    of the position field plus a constant (the torus's position field has no
    tangential part)."""
    x = (bundle.positions.transpose(2, 0, 1)
         + np.array([1.0, 2.0, 3.0, 4.0])[:, None, None])
    fields = {name: getattr(bundle, name)
              for name in (*SCALING_POWERS, "cos_alpha", "cos_theta")}
    fields.update(quadrature_weights=bundle.quadrature_weights(),
                  tangent_coords=bundle.tangent_coords(x),
                  normal_part=bundle.normal_part(x))
    return dict(pair for name, value in fields.items()
                for pair in _flat(name, value))


# Fields the map leaves unchanged, unit-free, compared with an absolute
# tolerance: the angle data and the Christoffel symbols, which vanish on the
# flat torus up to rounding.
UNSCALED = ("_angles", "lag_angle_unit", "cos_alpha", "cos_theta",
            "christoffel")
# Components of one tensor share its largest magnitude as their scale, since
# a component that vanishes (g_12 on the torus) has only rounding of its own.
TENSORS = {"f_u": "dF", "f_v": "dF", "g11": "g", "g12": "g", "g22": "g",
           "inv11": "g^-1", "inv12": "g^-1", "inv22": "g^-1"}


def _tensor(label: str) -> str:
    name = label.split("[")[0]
    return TENSORS.get(name, name)


def count_bundles(monkeypatch) -> list:
    """List that gets the state of every GeometryBundle constructed from
    here on, until ``monkeypatch`` is undone."""
    built = []
    original = GeometryBundle.__init__

    def counted(self, state):
        built.append(state)
        original(self, state)

    monkeypatch.setattr(GeometryBundle, "__init__", counted)
    return built


def assert_bundle_matches(view, state, rtol=1e-12):
    """Every field of the geometry ``view`` against ``GeometryBundle(state)``
    rebuilt: within ``rtol`` of its tensor's largest magnitude, the
    unit-free fields (:data:`UNSCALED`) within ``rtol`` absolute, and the
    boolean masks exactly.  The view must keep the state's positions, time
    and grid."""
    assert np.array_equal(view.positions, state.positions)
    assert view.time == state.time and view.grid is state.grid
    rebuilt = _fields(GeometryBundle(state))
    got = _fields(view)
    assert got.keys() == rebuilt.keys()
    scale = {}
    for label, want in rebuilt.items():
        tensor = _tensor(label)
        scale[tensor] = max(scale.get(tensor, 0.0),
                            1.0 if tensor in UNSCALED
                            else float(np.abs(want).max()))
    for label, want in rebuilt.items():
        if want.dtype == bool:
            assert np.array_equal(got[label], want), label
            continue
        err = float(np.abs(got[label] - want).max())
        assert err <= rtol * scale[_tensor(label)], (label, err)


@pytest.fixture(scope="session")
def torus32_trace():
    """Shrinking torus at n = 32, every step stored, run to blow-up."""
    return run_flow(clifford_torus(32, 32),
                    RunControls(stride=1, blowup_threshold=1e4))


@pytest.fixture(scope="session")
def torus64_trace():
    """Shrinking torus at n = 64, stored every 50 steps, run to blow-up."""
    return run_flow(clifford_torus(64, 64),
                    RunControls(stride=50, blowup_threshold=1e4))


@pytest.fixture(scope="session")
def lagr32_mono():
    return run_flow(lagrangian_graph(32, 32, 0.1),
                    RunControls(dt=2.5e-4, max_steps=80, stride=1))


@pytest.fixture(scope="session")
def sympl32_mono():
    return run_flow(symplectic_graph(32, 32, 0.1),
                    RunControls(dt=2.5e-4, max_steps=80, stride=1))


@pytest.fixture(scope="session")
def lagr64_mono():
    return run_flow(lagrangian_graph(64, 64, 0.1),
                    RunControls(dt=2.5e-4, max_steps=160, stride=1))


@pytest.fixture(scope="session")
def sympl64_mono():
    return run_flow(symplectic_graph(64, 64, 0.1),
                    RunControls(dt=2.5e-4, max_steps=160, stride=1))


@pytest.fixture(scope="session")
def refine_minis():
    """Three-state windows of graph flows on the (dt / 4, n x 2) ladder."""
    out = {}
    for build, tag in ((lagrangian_graph, "lagr"), (symplectic_graph, "sympl")):
        for n, dt, k in REFINE_LEVELS:
            tr = run_flow(build(n, n, 0.1),
                          RunControls(dt=dt, max_steps=k + 2, stride=1))
            out[(tag, n)] = window_trace(tr, k)
    return out


@pytest.fixture(scope="session")
def grim1025_trace():
    return translating_trace(lambda t: grim_reaper_product(n1=1025, time=t),
                             np.linspace(0.0, 0.1, 3))


@pytest.fixture(scope="session")
def grim257_trace():
    return translating_trace(lambda t: grim_reaper_product(n1=257, time=t),
                             np.linspace(0.0, 0.1, 3))
