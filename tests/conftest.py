"""Shared fixtures: the expensive flow traces are built once per session.

The graph-flow fixtures pair each surface with the Gaussian weight used by
the monotonicity tests; the refinement fixture materializes the three-level
(dt / 4, spacing / 2) ladder consumed by the convergence criteria.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from mcf4d.flow import FlowTrace, RunControls, TraceScalars, run_flow
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
