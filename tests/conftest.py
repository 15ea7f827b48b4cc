"""Shared test plumbing: the acceptance checklist summary and RT0 references.

Acceptance tests record one entry per criterion through the
``acceptance_log`` fixture; after the run pytest prints a single
PASS/FAIL line for each recorded criterion.  The references below
build edge midpoints and the coefficients of a coarse RT0 field on a
nested fine mesh edge by edge, independently of the package's
element-pair path.
"""

import numpy as np
import pytest

from sepfem import Connectivity, MixedPoisson, SafemParams, field_from_name, l_shape, safem_run
from sepfem.edges import rt_affine, rt_at_points

_RESULTS = {}


@pytest.fixture(scope="session")
def acceptance_log():
    return _RESULTS


def record(log, number, name, ok, detail):
    """Store one criterion outcome, then assert it."""
    log[number] = (name, bool(ok), detail)
    assert ok, f"criterion {number} ({name}): {detail}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_RESULTS):
        name, ok, detail = _RESULTS[number]
        flag = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {number}: {flag} [{name}] {detail}")


@pytest.fixture(scope="session")
def graded_mesh():
    """The last mesh of the mixed loop with f = 1 and a 3 000-element cap.

    The loop grades the L-shape toward its re-entrant corner; 3 616
    elements.
    """
    params = SafemParams(theta_a=0.3, kappa=1.0, rho_b=0.5, sigma_tol=0.0, max_elements=3000)
    res = safem_run(MixedPoisson(field_from_name("one")), l_shape(), params)
    return res.meshes[-1]


def graded_l_shape():
    """The L-shape bisected six times around its reentrant corner."""
    T = l_shape()
    for _ in range(6):
        corner = np.all(T.tri_coords() == 0.0, axis=2).any(axis=1)
        T = T.refine(T.leaf_ids[corner])
    return T


def edge_midpoints(conn):
    """(n_edges, 2) midpoints 0.5 (P_a + P_b) of the edges (a, b) of ``conn``."""
    coords = conn.forest.coords()
    a, b = conn.edges.T
    return 0.5 * (coords[a] + coords[b])


def prolonged_flux(Tc, p, Tf):
    """Coefficients of the RT0 field ``p`` of mesh Tc on the edges of a nested fine mesh Tf.

    An edge of both meshes keeps its coefficient verbatim, since the
    global normal is vertex based.  A new edge takes p(mid) . n from the
    coarse element holding it, exact because the field is affine there.
    """
    rows = Tf.coarse_rows(Tc)
    assert np.all(rows >= 0)
    coarse, fine = Connectivity.of(Tc), Connectivity.of(Tf)
    ckeys, keys = coarse.keys, fine.keys
    pos = np.minimum(np.searchsorted(ckeys, keys), len(ckeys) - 1)
    shared = ckeys[pos] == keys
    out = np.empty(fine.n_edges)
    out[shared] = p[pos[shared]]
    new = np.flatnonzero(~shared)
    pair = rt_affine(coarse, coarse.local_flux_dofs(p))
    mids = edge_midpoints(fine)[new, np.newaxis]
    holder = rows[fine.edge_elem[new]]
    vals = rt_at_points(coarse.pts[holder], pair[0][holder], pair[1][holder], mids)[:, 0]
    out[new] = np.einsum("mk,mk->m", vals, fine.normals[new])
    return out
