"""Property-based checks of the interface kernel and the config format.

Every strategy is bounded: depths in [0.5, 2], velocities in [-1.5, 1.5],
so nothing overflows, and each test draws a small number of examples.
"""

import string

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from swlme.basis import Variant
from swlme.config import format_config, parse_config
from swlme.model import ModelParams
from swlme.solver import Grid1D, Scenario, semi_discrete_rhs

ORDERS = (0, 1, 2, 3, 5)
BOUNDARIES = ("periodic", "outflow", "reflective")
FEW = settings(max_examples=25, deadline=None)


@st.composite
def states(draw, n_moments=st.sampled_from(ORDERS)):
    """(N, U): conserved states on 2..24 cells, depths and velocities bounded."""
    n = draw(n_moments)
    cells = draw(st.integers(2, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    U = np.empty((cells, n + 2))
    U[:, 0] = rng.uniform(0.5, 2.0, cells)
    U[:, 1:] = U[:, :1] * rng.uniform(-1.5, 1.5, (cells, n + 1))
    return n, U


def flat_scenario(n, cells, variant, boundary):
    return Scenario(params=ModelParams(g=9.81, N=n, variant=variant),
                    grid=Grid1D(-1.0, 1.0, cells), ic_name="constant", boundary=boundary)


@FEW
@given(states(), st.sampled_from(list(Variant)))
def test_mass_and_momentum_conserved_on_flat_periodic_domain(state, variant):
    n, U = state
    rhs = semi_discrete_rhs(U, flat_scenario(n, U.shape[0], variant, "periodic"))
    # the flux differences telescope, so the sums are zero up to the rounding
    # of a sum of `cells` terms
    for k in (0, 1):
        assert abs(rhs[:, k].sum()) <= U.shape[0] * np.finfo(float).eps * np.abs(rhs[:, k]).sum()


@FEW
@given(st.sampled_from(list(Variant)), st.sampled_from(ORDERS), st.integers(2, 60),
       st.sampled_from(BOUNDARIES),
       st.one_of(
           st.tuples(st.just("gaussian"), st.fixed_dictionaries({
               "height": st.floats(0.0, 0.8), "width": st.floats(0.2, 3.0),
               "center": st.floats(-2.0, 2.0)})),
           st.tuples(st.just("slope"), st.fixed_dictionaries({"grade": st.floats(-0.15, 0.15)}))))
def test_lake_at_rest_is_a_fixed_point(variant, n, cells, boundary, topo):
    name, topo_params = topo
    sc = Scenario(params=ModelParams(g=9.81, N=n, variant=variant),
                  grid=Grid1D(-2.0, 2.0, cells), ic_name="lake_at_rest",
                  ic_params={"surface": 1.5}, topo_name=name, topo_params=topo_params,
                  boundary=boundary)
    rhs = semi_discrete_rhs(sc.initial_states(), sc)
    # every term is a difference of O(g surface^2) numbers, divided by dx
    assert np.abs(rhs).max() <= 1e-14 * 9.81 * 1.5**2 / sc.grid.dx


@FEW
@given(states(), st.sampled_from(list(Variant)), st.sampled_from(BOUNDARIES))
def test_mirror_symmetry_is_bitwise_on_a_flat_bottom(state, variant, boundary):
    # x -> -x with every velocity negated maps the scheme onto itself
    n, U = state
    sc = flat_scenario(n, U.shape[0], variant, boundary)
    sign = np.ones(n + 2)
    sign[1:] = -1.0
    got = semi_discrete_rhs(U[::-1] * sign, sc)
    assert got.tobytes() == (semi_discrete_rhs(U, sc)[::-1] * sign).tobytes()


_WORD = st.text(string.ascii_letters + string.digits + "_", min_size=1, max_size=8)
_VALUE = st.text(string.ascii_letters + string.digits + "_-+.=/: ", min_size=1,
                 max_size=16).map(str.strip).filter(bool)


@FEW
@given(st.dictionaries(st.builds(lambda a, b: f"{a}.{b}", _WORD, _WORD), _VALUE, max_size=12))
def test_config_round_trip(cfg):
    assert parse_config(format_config(cfg)) == cfg
