import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from reproguard.errors import ConfigError, InvalidInputError
from reproguard.quantizer import (
    QuantGrid,
    default_scale_table,
    dequantize_array,
    quantize_array,
    round_index_array,
    validate,
)
from reproguard.safeguard import GuardConfig, GuardMode, guard_encode_array


def quantize(g, v):
    return int(quantize_array(g, np.array([v]))[0])


def dequantize(g, n):
    return float(dequantize_array(g, np.array([n]))[0])


def round_index(g, v):
    m, bv = round_index_array(g, np.array([v]))
    return int(m[0]), float(bv[0])


def boundary_value(g, m):
    """Value of boundary index ``m`` of a uniform grid."""
    return m * g.q


def round_b(g, v):
    """Nearest boundary; a tie rounds down."""
    return round_index(g, v)[1]


def floor_b(g, v):
    """Nearest boundary at or below ``v``, from the nearest one."""
    m, bv = round_index(g, v)
    return bv if bv <= v else boundary_value(g, m - 1)


def ceil_b(g, v):
    """Nearest boundary strictly above ``v``, from the nearest one."""
    m, bv = round_index(g, v)
    return boundary_value(g, m + 1) if bv <= v else bv


# the hyperprior's scale table: the one grid with a fixed domain, 64 bins
# of step q on log sigma from boundary -18 to boundary 46
TABLE = default_scale_table()
Q = TABLE.q


def grids():
    steps = st.sampled_from([0.004, 0.008, 0.01, 0.25, 1.0])
    return st.builds(QuantGrid.uniform, steps)


class TestQuantize:
    def test_uniform_known_value(self):
        g = QuantGrid.uniform(0.004)
        assert quantize(g, 0.0103) == 2

    def test_zero_input_zero_offset(self):
        g = QuantGrid.uniform(0.004)
        assert quantize(g, 0.0) == 0

    def test_table_half_open_membership(self):
        # an inner boundary belongs to the bin above it
        assert quantize(TABLE, 3 * Q) == 3
        assert quantize(TABLE, np.nextafter(3 * Q, 0.0)) == 2

    def test_table_top_value_maps_to_last_bin(self):
        assert quantize(TABLE, 46 * Q) == 45
        assert quantize(TABLE, -18 * Q) == -18

    def test_non_finite_rejected(self):
        g = QuantGrid.uniform(0.004)
        with pytest.raises(InvalidInputError):
            quantize(g, float("nan"))
        with pytest.raises(InvalidInputError):
            quantize_array(g, np.array([0.1, float("inf")]))


class TestDequantize:
    def test_uniform_bin_center(self):
        g = QuantGrid.uniform(0.004)
        assert dequantize(g, 2) == pytest.approx(0.01, abs=0)

    def test_table_midpoint(self):
        assert dequantize(TABLE, -18) == -17.5 * Q
        assert dequantize(TABLE, 45) == 45.5 * Q


class TestBoundaryOps:
    def test_floor_ceil_round_basic(self):
        g = QuantGrid.uniform(0.01)
        assert floor_b(g, 0.0103) == pytest.approx(0.01, abs=0)
        assert ceil_b(g, 0.0103) == pytest.approx(0.02, abs=0)
        assert round_b(g, 0.0103) == pytest.approx(0.01, abs=0)

    def test_round_tie_goes_down(self):
        # 0.01 sits exactly between boundaries 0.008 and 0.012
        g = QuantGrid.uniform(0.004)
        assert round_b(g, 0.01) == pytest.approx(0.008, abs=0)

    def test_on_boundary(self):
        g = QuantGrid.uniform(1.0)
        assert floor_b(g, 7.0) == 7.0
        assert ceil_b(g, 7.0) == 8.0
        assert round_b(g, 7.0) == 7.0

    def test_past_table_end_clamps_onto_top(self):
        # a value past the end clamps onto the top boundary
        assert round_index(TABLE, 9.0) == (46, 46 * Q)

    @given(grids(), st.floats(-100, 100))
    def test_sandwich(self, g, v):
        lo, hi = floor_b(g, v), ceil_b(g, v)
        assert lo <= v < hi
        assert round_b(g, v) in (lo, hi)

    @given(grids(), st.floats(-100, 100), st.floats(0, 10))
    def test_monotone(self, g, v, dv):
        assert quantize(g, v) <= quantize(g, v + dv)
        assert floor_b(g, v) <= floor_b(g, v + dv)
        assert ceil_b(g, v) <= ceil_b(g, v + dv)
        assert round_b(g, v) <= round_b(g, v + dv)

    @given(grids(), st.floats(-100, 100))
    def test_roundtrip_containment(self, g, v):
        n = quantize(g, v)
        c = dequantize(g, n)
        assert quantize(g, c) == n
        assert floor_b(g, v) <= c < ceil_b(g, v) or quantize(g, c) == n


class TestRoundIndex:
    def test_matches_round_b(self):
        g = QuantGrid.uniform(0.004)
        for v in [0.0101, -3.7, 0.002, 0.25]:
            m, bv = round_index(g, v)
            assert bv == round_b(g, v)
            assert boundary_value(g, m) == bv

    def test_array_agrees_with_scalar(self):
        g = QuantGrid.uniform(0.25, domain=(0.0, 1.0))
        vs = np.array([-0.5, 0.0, 0.09, 0.3, 0.71, 1.0, 1.5])
        ms, bvs = round_index_array(g, vs)
        for v, m, bv in zip(vs, ms, bvs):
            sm, sbv = round_index(g, float(v))
            assert (sm, sbv) == (m, bv)

    def test_ulp_adjacent_values_stay_consistent(self):
        g = QuantGrid.uniform(0.004)
        for k in range(1, 2000, 37):
            b = k * 0.004
            for v in (np.nextafter(b, -1.0), b, np.nextafter(b, 2.0)):
                m, bv = round_index(g, float(v))
                assert abs(bv - v) <= 0.002 + 1e-12


class TestGaps:
    """Half the bin below and above a boundary, as the guard's FULL mode
    protects a risky value: to the center of its bin, half a step from the
    boundary."""

    @staticmethod
    def offsets(g, m, eps):
        """The protected values of risky values just below and just above
        boundary ``m``, less the boundary."""
        cfg = GuardConfig(grid=g, epsilon=eps, mode=GuardMode.FULL)
        b = m * g.q
        v_out, fr, _ = guard_encode_array(cfg, np.array([b - eps / 2, b + eps / 2]))
        assert fr.tolist() == [1, 1]
        return (v_out - b).tolist()

    def test_uniform_gap_is_q(self):
        assert self.offsets(QuantGrid.uniform(0.25), 3, 1e-3) == [-0.125, 0.125]

    def test_table_gaps(self):
        below, above = self.offsets(TABLE, 3, 1e-4)
        assert below == pytest.approx(-Q / 2, rel=1e-12)
        assert above == pytest.approx(Q / 2, rel=1e-12)


class TestValidate:
    def test_accepts_wide_grid(self):
        validate(QuantGrid.uniform(0.004), 1e-6)

    def test_rejects_narrow_margin(self):
        with pytest.raises(ConfigError):
            validate(QuantGrid.uniform(0.004), 0.002)

    def test_table_margin_uses_min_gap(self):
        # every bin of the table is one step wide, so the step is its margin
        validate(TABLE, Q / 4 * (1 - 1e-12))
        with pytest.raises(ConfigError):
            validate(TABLE, Q / 4)

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ConfigError):
            validate(QuantGrid.uniform(0.004), 0.0)


class TestDomain:
    def test_domain_edges_must_be_boundaries(self):
        QuantGrid.uniform(0.25, domain=(0.0, 1.0))
        with pytest.raises(ConfigError):
            QuantGrid.uniform(0.25, domain=(0.0, 0.9))

    def test_domain_clamps_quantize(self):
        g = QuantGrid.uniform(0.25, domain=(0.0, 1.0))
        assert quantize(g, -3.0) == 0
        assert quantize(g, 1.0) == 3
        assert quantize(g, 9.0) == 3

    def test_table_domain_is_its_outer_boundaries(self):
        assert TABLE == QuantGrid.uniform(Q, domain=(-18 * Q, 46 * Q))
        lo, hi = TABLE.domain
        assert (round_index(TABLE, lo), round_index(TABLE, hi)) == (
            (-18, lo), (46, hi)
        )

    def test_table_clamps_outside_values(self):
        assert quantize(TABLE, -9.0) == -18
        assert quantize(TABLE, 7.0) == 45
        assert round_index(TABLE, -9.0) == (-18, -18 * Q)

    @pytest.mark.parametrize(
        "q,domain",
        [
            (1e300, (0.0, 1.0)),
            (4.0, (0.0, 1e-12)),
            (1.0, (-1.0, -1.0 + 1e-10)),
        ],
    )
    def test_uniform_domain_holds_a_whole_bin(self, q, domain):
        with pytest.raises(ConfigError):
            QuantGrid.uniform(q, domain=domain)
        QuantGrid.uniform(q, domain=(domain[0], domain[0] + q))

    @pytest.mark.parametrize(
        "q,domain",
        [
            (1.0, (0.0, 2.0**53)),
            (1.0, (-(2.0**53), 0.0)),
            (1e-200, (0.0, 1.0)),
            (1e-310, (0.0, 1.0)),  # 1 / q overflows to inf
        ],
    )
    def test_domain_edge_index_stays_below_2_53(self, q, domain):
        with pytest.raises(ConfigError, match="2\\*\\*53"):
            QuantGrid.uniform(q, domain=domain)

    def test_domain_edge_just_below_2_53(self):
        g = QuantGrid.uniform(1.0, domain=(0.0, 2.0**53 - 1.0))
        assert quantize(g, 2.0**60) == 2**53 - 2


class TestIndexRange:
    """Bin indices of a domainless grid stay below 2**53 in magnitude."""

    @pytest.mark.parametrize("v", [2.0**53, -(2.0**53) - 2.0, 1e300])
    def test_values_beyond_are_rejected(self, v):
        g = QuantGrid.uniform(1.0)
        for op in (quantize_array, round_index_array):
            with pytest.raises(InvalidInputError, match="2\\*\\*53"):
                op(g, np.array([0.5, v]))

    def test_values_just_inside_are_exact(self):
        g = QuantGrid.uniform(1.0)
        v = np.array([2.0**53 - 1.0, -(2.0**53) + 1.0])
        assert quantize_array(g, v).tolist() == [2**53 - 1, -(2**53) + 1]

    def test_tiny_step_overflowing_to_inf_is_rejected(self):
        g = QuantGrid.uniform(1e-300)
        with pytest.raises(InvalidInputError):
            quantize_array(g, np.array([1e10]))

    def test_empty_input(self):
        g = QuantGrid.uniform(1.0)
        assert quantize_array(g, np.array([])).shape == (0,)
        m, bv = round_index_array(g, np.array([]))
        assert m.shape == bv.shape == (0,)


class TestBinDrift:
    """A bounded perturbation moves the bin index by at most one."""

    @settings(max_examples=300)
    @given(
        st.sampled_from([(0.004, 1e-5), (0.004, 1e-6), (0.008, 1e-5)]),
        st.floats(0, 1),
        st.floats(-1, 1),
    )
    def test_drift_at_most_one(self, qe, v, u):
        q, eps = qe
        g = QuantGrid.uniform(q)
        delta = u * eps
        assert abs(quantize(g, v) - quantize(g, v + delta)) <= 1

    def test_drift_near_boundaries(self):
        g = QuantGrid.uniform(0.004)
        eps = 1e-6
        for k in range(250):
            b = k * 0.004
            for v in (b - eps, b - eps / 2, b, b + eps / 2, b + eps):
                for d in (-eps, eps):
                    assert abs(quantize(g, v) - quantize(g, v + d)) <= 1


class TestConstruction:
    def test_exactly_one_kind(self):
        # a grid is its step: no boundary table can be named
        with pytest.raises(TypeError):
            QuantGrid(q=0.1, boundaries=(0.0, 1.0))
        assert QuantGrid.uniform(0.1).is_uniform and TABLE.is_uniform

    def test_uniform_grid_is_its_step(self):
        fields = [f.name for f in dataclasses.fields(QuantGrid) if f.init]
        assert fields == ["q", "domain"]
        # the domain is keyword-only, so a leftover positional offset fails
        with pytest.raises(TypeError):
            QuantGrid.uniform(0.1, 0.5)

    def test_boundaries_must_increase(self):
        # the domain's edge boundaries, lo below hi
        for domain in [(0.5, 0.5), (1.0, 0.0)]:
            with pytest.raises(ConfigError):
                QuantGrid.uniform(0.5, domain=domain)

    def test_bad_step(self):
        for q in (0.0, -0.1):
            with pytest.raises(ConfigError):
                QuantGrid.uniform(q)

    def test_min_gap(self):
        # the narrowest bin is one step wide: the margin rule reads q
        validate(QuantGrid.uniform(0.25), 0.0625 * (1 - 1e-12))
        with pytest.raises(ConfigError, match="grid step 0.25"):
            validate(QuantGrid.uniform(0.25), 0.0625)

    def test_not_a_number_is_typed(self):
        for q in (None, "x"):
            with pytest.raises(InvalidInputError):
                QuantGrid.uniform(q)
        with pytest.raises(InvalidInputError):
            validate(QuantGrid.uniform(0.25), None)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: QuantGrid("0.5"),
            lambda: QuantGrid.uniform(b"0.5"),
            lambda: QuantGrid.uniform(0.25, domain=("0", 1)),
            lambda: validate(QuantGrid.uniform(0.25), "1e-6"),
            lambda: GuardConfig(QuantGrid.uniform(0.25), b"1e-6"),
            lambda: QuantGrid.uniform(10**400),
        ],
        ids=["str-q", "bytes-q", "str-domain", "str-epsilon",
             "bytes-epsilon", "int-past-the-doubles"],
    )
    def test_scalar_that_is_not_a_finite_real_refused(self, make):
        with pytest.raises(InvalidInputError):
            make()

    def test_boundary_array_is_derived_not_passed(self):
        # the domain's edge indices are derived from it
        with pytest.raises(TypeError):
            QuantGrid(q=0.1, _edges=(0, 5))
        assert QuantGrid.uniform(0.1)._edges is None
        assert TABLE._edges == (-18, 46)
