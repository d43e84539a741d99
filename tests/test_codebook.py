"""Beam designers: subband-target fits, swept beams, flat codebooks, CSV."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jpta import _kernels, codebook
from jpta.antenna import (
    SPEED_OF_LIGHT_M_S,
    ArrayConfig,
    FrequencyGrid,
    PhaseTimeWeights,
    axis_from_boresight_deg,
    beam_gain_db,
    pattern_map,
)
from jpta.codebook import (
    CODEBOOK_CSV_HEADER,
    DEFAULT_DELAY_STEP_S,
    DEFAULT_MAX_DELAY_S,
    DelayConstraint,
    RainbowSpec,
    Type1Target,
    design_type1,
    design_type2,
    export_codebook_csv,
    import_codebook_csv,
    paa_codebook,
    quantize_delays,
    steer_weights,
    type1_objective,
)

BORE_2UE = (30.0, -30.0)          # descending boresight, ascending axis
BORE_4UE = (30.0, 10.0, -10.0, -30.0)


def _target(bore_deg_desc, num_rbs):
    axis = [axis_from_boresight_deg(a) for a in bore_deg_desc]
    return Type1Target.equal_shares(axis, num_rbs)


# ---------------------------------------------------------------------------
# Type1Target
# ---------------------------------------------------------------------------

def test_equal_shares_layout():
    t = Type1Target.equal_shares([1.0, 1.5, 2.0], 10)
    assert t.entries == ((1.0, (0, 3)), (1.5, (3, 6)), (2.0, (6, 10)))
    assert t.num_rbs == 10
    # remainder goes to the last entry
    assert t.entries[-1][1] == (6, 10)


def test_rb_angles_covers_band():
    t = Type1Target.equal_shares([0.5, 2.5], 8)
    angles = t.rb_angles(8)
    np.testing.assert_array_equal(angles, [0.5] * 4 + [2.5] * 4)
    with pytest.raises(ValueError, match="covers 8 RBs"):
        t.rb_angles(9)


@pytest.mark.parametrize("entries", [
    (),                                     # empty
    ((1.0, (1, 4)),),                       # does not start at 0
    ((1.0, (0, 4)), (1.2, (5, 8))),         # gap
    ((1.0, (0, 4)), (1.2, (2, 8))),         # overlap
    ((1.0, (0, 0)),),                       # empty range
    ((4.0, (0, 4)),),                       # angle outside [0, pi]
])
def test_type1_target_validation(entries):
    with pytest.raises(ValueError):
        Type1Target(entries=entries)


def test_equal_shares_needs_enough_rbs():
    with pytest.raises(ValueError, match="fewer RBs"):
        Type1Target.equal_shares([1.0, 2.0, 3.0], 2)
    with pytest.raises(ValueError, match="non-empty"):
        Type1Target.equal_shares([], 8)


# ---------------------------------------------------------------------------
# DelayConstraint / quantize_delays
# ---------------------------------------------------------------------------

def test_delay_constraint_grid():
    dc = DelayConstraint(2.5e-9, 157.5e-9)
    assert dc.num_steps == 63
    g = dc.grid()
    assert g.size == 64
    assert g[0] == 0.0
    assert g[-1] == pytest.approx(157.5e-9, rel=1e-12)
    # decimal inputs resolve to the intended step count
    assert DelayConstraint(0.3e-9, 0.9e-9).num_steps == 3
    assert DEFAULT_DELAY_STEP_S == 2.5e-9
    assert DEFAULT_MAX_DELAY_S == 157.5e-9


def test_delay_constraint_validation():
    with pytest.raises(ValueError):
        DelayConstraint(0.0, 1e-9)
    with pytest.raises(ValueError):
        DelayConstraint(1e-9, -1e-9)
    # zero max is a single-point grid {0}
    assert DelayConstraint(1e-9, 0.0).grid().tolist() == [0.0]


def test_quantize_delays_rounding():
    dc = DelayConstraint(2.5e-9, 157.5e-9)
    w = PhaseTimeWeights(
        delays_s=np.array([0.0, 1.25e-9, 3.75e-9, 3.76e-9, 30.7182e-9,
                           200e-9]),
        phases_rad=np.zeros(6))
    q = quantize_delays(w, dc)
    np.testing.assert_allclose(
        q.delays_s,
        [0.0, 0.0, 2.5e-9, 5.0e-9, 30.0e-9, 157.5e-9],  # halfway rounds down
        rtol=1e-12)
    assert q.delay_step_s == 2.5e-9
    np.testing.assert_array_equal(q.phases_rad, w.phases_rad)
    # idempotent on already-quantized weights
    q2 = quantize_delays(q, dc)
    np.testing.assert_array_equal(q2.delays_s, q.delays_s)


# ---------------------------------------------------------------------------
# steer_weights / paa_codebook
# ---------------------------------------------------------------------------

def test_steer_weights_points_at_target(array16):
    angle = axis_from_boresight_deg(-22.0)
    w = steer_weights(array16, angle)
    assert np.all(w.delays_s == 0.0)
    assert beam_gain_db(array16, w, angle, 28e9) == pytest.approx(28.0,
                                                                  abs=1e-9)
    with pytest.raises(ValueError):
        steer_weights(array16, -0.2)


def test_paa_codebook_centers(array16):
    sector = (axis_from_boresight_deg(60.0), axis_from_boresight_deg(-60.0))
    beams = paa_codebook(array16, 16, sector)
    assert len(beams) == 16
    for i, beam in enumerate(beams):
        center_deg = -56.25 + 7.5 * i  # ascending boresight order
        expect = steer_weights(array16, axis_from_boresight_deg(center_deg))
        np.testing.assert_allclose(np.exp(1j * beam.phases_rad),
                                   np.exp(1j * expect.phases_rad), atol=1e-9)
        assert np.all(beam.delays_s == 0.0)


def test_paa_codebook_validation(array16):
    with pytest.raises(ValueError):
        paa_codebook(array16, 0, (0.5, 2.0))
    with pytest.raises(ValueError):
        paa_codebook(array16, 4, (2.0, 0.5))
    with pytest.raises(ValueError):
        paa_codebook(array16, 4, (-0.1, 2.0))
    assert len(paa_codebook(array16, 1024, (0.5, 2.0))) == 1024
    with pytest.raises(ValueError, match="^num_beams must lie in"):
        paa_codebook(array16, 1025, (0.5, 2.0))


# ---------------------------------------------------------------------------
# design_type2 (swept beam)
# ---------------------------------------------------------------------------

def test_rainbow_delay_ramp(array16, grid264):
    spec = RainbowSpec(center_rad=math.pi / 2.0,
                       spread_rad=math.radians(110.0))
    w = design_type2(array16, spec, grid264)
    step = math.sin(math.radians(55.0)) / 400e6
    np.testing.assert_allclose(w.delays_s, step * np.arange(16), rtol=1e-12)
    assert w.delays_s[15] == pytest.approx(30.7182016608e-9, rel=1e-9)
    assert w.delay_step_s == 0.0  # closed form stays unquantized
    # element 0 carries no delay and no phase
    assert w.delays_s[0] == 0.0
    assert w.phases_rad[0] == 0.0


def test_rainbow_zero_spread_degenerates_to_flat_steer(array16, grid264):
    center = axis_from_boresight_deg(12.0)
    w = design_type2(array16, RainbowSpec(center, 0.0), grid264)
    assert np.all(w.delays_s == 0.0)
    expect = steer_weights(array16, center)
    np.testing.assert_allclose(
        np.exp(1j * w.phases_rad), np.exp(1j * expect.phases_rad), atol=1e-9)


def test_rainbow_mid_band_points_at_center(array16, grid264):
    for center_deg in (-20.0, 0.0, 25.0):
        center = axis_from_boresight_deg(center_deg)
        w = design_type2(array16, RainbowSpec(center, math.radians(60.0)),
                         grid264)
        # the phase shifter compensates the delay phase at band center, so
        # the mid-band response steers at the requested center
        assert beam_gain_db(array16, w, center, 28e9) == pytest.approx(
            28.0, abs=1e-6)


def test_rainbow_spec_validation():
    with pytest.raises(ValueError):
        RainbowSpec(center_rad=1.0, spread_rad=-0.1)
    with pytest.raises(ValueError):
        RainbowSpec(center_rad=0.1, spread_rad=1.0)  # sweeps below 0
    with pytest.raises(ValueError):
        RainbowSpec(center_rad=math.pi, spread_rad=0.5)  # sweeps past pi


# ---------------------------------------------------------------------------
# design_type1 (subband-target fit)
# ---------------------------------------------------------------------------

def test_type1_two_target_reference(array16, grid264, delay25):
    target = _target(BORE_2UE, 264)
    w, obj = design_type1(array16, target, grid264, delay25)
    assert obj == pytest.approx(88.3597842910481, rel=1e-9)
    assert w.delays_s.max() == pytest.approx(2.5e-9, rel=1e-12)
    assert w.delay_step_s == 2.5e-9
    # every delay sits on the quantized grid
    steps = w.delays_s / 2.5e-9
    np.testing.assert_allclose(steps, np.round(steps), atol=1e-9)
    # the reported objective matches an independent evaluation
    assert type1_objective(array16, w, target, grid264) == pytest.approx(
        obj, rel=1e-12)


@st.composite
def _type1_targets(draw, max_rbs):
    """A grid of up to ``max_rbs`` RBs and a target of one to six subbands,
    each steered to its own axis angle."""
    num_rbs = draw(st.integers(1, max_rbs))
    cuts = draw(st.lists(st.integers(1, max(1, num_rbs - 1)),
                         max_size=min(5, num_rbs - 1), unique=True))
    bounds = [0] + sorted(cuts) + [num_rbs]
    angles = draw(st.lists(st.floats(0.0, math.pi), min_size=len(bounds) - 1,
                           max_size=len(bounds) - 1))
    target = Type1Target(tuple(zip(angles, zip(bounds[:-1], bounds[1:]))))
    return target, FrequencyGrid(28e9, 400e6, 120e3, num_rbs)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(problem=_type1_targets(40), data=st.data())
def test_type1_scan_objective_equals_type1_objective(problem, data):
    # the designer takes its objective from the delay scan; recomputed from
    # its own weights it must agree to 1e-12 relative, or to 1e-12 of the
    # K evaluation frequencies where a near-exact fit leaves only rounding
    target, grid = problem
    num_rbs = grid.num_rbs
    cfg = ArrayConfig.half_wavelength(data.draw(st.integers(1, 24)), 28e9,
                                      28.0)
    step_s = data.draw(st.floats(0.1, 5.0)) * 1e-9
    constraint = DelayConstraint(step_s,
                                 data.draw(st.integers(0, 63)) * step_s)
    per_subcarrier = data.draw(st.booleans())
    w, obj = design_type1(cfg, target, grid, constraint, per_subcarrier)
    cert = type1_objective(cfg, w, target, grid, per_subcarrier)
    num_freqs = num_rbs * (12 if per_subcarrier else 1)
    assert obj == pytest.approx(cert, rel=1e-12, abs=1e-12 * num_freqs)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(problem=_type1_targets(40), num_elements=st.integers(1, 16),
       fine_step_ns=st.floats(0.1, 5.0), ratio=st.integers(1, 8),
       coarse_steps=st.integers(0, 16), extra_steps=st.integers(0, 16),
       per_subcarrier=st.booleans())
def test_nested_delay_grid_never_raises_type1_objective(
        problem, num_elements, fine_step_ns, ratio, coarse_steps,
        extra_steps, per_subcarrier):
    # the per-antenna search is exact over its delay grid, so a grid that
    # holds every delay of a coarser one (coarse step a multiple of the fine
    # step, coarse max at most the fine max) cannot end with a larger
    # objective; j * (ratio * step) and (j * ratio) * step may differ in
    # the last bit, hence the 1e-12 relative slack
    target, grid = problem
    cfg = ArrayConfig.half_wavelength(num_elements, 28e9, 28.0)
    step = fine_step_ns * 1e-9
    coarse = DelayConstraint(ratio * step, coarse_steps * (ratio * step))
    fine = DelayConstraint(step, (ratio * coarse_steps + extra_steps) * step)
    assert coarse.num_steps == coarse_steps
    assert fine.num_steps == ratio * coarse_steps + extra_steps
    _, coarse_obj = design_type1(cfg, target, grid, coarse, per_subcarrier)
    _, fine_obj = design_type1(cfg, target, grid, fine, per_subcarrier)
    assert fine_obj <= coarse_obj * (1.0 + 1e-12)


def test_type1_single_angle_is_plain_steering(array16, grid264, delay25):
    angle = axis_from_boresight_deg(0.0)
    target = Type1Target.equal_shares([angle], 264)
    w, obj = design_type1(array16, target, grid264, delay25)
    # one frequency-flat direction needs no delays at boresight
    assert np.all(w.delays_s == 0.0)
    assert beam_gain_db(array16, w, angle, 28e9) == pytest.approx(28.0,
                                                                  abs=1e-6)
    assert obj < 1e-18


def test_type1_gain_covers_each_subband(array16, grid264, delay25):
    target = _target(BORE_4UE, 264)
    w, _ = design_type1(array16, target, grid264, delay25)
    for angle, (start, stop) in target.entries:
        gains = pattern_map(array16, w, np.array([angle]), grid264)[0]
        # in-band gain toward the owned direction stays within 8 dB of peak
        # (the known worst case is ~5.7 dB); out-of-band it collapses
        assert gains[start:stop].min() >= 28.0 - 8.0


def test_type1_per_subcarrier_close_to_rb_centers(array16, delay25):
    grid = FrequencyGrid(28e9, 400e6, 120e3, 24)
    target = _target(BORE_2UE, 24)
    w_rb, _ = design_type1(array16, target, grid, delay25, False)
    w_sc, _ = design_type1(array16, target, grid, delay25, True)
    # 12x denser evaluation may shift phases slightly, never the coarse shape
    np.testing.assert_allclose(w_sc.delays_s, w_rb.delays_s, atol=2.5e-9)


def test_type1_keeps_one_twiddle_table_per_mode(array16, delay25,
                                                monkeypatch):
    # a design from the kept table equals the one that built it, bit for
    # bit; equal but distinct constraints and grids hit one table, a new
    # delay grid or frequency grid builds another, the tables of both
    # evaluation modes stay resident, and the tables are read-only
    codebook._delay_twiddles.cache_clear()
    built = []
    build = _kernels.delay_twiddles

    def counted(taus, freqs):
        built.append((taus.size, freqs.size))
        return build(taus, freqs)

    monkeypatch.setattr(_kernels, "delay_twiddles", counted)
    short = DelayConstraint(2.5e-9, 20e-9)
    for num_rbs, constraint in ((24, delay25), (36, delay25), (36, short)):
        target = _target(BORE_2UE, num_rbs)
        for per_subcarrier in (False, True):
            w0, obj0 = design_type1(
                array16, target, FrequencyGrid(28e9, 400e6, 120e3, num_rbs),
                constraint, per_subcarrier)
            w1, obj1 = design_type1(
                array16, target, FrequencyGrid(28e9, 400e6, 120e3, num_rbs),
                DelayConstraint(constraint.step_s, constraint.max_delay_s),
                per_subcarrier)
            assert np.array_equal(w0.delays_s, w1.delays_s)
            assert np.array_equal(w0.phases_rad, w1.phases_rad)
            assert obj0 == obj1
    expected = [(64, 24), (64, 288), (64, 36), (64, 432), (9, 36), (9, 432)]
    assert built == expected
    grid = FrequencyGrid(28e9, 400e6, 120e3, 36)
    tables = [codebook._delay_twiddles(DelayConstraint(2.5e-9, 20e-9), grid,
                                       mode) for mode in (False, True)]
    assert built == expected
    assert [t.shape for t in tables] == [(9, 36), (9, 432)]
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0.0
    codebook._delay_twiddles.cache_clear()


def test_type1_empty_delay_grid_error(array16, grid264):
    # max below step still leaves the zero-delay grid point, so this works
    dc = DelayConstraint(2.5e-9, 0.0)
    target = _target(BORE_2UE, 264)
    w, _ = design_type1(array16, target, grid264, dc)
    assert np.all(w.delays_s == 0.0)


def test_type1_per_antenna_optimality_small_case():
    """Independent certificate on a small instance.

    The squared distance to the target separates per antenna, so for each
    antenna the designed (delay, phase) must beat every (grid delay, best
    phase for it) pair. The check below recomputes costs from the raw
    definition, without reusing the designer's internals.
    """
    cfg = ArrayConfig.half_wavelength(4, 28e9, 28.0)
    grid = FrequencyGrid(28e9, 400e6, 120e3, 12)
    dc = DelayConstraint(2.5e-9, 20e-9)
    target = _target((25.0, -40.0), 12)
    w, obj = design_type1(cfg, target, grid, dc)

    freqs = grid.rb_center_freqs()
    rb_angles = target.rb_angles(12)
    slopes = 2 * math.pi * cfg.spacing_m * freqs * np.cos(rb_angles) \
        / SPEED_OF_LIGHT_M_S

    def antenna_cost(m, tau, phi):
        resp = np.exp(1j * (phi + 2 * math.pi * freqs * tau))
        steer = np.exp(1j * slopes * m)
        return np.sum(np.abs(resp - steer) ** 2) / cfg.num_elements

    total = 0.0
    for m in range(cfg.num_elements):
        chosen = antenna_cost(m, w.delays_s[m], w.phases_rad[m])
        for tau in dc.grid():
            theta = slopes * m - 2 * math.pi * freqs * tau
            s = np.exp(1j * theta).sum()
            best_phi = math.atan2(s.imag, s.real)
            assert chosen <= antenna_cost(m, tau, best_phi) + 1e-9
        total += chosen
    assert total == pytest.approx(obj, rel=1e-9)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def test_codebook_csv_round_trip(tmp_path, array16, grid264, delay25):
    w, _ = design_type1(array16, _target(BORE_4UE, 264), grid264, delay25)
    path = tmp_path / "codebook.csv"
    export_codebook_csv(w, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(CODEBOOK_CSV_HEADER)
    assert len(lines) == 17
    back = import_codebook_csv(path)
    assert back.delay_step_s == 0.0  # the format carries no step metadata
    np.testing.assert_allclose(back.delays_s, w.delays_s, rtol=1e-5,
                               atol=1e-15)
    np.testing.assert_allclose(np.exp(1j * back.phases_rad),
                               np.exp(1j * w.phases_rad), atol=1e-5)


def test_codebook_csv_errors(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("a,b,c\n1,0,0\n")
    with pytest.raises(ValueError, match="header"):
        import_codebook_csv(bad_header)

    empty = tmp_path / "e.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        import_codebook_csv(empty)

    no_rows = tmp_path / "n.csv"
    no_rows.write_text("antenna,delay_ns,phase_deg\n")
    with pytest.raises(ValueError, match="no element rows"):
        import_codebook_csv(no_rows)

    bad_index = tmp_path / "i.csv"
    bad_index.write_text("antenna,delay_ns,phase_deg\n2,0,0\n")
    with pytest.raises(ValueError, match="antenna indices"):
        import_codebook_csv(bad_index)

    bad_width = tmp_path / "w.csv"
    bad_width.write_text("antenna,delay_ns,phase_deg\n1,0\n")
    with pytest.raises(ValueError, match="3 fields"):
        import_codebook_csv(bad_width)

    non_finite = tmp_path / "f.csv"
    non_finite.write_text("antenna,delay_ns,phase_deg\n1,0,0\n2,nan,0\n")
    with pytest.raises(ValueError, match="f.csv line 3: .*finite"):
        import_codebook_csv(non_finite)
