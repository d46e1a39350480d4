"""Kernel families, mass integrals, and the hypothesis validator."""

import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

import flatdiff as fd
from flatdiff.kernels import HypothesisViolationError, interval_moments


def any_spec(family, s, amplitude):
    if family == "pure_fractional":
        return fd.pure_fractional(s, amplitude, j0=4.0, j1=2.0, r0=2.0)
    if family == "truncated_fractional":
        return fd.truncated_fractional(s, amplitude, 25.0, j0=4.0, j1=2.0, r0=2.0)
    return fd.compact_plus_tail(
        s, amplitude, near_profile="triangle", near_scale=0.8, j0=4.0, j1=2.0, r0=2.0
    )


FAMILIES = ["pure_fractional", "truncated_fractional", "compact_plus_tail"]


# -- evaluation ------------------------------------------------------------


def test_eval_pure_fractional_example(unit_spec):
    assert fd.eval_kernel(unit_spec, 2.0) == pytest.approx(0.25, rel=1e-14)
    assert fd.eval_kernel(unit_spec, -2.0) == pytest.approx(0.25, rel=1e-14)


def test_eval_truncated_beyond_cutoff():
    spec = fd.truncated_fractional(0.5, 1.0, 10.0, j0=1.0, j1=1.0, r0=2.0)
    assert fd.eval_kernel(spec, 20.0) == 0.0
    assert fd.eval_kernel(spec, 9.9) == pytest.approx(9.9**-2, rel=1e-14)


def test_eval_compact_profiles():
    flat = fd.compact_plus_tail(0.5, 1.0, near_profile="flat", near_scale=0.7, j0=1.0, j1=1.0, r0=2.0)
    tri = fd.compact_plus_tail(0.5, 1.0, near_profile="triangle", near_scale=0.7, j0=1.0, j1=1.0, r0=2.0)
    assert fd.eval_kernel(flat, 0.5) == pytest.approx(0.7)
    assert fd.eval_kernel(tri, 0.5) == pytest.approx(0.35)
    assert fd.eval_kernel(flat, 3.0) == pytest.approx(3.0**-2, rel=1e-14)


def test_eval_rejects_origin(unit_spec):
    with pytest.raises(ValueError):
        fd.eval_kernel(unit_spec, 0.0)
    with pytest.raises(ValueError):
        fd.eval_kernel(unit_spec, np.array([1.0, 0.0, 2.0]))


SCALAR_SPECS = {
    "pure": fd.pure_fractional(0.75, 1.3, j0=4.0, j1=2.0, r0=2.0),
    "truncated": fd.truncated_fractional(0.75, 1.0, 30.0, j0=1.0, j1=1.0, r0=2.0),
    "flat": fd.compact_plus_tail(
        1.0, 1.0, near_profile="flat", near_scale=0.7, j0=1.0, j1=1.0, r0=2.0
    ),
    "triangle": fd.compact_plus_tail(
        0.5, 1.0, near_profile="triangle", near_scale=0.8, j0=4.0, j1=2.0, r0=2.0
    ),
}


@pytest.mark.parametrize("name", sorted(SCALAR_SPECS))
def test_scalar_input_gives_the_array_bits(name):
    spec = SCALAR_SPECS[name]
    jumps = [1.0] + ([spec.cutoff] if spec.cutoff is not None else [])
    radii = np.concatenate(
        [
            np.logspace(-300, 300, 1201),
            np.geomspace(1e-3, 1e3, 2000),
            [np.nextafter(r, side) for r in jumps for side in (0.0, np.inf)],
            jumps,
        ]
    )
    zs = np.concatenate([radii, -radii])
    with np.errstate(over="ignore"):
        whole = fd.eval_kernel(spec, zs)
        for z, bulk in zip(zs.tolist(), whole):
            scalar = fd.eval_kernel(spec, z)
            assert type(scalar) is float
            assert scalar == fd.eval_kernel(spec, np.array([z]))[0] == bulk
            assert fd.eval_kernel(spec, np.float64(z)) == scalar
    for zero in (0.0, -0.0):
        with pytest.raises(ValueError):
            fd.eval_kernel(spec, zero)
        with pytest.raises(ValueError):
            fd.eval_kernel(spec, np.array([zero]))


def test_scalar_input_overflows_like_numpy():
    spec = SCALAR_SPECS["pure"]
    for z in (1e-300, np.array([1e-300])):
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert fd.eval_kernel(spec, z) == math.inf
    assert fd.eval_kernel(spec, 1e300) == 0.0
    assert fd.eval_kernel(spec, np.array([1e300]))[0] == 0.0
    # compact_plus_tail's power law applies only at r > 1: no overflow below
    zs = np.array([1e-300, 0.5, 2.0])
    for name in ("flat", "triangle"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = fd.eval_kernel(SCALAR_SPECS[name], zs)
        floats = [fd.eval_kernel(SCALAR_SPECS[name], float(z)) for z in zs]
        assert np.array_equal(values, floats)


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    s=st.floats(min_value=0.2, max_value=1.2),
    amplitude=st.floats(min_value=0.1, max_value=3.0),
    z=st.floats(min_value=1e-3, max_value=1e3),
)
def test_symmetry_property(family, s, amplitude, z):
    spec = any_spec(family, s, amplitude)
    assert fd.eval_kernel(spec, z) == fd.eval_kernel(spec, -z)


# -- mass integrals --------------------------------------------------------


def test_tail_mass_examples(unit_spec):
    # two-sided tail mass int_{|z| >= R} J = 2 * exterior mass, A / (s R^2s) here
    assert 2.0 * fd.exterior_mass(unit_spec, 1.0) == pytest.approx(2.0, rel=1e-12)
    assert 2.0 * fd.exterior_mass(unit_spec, 16.0) == pytest.approx(0.125, rel=1e-12)


def test_tail_mass_compact_example_vs_brute_quadrature():
    spec = fd.compact_plus_tail(
        1.0, 0.5, near_profile="flat", near_scale=0.4, j0=2.0, j1=1.0, r0=1.5
    )
    # independent route: map (R, inf) to (0, 1/R] and integrate directly
    brute, _ = integrate.quad(
        lambda v: fd.eval_kernel(spec, 1.0 / v) / v**2, 0.0, 0.5, limit=200
    )
    assert 2.0 * fd.exterior_mass(spec, 2.0) == pytest.approx(2.0 * brute, rel=1e-9)


def test_cell_weight_example(unit_spec):
    # cell of width 0.1 around z = 1
    val = fd.interval_mass(unit_spec, 0.95, 1.05)
    assert val == pytest.approx(1.0 / 0.95 - 1.0 / 1.05, rel=1e-13)


@pytest.mark.parametrize("s", [0.5, 0.75, 1.0])
@pytest.mark.parametrize("family", FAMILIES)
def test_scalar_interval_mass_is_a_float_with_the_array_bits(family, s):
    # a scalar call runs on numpy scalars, an array call on arrays; the
    # intervals cross the near-profile edge at 1 and the cutoff at 25
    spec = any_spec(family, s, 1.3)
    lo = np.array([0.05, 0.5, 0.95, 1.0, 3.0, 24.0, 30.0, 1e3])
    hi = np.array([0.3, 2.0, 1.05, np.inf, 3.0 + 1e-9, 26.0, np.inf, 1e6])
    whole = fd.interval_mass(spec, lo, hi)
    for i in range(lo.size):
        one = fd.interval_mass(spec, float(lo[i]), float(hi[i]))
        assert type(one) is float
        assert one == whole[i]
    outer = fd.exterior_mass(spec, 3.0)
    assert type(outer) is float
    assert outer == fd.interval_mass(spec, np.array([3.0]), np.array([np.inf]))[0]


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    s=st.floats(min_value=0.2, max_value=1.2),
    lo=st.floats(min_value=0.05, max_value=40.0),
    width=st.floats(min_value=0.01, max_value=60.0),
)
def test_exterior_mass_splits_at_any_point(family, s, lo, width):
    spec = any_spec(family, s, 1.0)
    hi = lo + width
    total = fd.exterior_mass(spec, lo)
    split = fd.interval_mass(spec, lo, hi) + fd.exterior_mass(spec, hi)
    assert total == pytest.approx(split, rel=1e-10, abs=1e-14)


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    s=st.floats(min_value=0.2, max_value=1.2),
    lo=st.floats(min_value=0.05, max_value=40.0),
    width=st.floats(min_value=0.01, max_value=60.0),
    split=st.floats(min_value=0.0, max_value=1.0),
)
def test_interval_moments_split_at_any_point(family, s, lo, width, split):
    spec = any_spec(family, s, 1.0)
    hi, mid = lo + width, lo + split * width
    whole = interval_moments(spec, np.array([lo]), np.array([hi]))
    parts = interval_moments(spec, np.array([lo, mid]), np.array([mid, hi]))
    for total, pieces in zip(whole, parts):
        assert total[0] == pytest.approx(pieces.sum(), rel=1e-12, abs=0.0)


@settings(max_examples=30, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    r1=st.floats(min_value=1.0, max_value=99.0),
    r2=st.floats(min_value=1.0, max_value=99.0),
)
def test_tail_mass_ordering(family, r1, r2):
    spec = any_spec(family, 0.6, 1.0)
    lo, hi = min(r1, r2), max(r1, r2)
    assert 2.0 * fd.exterior_mass(spec, lo) >= 2.0 * fd.exterior_mass(spec, hi) - 1e-15


def test_near_second_moment_examples():
    assert fd.restricted_second_moment(
        fd.pure_fractional(0.5, 1.0, j0=1.0, j1=1.0, r0=2.0), 1.0
    ) == pytest.approx(2.0, rel=1e-12)
    assert fd.restricted_second_moment(
        fd.pure_fractional(0.25, 1.0, j0=1.0, j1=1.0, r0=2.0), 1.0
    ) == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_near_second_moment_compact_vs_brute_quadrature():
    spec = fd.compact_plus_tail(
        0.75, 1.3, near_profile="triangle", near_scale=0.9, j0=2.0, j1=1.0, r0=1.5
    )
    brute, _ = integrate.quad(
        lambda z: z * z * fd.eval_kernel(spec, z), 0.0, 1.0, limit=200
    )
    assert fd.restricted_second_moment(spec, 1.0) == pytest.approx(2.0 * brute, rel=1e-9)


def moment_specs():
    for s in (0.25, 0.5, 0.75):
        yield fd.pure_fractional(s, 1.3, j0=4.0, j1=2.0, r0=2.0)
        yield fd.truncated_fractional(s, 0.9, 3.0, j0=4.0, j1=2.0, r0=2.0)
    for s in (0.5, 1.0, 1.5):
        for profile in ("flat", "triangle"):
            yield fd.compact_plus_tail(
                s, 1.1, near_profile=profile, near_scale=0.7, j0=4.0, j1=2.0, r0=2.0
            )
    # near s = 1, A (r^q - 1) / q with q = 2 - 2s keeps only a few digits of
    # r^q - 1
    for gap in (1e-7, 1e-10):
        spec = fd.compact_plus_tail(
            1.0 - gap, 1.1, near_profile="flat", near_scale=0.7, j0=4.0, j1=2.0, r0=2.0
        )
        yield pytest.param(spec, id=f"compact_plus_tail(s=1-{gap:g}, A=1.1, near=flat:0.7)")


@pytest.mark.parametrize("spec", list(moment_specs()), ids=lambda spec: spec.describe())
def test_two_closed_forms_of_the_second_moment_agree(spec):
    # restricted_second_moment and the hat-weight moments are independent
    # closed forms of int z^2 J; radii on both sides of 1 and of the cutoff 3
    for r in (0.3, 0.999, 1.0, 1.7, 3.0, 5.0, 40.0):
        whole = fd.restricted_second_moment(spec, r)
        (half,), _ = interval_moments(spec, np.array([0.0]), np.array([r]))
        assert whole == pytest.approx(2.0 * half, rel=1e-14, abs=0.0)


def test_interval_mass_keeps_its_digits_on_a_narrow_interval():
    # lo^(-2s) - hi^(-2s) would cancel all but 7 digits here; the reference
    # is the same integral in 40-digit arithmetic on the same float ends
    spec = fd.pure_fractional(0.75, 1.0, j0=1.0, j1=1.0, r0=2.0)
    lo, hi = 5.0, 5.0 + 1e-9
    with mpmath.workdps(40):
        exact = (mpmath.mpf(lo) ** -1.5 - mpmath.mpf(hi) ** -1.5) / 1.5
    assert fd.interval_mass(spec, lo, hi) == pytest.approx(float(exact), rel=1e-14, abs=0.0)


def exact_moments(spec, lo, hi):
    """``int_lo^hi z^p J(z) dz`` for ``p = 2, 3`` in 40-digit arithmetic on the
    same float ends, for ``[lo, hi]`` within one piece of ``J``."""
    with mpmath.workdps(40):
        lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)

        def power(m, scale):
            # int_lo^hi scale z^(m-1) dz
            return scale * (hi**m - lo**m) / m

        if hi <= spec.tail_support[0]:
            ns, slope = mpmath.mpf(spec.near_scale), mpmath.mpf(spec.near_slope)
            moments = [power(p + 1, ns) - power(p + 2, ns * slope) for p in (2, 3)]
        else:
            a, s = mpmath.mpf(spec.amplitude), mpmath.mpf(spec.s)
            moments = [power(p - 2 * s, a) for p in (2, 3)]
        return [float(m) for m in moments]


SHORT_INTERVALS = [
    ("pure", 4000.0, 4000.05, 1e-14),
    ("pure", 1000.0, 1000.05, 1e-14),
    ("pure", 4000.0, 4000.0 + 1e-6, 1e-14),
    ("flat", 0.5, 0.5 + 1e-6, 1e-14),
    ("triangle", 0.5, 0.5 + 1e-6, 1e-14),
    # the profile's zero at z = 1: int z^p (1 - z) dz is about 2e4 times
    # smaller than the two moments it is the difference of, and keeps their
    # rounding scaled by as much (3.2e-12 for p = 3)
    ("triangle", 0.9999, 1.0, 1e-11),
]


@pytest.mark.parametrize(
    "name, lo, hi, bound", SHORT_INTERVALS, ids=[f"{c[0]}-{c[1]}-{c[2]}" for c in SHORT_INTERVALS]
)
def test_interval_moments_keep_their_digits_on_short_intervals(name, lo, hi, bound):
    # a quotient lo/hi or a difference hi^q - lo^q would cancel digits here:
    # 2e-7 on [4000, 4000 + 1e-6]
    spec = SCALAR_SPECS[name]
    moments = interval_moments(spec, np.array([lo]), np.array([hi]))
    for got, exact in zip(moments, exact_moments(spec, lo, hi)):
        assert got[0] == pytest.approx(exact, rel=bound, abs=0.0)


def test_near_moment_divergence_for_strong_singularity():
    spec = fd.pure_fractional(1.0, 1.0, j0=1.0, j1=1.0, r0=2.0)
    with pytest.raises(HypothesisViolationError):
        fd.restricted_second_moment(spec, 1.0)


# -- hypothesis validator ---------------------------------------------------


def test_validator_tight_constants_pass(unit_spec, unit_cert):
    # equality in the upper envelope and near moment exactly 2 J1
    assert unit_cert.verified
    assert unit_cert.upper_margin == pytest.approx(0.0, abs=1e-15)
    assert unit_cert.lower_margin == pytest.approx(0.0, abs=1e-15)
    assert unit_cert.near_moment == pytest.approx(2.0, rel=1e-12)


def test_validator_rejects_loose_upper_constant():
    spec = fd.pure_fractional(0.5, 1.0, j0=0.5, j1=1.0, r0=2.0)
    cert = fd.validate_hypothesis(spec)
    assert not cert.verified
    assert cert.upper_margin < 0


def test_verified_follows_the_margins(unit_cert):
    assert unit_cert.verified is True
    assert unit_cert.spec == fd.pure_fractional(0.5, 1.0, j0=1.0, j1=1.0, r0=2.0)
    for field in ("upper_margin", "lower_margin"):
        assert dataclasses.replace(unit_cert, **{field: -1e-3}).verified is False
    # the unit kernel declares J1 = 1, so the moment bound is 2
    assert dataclasses.replace(unit_cert, near_moment=2.0 + 1e-9).verified is False


def test_validator_cauchy_normalized(cauchy_cert):
    assert cauchy_cert.verified


def test_validator_flags_truncated_tail():
    # hard cutoff kills the lower envelope beyond the cutoff radius
    spec = fd.truncated_fractional(0.75, 1.0, 30.0, j0=1.0, j1=1.0, r0=2.0)
    cert = fd.validate_hypothesis(spec)
    assert not cert.verified
    assert cert.lower_margin < 0
    assert cert.upper_margin >= 0


@pytest.mark.parametrize("cutoff", [150.0, 201.0, 1000.0, 1e9])
def test_validator_refuses_every_finite_tail_support(cutoff):
    # J = 0 beyond the cutoff, so the lower envelope fails however far out
    # the cutoff lies; only the envelope fails, the near moment 4 <= 2 J1
    spec = fd.truncated_fractional(0.75, 1.0, cutoff, j0=1.0, j1=3.0, r0=2.0)
    cert = fd.validate_hypothesis(spec)
    assert cert.verified is False
    assert cert.lower_margin == -1.0 / spec.declared_j0
    assert cert.upper_margin == 0.0
    assert cert.near_moment <= 2.0 * spec.declared_j1


@pytest.mark.parametrize("cutoff", [0.5, 1.0])
def test_validator_upper_margin_of_a_tail_cut_by_one(cutoff):
    # J = 0 on all of |z| > 1: the upper slack is J0 everywhere
    spec = fd.truncated_fractional(0.75, 1.0, cutoff, j0=1.0, j1=3.0, r0=2.0)
    cert = fd.validate_hypothesis(spec)
    assert cert.upper_margin == spec.declared_j0
    assert cert.lower_margin == -1.0 / spec.declared_j0
    assert cert.verified is False


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    s=st.floats(min_value=0.05, max_value=1.95),
    amplitude=st.floats(min_value=0.0, max_value=4.0),
    j0=st.floats(min_value=0.25, max_value=4.0),
    r0=st.floats(min_value=1.0, max_value=1e3, exclude_min=True),
    cutoff=st.floats(min_value=0.5, max_value=1e9),
)
def test_closed_form_margins_match_a_dense_sample(family, s, amplitude, j0, r0, cutoff):
    # a second route: the envelope slacks in units of |z|^(-1-2s), sampled
    # through eval_kernel on a log grid past R0 and past the cutoff
    spec = fd.KernelSpec(
        family, s, amplitude, j0, 1.0, r0,
        cutoff=cutoff if family == "truncated_fractional" else None,
        near_profile="flat" if family == "compact_plus_tail" else None,
    )
    cert = fd.validate_hypothesis(spec)
    hi = spec.tail_support[1]
    far = 10.0 * max(r0, hi if hi < math.inf else 0.0)
    radii = np.geomspace(np.nextafter(1.0, 2.0), far, 2000)
    radii = np.append(radii, [r0] + ([np.nextafter(hi, np.inf)] if hi < math.inf else []))
    radii = radii[radii > 1.0]
    scaled = radii ** (1.0 + 2.0 * s) * fd.eval_kernel(spec, radii)
    upper = np.min(j0 - scaled)
    lower = np.min(scaled[radii >= r0] - 1.0 / j0)
    roundoff = 1e-12 * (j0 + amplitude + 1.0 / j0)
    # the closed form bounds the sampled slack and is attained on the grid
    assert upper == pytest.approx(cert.upper_margin, abs=roundoff)
    assert lower == pytest.approx(cert.lower_margin, abs=roundoff)
    if hi < math.inf:
        assert (upper >= 0.0 and lower >= 0.0) == (
            cert.upper_margin >= 0.0 and cert.lower_margin >= 0.0
        )


@settings(max_examples=20, deadline=None)
@given(r=st.floats(min_value=2.0, max_value=1e4))
def test_certified_tail_mass_envelope(r):
    # integrating the pointwise envelope: J0^-1/(s R^2s) <= tail <= J0/(s R^2s)
    spec = fd.pure_fractional(0.5, 1.0 / math.pi, j0=math.pi, j1=1.0, r0=2.0)
    tm = 2.0 * fd.exterior_mass(spec, r)
    s, j0 = spec.s, spec.declared_j0
    assert tm <= j0 / (s * r ** (2 * s)) * (1 + 1e-12)
    assert tm >= 1.0 / (j0 * s * r ** (2 * s)) * (1 - 1e-12)


def test_shape_is_data_on_the_spec():
    shapes = {
        name: (spec.tail_support, spec.near_slope) for name, spec in SCALAR_SPECS.items()
    }
    assert shapes == {
        "pure": ((0.0, math.inf), None),
        "truncated": ((0.0, 30.0), None),
        "flat": ((1.0, math.inf), 0.0),
        "triangle": ((1.0, math.inf), 1.0),
    }


FOREIGN_FIELDS = [
    ("pure_fractional", {"cutoff": 5.0}),
    ("pure_fractional", {"near_profile": "triangle"}),
    ("pure_fractional", {"near_scale": 0.5}),
    ("truncated_fractional", {"cutoff": 5.0, "near_profile": "flat"}),
    ("compact_plus_tail", {"near_profile": "flat", "cutoff": 5.0}),
]


@pytest.mark.parametrize(
    "family, fields", FOREIGN_FIELDS, ids=[f"{f}+{'+'.join(x)}" for f, x in FOREIGN_FIELDS]
)
def test_spec_rejects_a_field_of_another_family(family, fields):
    # a cutoff on a pure kernel used to show in describe() while every
    # closed form ignored it
    with pytest.raises(ValueError, match="takes no"):
        fd.KernelSpec(family, 0.5, 1.0, 1.0, 1.0, 2.0, **fields)


SPEC_FIELDS = {
    "s": ("pure_fractional", "order s"),
    "amplitude": ("pure_fractional", "amplitude must be nonnegative"),
    "declared_j0": ("pure_fractional", "declared_j0"),
    "declared_j1": ("pure_fractional", "declared_j1"),
    "declared_r0": ("pure_fractional", "declared_r0"),
    "cutoff": ("truncated_fractional", "cutoff"),
    "near_scale": ("compact_plus_tail", "near_scale must be nonnegative"),
}


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", list(SPEC_FIELDS))
def test_spec_refuses_a_non_finite_field_naming_it(name, value):
    # a cutoff of inf used to pass validation and discretize as a pure
    # kernel, while describe() said cutoff=inf
    family, message = SPEC_FIELDS[name]
    fields = dict(family=family, s=0.5, amplitude=1.0, declared_j0=1.0, declared_j1=1.0,
                  declared_r0=2.0)
    if family == "truncated_fractional":
        fields["cutoff"] = 5.0
    if family == "compact_plus_tail":
        fields["near_profile"] = "flat"
    fields[name] = value
    with pytest.raises(ValueError, match=message):
        fd.KernelSpec(**fields)


def test_spec_validation_errors():
    with pytest.raises(ValueError):
        fd.pure_fractional(0.0, 1.0, j0=1.0, j1=1.0, r0=2.0)
    with pytest.raises(ValueError):
        fd.pure_fractional(0.5, 1.0, j0=-1.0, j1=1.0, r0=2.0)
    with pytest.raises(ValueError):
        fd.pure_fractional(0.5, 1.0, j0=1.0, j1=1.0, r0=1.0)
    with pytest.raises(ValueError):
        fd.truncated_fractional(0.5, 1.0, -3.0, j0=1.0, j1=1.0, r0=2.0)
    with pytest.raises(ValueError):
        fd.compact_plus_tail(
            0.5, 1.0, near_profile="spike", near_scale=1.0, j0=1.0, j1=1.0, r0=2.0
        )
    # NaN compares false with 0 either way, so it must fail a `>= 0` test
    with pytest.raises(ValueError, match="amplitude must be nonnegative"):
        fd.pure_fractional(0.5, float("nan"), j0=1.0, j1=1.0, r0=2.0)
    with pytest.raises(ValueError, match="scale must be nonnegative"):
        fd.compact_plus_tail(
            0.5, 1.0, near_profile="flat", near_scale=float("nan"),
            j0=1.0, j1=1.0, r0=2.0,
        )
