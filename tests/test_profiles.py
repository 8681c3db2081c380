import itertools

import pytest

import corrbound as cb
from corrbound.errors import ConfigError
from corrbound.profiles import MAX_LAG
from reference_steps import CaseTag, effective_lags, select_case


def test_effective_lags_examples():
    assert effective_lags(cb.CorrelationProfile(1, 1, 2, 1)) == (1, 2)
    assert effective_lags(cb.CorrelationProfile(0, 0, 0, 0)) == (1, 1)
    assert effective_lags(cb.CorrelationProfile(0, 2, 0, 0)) == (2, 1)


def test_select_case_examples():
    assert select_case(cb.CorrelationProfile(1, 1, 2, 1)) is CaseTag.EQUAL
    assert select_case(cb.CorrelationProfile(0, 2, 0, 0)) is CaseTag.LESS
    assert select_case(cb.CorrelationProfile(0, 0, 4, 0)) is CaseTag.GREATER


def test_case_assignment_is_a_partition():
    # Exhaustive over all lag combinations up to the supported maximum.
    for l1, l2, l3, l4 in itertools.product(range(MAX_LAG + 1), repeat=4):
        p = cb.CorrelationProfile(l1, l2, l3, l4)
        l2e, l3e = effective_lags(p)
        conditions = [l3e > l2e + 1, l3e < l2e + 1, l3e == l2e + 1]
        assert sum(conditions) == 1
        expected = [CaseTag.GREATER, CaseTag.LESS, CaseTag.EQUAL][
            conditions.index(True)
        ]
        assert select_case(p) is expected
        assert l2e >= 1 and l3e >= 1
        assert p.window == max(l2e, l3e - 1)


def test_lag_validation():
    with pytest.raises(ConfigError):
        cb.CorrelationProfile(-1, 0, 0, 0)
    with pytest.raises(ConfigError):
        cb.CorrelationProfile(0, MAX_LAG + 1, 0, 0)
    with pytest.raises(ConfigError):
        cb.CorrelationProfile(0, 0, 1.5, 0)  # type: ignore[arg-type]


def test_degenerate_process_lag_is_equivalent():
    # l2=0 and l2=1 share the effective lag, hence the whole derived geometry.
    a = cb.CorrelationProfile(0, 0, 0, 0)
    b = cb.CorrelationProfile(0, 1, 0, 0)
    assert a.l2_eff == b.l2_eff
    assert select_case(a) is select_case(b)
    assert a.window == b.window


def test_required_prior_window():
    assert cb.required_prior_window(cb.CorrelationProfile()) == 1
    assert cb.required_prior_window(cb.CorrelationProfile(1, 1, 2, 1)) == 3
    assert cb.required_prior_window(cb.CorrelationProfile(0, 2, 0, 0)) == 3
    assert cb.required_prior_window(cb.CorrelationProfile(0, 0, 3, 0)) == 4
    assert cb.required_prior_window(cb.CorrelationProfile(3, 0, 0, 0)) == 4
