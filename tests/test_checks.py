import random

import numpy as np

from stacky_heights import checks


def test_all_suites_pass_and_seed_independent():
    for seed in (0, 99):
        results = checks.run_all(seed=seed, samples=150)
        assert [r.name for r in results] == list(checks.SUITES)
        assert all(r.ok for r in results), [r.line() for r in results if not r.ok]


def test_corrupted_power_free_part_fails_edd_suite(monkeypatch):
    # the tangential route reads power-free exponents; poisoning them must
    # be caught by the edd identity, which goes through valuations instead
    import sys

    import stacky_heights.football  # noqa: F401 - the submodule, not the helper

    fb = sys.modules["stacky_heights.football"]
    real = fb.power_free_exponents

    def poisoned(n, m):
        # the power-free part times 4 when |n| % 97 == 5; the root values
        # arrive as their FactoredInt factorizations
        exps = dict(real(n, m))
        if abs(int(n)) % 97 == 5:
            exps[2] = exps.get(2, 0) + 2
        return sorted(exps.items())

    monkeypatch.setattr(fb, "power_free_exponents", poisoned)
    res = checks.check_edd_tangential(random.Random(1), samples=400, coord_bound=10**4)
    assert not res.ok


def test_corrupted_phi_table_fails_sieve_suite(monkeypatch):
    real = checks.sieve_power_free_parts

    def poisoned(limit, m, **kw):
        table = np.array(real(limit, m, **kw))
        table[3::7] += 1
        return table

    monkeypatch.setattr(checks, "sieve_power_free_parts", poisoned)
    res = checks.check_phi_sieve(random.Random(1), samples=300)
    assert not res.ok
