"""Shared fixtures: the expensive LP-backed curve for the private-budget
instance is built once per session and reused across test modules."""

import numpy as np
import pytest

import anonpricing as ap
from anonpricing import ex_ante_curve_oracle
from helpers import with_bisection_inverse


@pytest.fixture(scope="session")
def uniform_agent():
    return ap.Agent(model="linear", values=ap.Distribution.uniform(0, 1), id="u1")


@pytest.fixture(scope="session")
def uniform_posting_curve(uniform_agent):
    return ap.price_posting_curve(ap.offer_curve(uniform_agent))


@pytest.fixture(scope="session")
def private_uu_agent():
    return ap.Agent(
        model="private-budget",
        values=ap.Distribution.uniform(0, 1),
        budgets=ap.Distribution.uniform(0, 1),
        id="pr",
    )


@pytest.fixture(scope="session")
def private_uu_posting_curve(private_uu_agent):
    return ap.price_posting_curve(with_bisection_inverse(ap.offer_curve(private_uu_agent)), grid=2048)


@pytest.fixture(scope="session")
def private_uu_rbar():
    return ex_ante_curve_oracle(
        ap.discretize(ap.Distribution.uniform(0, 1), 60), ap.discretize(ap.Distribution.uniform(0, 1), 20)
    )
