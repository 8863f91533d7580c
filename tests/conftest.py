import pytest

from delaytree import cart

from helpers import alternating_chain_set


@pytest.fixture(scope="session")
def chain_tree():
    """A full-growth tree 2,999 splits deep (deeper than the default
    recursion limit), grown once and shared by the cart and report tests."""
    return cart.grow_tree(alternating_chain_set(), cart.TrainConfig(min_samples=1, min_gain=0.0))
