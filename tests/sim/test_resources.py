"""Tests for Resource, the kernel's shared-resource primitive."""

import pytest

from repro.sim import Environment, Resource


def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    r1, r2, r3 = res.request(), res.request(), res.request()
    assert r1.triggered and r2.triggered and not r3.triggered
    assert res.count == 2


def test_resource_release_grants_next_waiter():
    env = Environment()
    res = Resource(env, capacity=1)
    r1 = res.request()
    r2 = res.request()
    assert not r2.triggered
    res.release(r1)
    assert r2.triggered


def test_resource_context_manager_releases():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []

    def user(tag, hold):
        with res.request() as req:
            yield req
            log.append(("got", tag, env.now))
            yield env.timeout(hold)
        log.append(("rel", tag, env.now))

    env.process(user("a", 3))
    env.process(user("b", 2))
    env.run()
    assert log == [
        ("got", "a", 0),
        ("rel", "a", 3),
        ("got", "b", 3),
        ("rel", "b", 5),
    ]


def test_resource_release_of_nonholder_rejected():
    env = Environment()
    res = Resource(env, capacity=1)
    res.request()
    stranger = Resource(env, capacity=1).request()
    with pytest.raises(RuntimeError):
        res.release(stranger)


def test_resource_cancel_queued_request():
    env = Environment()
    res = Resource(env, capacity=1)
    r1 = res.request()
    r2 = res.request()
    r2.cancel()
    res.release(r1)
    assert not r2.triggered
    assert res.count == 0


def test_resource_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_fifo_fairness():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def user(tag):
        with res.request() as req:
            yield req
            order.append(tag)
            yield env.timeout(1)

    for tag in range(5):
        env.process(user(tag))
    env.run()
    assert order == [0, 1, 2, 3, 4]
