"""Shared pytest configuration: coroutine tests run without a plugin.

``tests/test_aio.py`` exercises the asyncio front door with native
``async def`` tests marked ``@pytest.mark.asyncio``.  The hook below runs
each coroutine test through ``asyncio.run``, so the suite's dev
dependencies are ``pytest`` and ``hypothesis`` only.
"""

import asyncio
import inspect

import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "asyncio: run the coroutine test on an event loop"
    )


@pytest.hookimpl(tryfirst=True)
def pytest_pyfunc_call(pyfuncitem):
    test_fn = pyfuncitem.obj
    if not inspect.iscoroutinefunction(test_fn):
        return None
    kwargs = {
        name: pyfuncitem.funcargs[name]
        for name in pyfuncitem._fixtureinfo.argnames
    }
    asyncio.run(test_fn(**kwargs))
    return True
