"""The gateway's one execution substrate: Globus/GRAM (:mod:`.gram`).

The paper's daemon drives four CTSS clusters through one middleware
stack, so there is nothing to route between and no registry.  This is
still a package, and the two lookups below still exist, only because
the benchmark's tracer (``benchmarks/gateway/tracing.py``) imports
``backend_names``/``get_backend`` to time the layer under
:class:`~repro.grid.clients.GridClients`; folding the eight GRAM
methods back into the clients waits for that tracer to go (ROADMAP
item 4g).
"""

from .gram import GRAM_BACKEND, GramBackend

__all__ = ["GRAM_BACKEND", "GramBackend", "backend_names", "get_backend"]


def backend_names():
    return [GRAM_BACKEND.name]


def get_backend(name):
    if name != GRAM_BACKEND.name:
        raise KeyError(f"no execution backend named {name!r} "
                       f"(the only one is {GRAM_BACKEND.name!r})")
    return GRAM_BACKEND
