# ostrolint-fixture module: repro.core.fixture_ost005
"""OST005 fixture: resource arrays are only written by their owner."""


def leak(state, host: int, amount: float) -> None:
    state.free_cpu[host] -= amount  # expect: OST005


def grow(state) -> None:
    state.free_bw.append(0.0)  # expect: OST005


def rebind(state, fresh) -> None:
    state.free_cpu = fresh  # expect: OST005


def read_is_fine(state, host: int) -> float:
    return state.free_mem[host]
