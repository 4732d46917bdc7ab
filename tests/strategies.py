"""Hypothesis strategies shared by the format round-trip properties."""

from hypothesis import strategies as st

from lexperm.circuit import FlipInstance


@st.composite
def small_circuits(draw, max_inputs: int = 3, max_gates: int = 5) -> FlipInstance:
    """A NAND circuit with at most ``max_inputs`` inputs and ``max_gates``
    gates; sources may repeat within a gate, inputs may feed no gate, and
    the outputs are distinct gates in any order."""
    n = draw(st.integers(1, max_inputs))
    gate_count = draw(st.integers(1, max_gates))
    gates = []
    for gid in range(1, gate_count + 1):
        pool = [("x", i) for i in range(1, n + 1)] + [("g", k) for k in range(1, gid)]
        gates.append((draw(st.sampled_from(pool)), draw(st.sampled_from(pool))))
    outputs = draw(st.lists(st.integers(1, gate_count), min_size=1, unique=True))
    return FlipInstance(n, tuple(gates), tuple(outputs))
