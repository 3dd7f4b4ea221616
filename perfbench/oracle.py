"""Output oracle that shares no code with ``repro``.

A small BLIF reader and sum-of-products evaluator: each signal's value
on ``n`` input vectors (all of them for up to 16 inputs, else seeded
random ones) is one Python integer used as an ``n``-bit vector.
:func:`check_one_sided` then checks the paper's guarantee for every
primary output of a checker: a 1-approximation ``G`` of ``F``
satisfies ``G => F`` and a 0-approximation satisfies ``not G => not
F`` (``F => G``) on every vector.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass
class Block:
    """One ``.names`` block: fanins, output and its SOP rows."""

    fanins: list[str]
    output: str
    rows: list[tuple[str, str]] = field(default_factory=list)


@dataclass
class Circuit:
    name: str
    inputs: list[str]
    outputs: list[str]
    blocks: list[Block]


def read_circuit(text: str) -> Circuit:
    """Parse the BLIF subset ``repro`` writes (no latches, no subckts)."""
    name, inputs, outputs, blocks = "top", [], [], []
    current = None
    pending = ""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if line.endswith("\\"):
            pending += line[:-1] + " "
            continue
        line, pending = (pending + line).strip(), ""
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == ".model":
            name = tokens[1] if len(tokens) > 1 else name
        elif tokens[0] == ".inputs":
            inputs.extend(tokens[1:])
        elif tokens[0] == ".outputs":
            outputs.extend(tokens[1:])
        elif tokens[0] == ".names":
            current = Block(tokens[1:-1], tokens[-1])
            blocks.append(current)
        elif tokens[0] == ".end":
            break
        elif tokens[0].startswith("."):
            raise ValueError(f"unsupported BLIF construct {tokens[0]}")
        else:
            if current is None:
                raise ValueError(f"SOP row outside .names: {line!r}")
            if current.fanins:
                current.rows.append((tokens[0], tokens[1]))
            else:
                current.rows.append(("", tokens[0]))
    return Circuit(name, inputs, outputs, blocks)


def write_circuit(circuit: Circuit) -> str:
    lines = [f".model {circuit.name}",
             ".inputs " + " ".join(circuit.inputs),
             ".outputs " + " ".join(circuit.outputs)]
    for block in circuit.blocks:
        lines.append(".names " + " ".join(block.fanins + [block.output]))
        for pattern, value in block.rows:
            lines.append(f"{pattern} {value}" if pattern else value)
    lines.append(".end")
    return "\n".join(lines) + "\n"


#: Circuits with at most this many inputs are checked exhaustively.
EXHAUSTIVE_MAX_INPUTS = 16


def random_vectors(inputs: list[str], n_bits: int, seed: int
                   ) -> dict[str, int]:
    rng = random.Random(f"oracle/{seed}")
    return {pi: rng.getrandbits(n_bits) for pi in inputs}


def exhaustive_vectors(inputs: list[str]) -> dict[str, int]:
    """Every input combination: bit ``j`` of input ``i`` is bit ``i`` of
    ``j``."""
    n_bits = 1 << len(inputs)
    out = {}
    for i, pi in enumerate(inputs):
        width = 1 << (i + 1)
        value = ((1 << (1 << i)) - 1) << (1 << i)   # one period
        while width < n_bits:
            value |= value << width
            width *= 2
        out[pi] = value
    return out


def input_vectors(inputs: list[str], n_bits: int, seed: int
                  ) -> tuple[dict[str, int], int]:
    """Exhaustive vectors for small circuits, seeded random otherwise."""
    if len(inputs) <= EXHAUSTIVE_MAX_INPUTS:
        return exhaustive_vectors(inputs), 1 << len(inputs)
    return random_vectors(inputs, n_bits, seed), n_bits


def evaluate(circuit: Circuit, vectors: dict[str, int], n_bits: int
             ) -> dict[str, int]:
    """Value of every signal on the vectors (bit ``i`` = vector ``i``)."""
    full = (1 << n_bits) - 1
    values = dict(vectors)
    by_output = {b.output: b for b in circuit.blocks}
    state: dict[str, int] = {}                    # 1 = visiting

    def value_of(signal: str) -> int:
        if signal in values:
            return values[signal]
        if signal not in by_output:
            raise ValueError(f"signal {signal!r} is never defined")
        stack = [signal]
        while stack:
            top = stack[-1]
            if top in values:
                stack.pop()
                continue
            block = by_output[top]
            todo = [f for f in block.fanins if f not in values]
            if todo:
                if state.get(top):
                    raise ValueError(f"combinational cycle at {top!r}")
                state[top] = 1
                for fanin in todo:
                    if fanin not in by_output:
                        raise ValueError(f"undefined fanin {fanin!r}")
                    stack.append(fanin)
                continue
            values[top] = _eval_block(block, values, full)
            stack.pop()
        return values[signal]

    for po in circuit.outputs:
        value_of(po)
    return values


def _eval_block(block: Block, values: dict[str, int], full: int) -> int:
    if not block.rows:
        return 0
    onset = block.rows[0][1] == "1"
    if not block.fanins:
        return full if onset else 0
    acc = 0
    for pattern, _ in block.rows:
        cube = full
        for fanin, char in zip(block.fanins, pattern):
            if char == "1":
                cube &= values[fanin]
            elif char == "0":
                cube &= ~values[fanin] & full
        acc |= cube
    return acc if onset else ~acc & full


def check_one_sided(original_blif: str, approx_blif: str,
                    directions: dict[str, int], *, n_bits: int = 2048,
                    seed: int = 0) -> list[str]:
    """Problems with the checker ``approx_blif`` (empty list = correct).

    Circuits with few inputs are checked on every input vector, others
    on ``n_bits`` seeded random vectors.  ``directions[po]`` is 1 for a
    1-approximation (``G => F``) and 0 for a 0-approximation
    (``F => G``), as in ``repro.ced``.
    """
    original = read_circuit(original_blif)
    approx = read_circuit(approx_blif)
    problems = []
    if sorted(original.outputs) != sorted(approx.outputs):
        problems.append("checker and circuit name different outputs")
        return problems
    missing = sorted(set(original.outputs) - set(directions))
    if missing:
        problems.append(f"no direction for outputs {missing[:5]}")
        return problems
    vectors, n_bits = input_vectors(original.inputs, n_bits, seed)
    f_values = evaluate(original, vectors, n_bits)
    g_values = evaluate(approx, vectors, n_bits)
    full = (1 << n_bits) - 1
    for po in original.outputs:
        f, g = f_values[po], g_values[po]
        if directions[po] == 1:
            bad = g & ~f & full                   # G and not F
        else:
            bad = f & ~g & full                   # F and not G
        if bad:
            kind = "G => F" if directions[po] == 1 else "not G => not F"
            problems.append(f"output {po}: {kind} fails on "
                            f"{bin(bad).count('1')} of {n_bits} vectors")
    return problems
