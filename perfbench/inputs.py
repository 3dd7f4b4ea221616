"""Workload inputs: frozen seed-0 circuits, seeded variants, serve mix.

Seed 0 reads every circuit from the BLIF files under ``inputs/`` and
checks them against ``inputs/MANIFEST.json``, so a change to
``repro.bench.generators`` cannot silently change the workload.  Other
seeds derive their inputs at set-up:

* ``cold-flow`` runs an isomorphic variant of each frozen Table 2
  circuit, its internal signals renamed by a seeded permutation.  The
  program sees new text but must do the same work and reach the same
  results, so every seed is checked against the seed-0 summaries and
  the run-to-run spread measures the program, not the luck of a
  generated instance.
* ``serve-resubmit`` sends freshly generated small circuits
  (``repro.bench.generators.random_network``) in a seeded mix of exact
  resubmissions, one-literal edits and first submissions.

``python perfbench/freeze.py`` rewrites the frozen files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from common import HERE, BenchmarkError, sha256_text
from oracle import read_circuit, write_circuit

INPUT_DIR = HERE / "inputs"
MANIFEST_PATH = INPUT_DIR / "MANIFEST.json"

#: The cold-flow circuits, in the order the seed-0 pass runs them.
COLD_CIRCUITS = ("x1", "i2", "frg2", "dalu", "i10")

#: Circuit of the checker-search workload (looked up by name by
#: ``run_search``; its frozen text guards the generator).
SEARCH_CIRCUIT = "frg2"

# -- serve mix ---------------------------------------------------------
# No trace of designer traffic exists to draw these from; each is an
# assumption, stated with what it rests on in perfbench/README.md.
#: Requests per second of the open loop: about a quarter of what two
#: workers serve at the measured median service time (2 / 0.089 s).
SERVE_RATE = 6.0
#: Longest window a frozen seed-0 schedule covers.
SERVE_HORIZON_S = 30
#: Circuits served at set-up, before the window opens.
SERVE_WARM = 6
#: Share of each request kind (assumed, not measured).
SERVE_KINDS = (("exact", 0.4), ("edited", 0.35), ("cold", 0.25))
#: Designers (serve tenants) sharing the service; each owns the
#: circuits it first sent and their edits (assumed; at 6 req/s no
#: tenant nears the service's default quota of 8 req/s).
SERVE_TENANTS = 4
#: A circuit is resubmitted only this long after its first send, so
#: the first submission has finished and its checkpoints exist (the
#: measured p95 latency is about 0.13 s; a designer's real pause is
#: longer, which would only leave fewer circuits ready to resubmit).
SERVE_LAG_S = 3.0


def load_manifest() -> dict:
    return json.loads(MANIFEST_PATH.read_text())


def _frozen(relpath: str, manifest: dict) -> str:
    text = (INPUT_DIR / relpath).read_text()
    want = manifest["files"].get(relpath)
    if want is None:
        raise BenchmarkError(f"{relpath} is not in the input manifest")
    if sha256_text(text) != want:
        raise BenchmarkError(f"frozen input {relpath} does not match "
                             f"its digest")
    return text


# ----------------------------------------------------------------------
# cold-flow / checker-search circuits
# ----------------------------------------------------------------------
def table2_texts(manifest: dict) -> dict[str, str]:
    names = dict.fromkeys(COLD_CIRCUITS + (SEARCH_CIRCUIT,))
    return {name: _frozen(f"table2/{name}.blif", manifest)
            for name in names}


def isomorphic_variant(text: str, seed: int) -> str:
    """Rename internal signals by a seeded permutation.

    Primary inputs and outputs keep their names, so results stay
    comparable output by output.  Block order is kept: the program's
    results depend on the order ``.names`` blocks arrive in (reordering
    i2's blocks changes its mapped checker), so reordering would not
    give the same work.
    """
    if seed == 0:
        return text
    circuit = read_circuit(text)
    rng = random.Random(f"variant/{seed}/{circuit.name}")
    keep = set(circuit.inputs) | set(circuit.outputs)
    internal = [b.output for b in circuit.blocks if b.output not in keep]
    shuffled = list(internal)
    rng.shuffle(shuffled)
    rename = {old: f"v{seed}_{new}" for old, new in zip(internal, shuffled)}
    for block in circuit.blocks:
        block.fanins = [rename.get(f, f) for f in block.fanins]
        block.output = rename.get(block.output, block.output)
    return write_circuit(circuit)


def cold_flow_inputs(seed: int, manifest: dict) -> list[tuple[str, str]]:
    """``[(circuit, blif)]`` in run order.

    The order is fixed: a flow runs measurably slower after others in
    the same process (i10 took 19.0 s first and 22.3 s last), so a
    seeded order would add spread that is not the program's.
    """
    texts = table2_texts(manifest)
    return [(name, isomorphic_variant(texts[name], seed))
            for name in COLD_CIRCUITS]


def warmup_circuit(manifest: dict) -> str:
    """A small frozen circuit for warm-up flows."""
    return _frozen(sorted(manifest["serve_pool"])[0], manifest)


# ----------------------------------------------------------------------
# serve-resubmit mix
# ----------------------------------------------------------------------
@dataclass
class Request:
    """One scheduled submission of the open loop."""

    index: int
    t: float                     # scheduled send, seconds after start
    kind: str                    # exact | edited | cold
    name: str
    blif: str

    @property
    def tenant(self) -> str:
        """The designer who owns this circuit's lineage."""
        root = self.name.split(".", 1)[0]
        return f"designer{int(sha256_text(root)[:8], 16) % SERVE_TENANTS}"


def small_circuit(seed: int, index: int) -> str:
    """A generated circuit of the size a designer iterates on."""
    from repro.bench.generators import random_network
    from repro.network import write_blif
    rng = random.Random(f"serve-circuit/{seed}/{index}")
    net = random_network(rng.randrange(1 << 30),
                         n_nodes=rng.randint(16, 32),
                         n_inputs=rng.randint(6, 12),
                         n_outputs=rng.randint(2, 4),
                         name=f"s{seed}c{index}")
    return write_blif(net)


def edit_one_literal(text: str, rng: random.Random) -> str:
    """Flip one literal of one cube of one internal node."""
    lines = text.splitlines()
    outputs = set()
    candidates = []
    in_block = False
    for i, line in enumerate(lines):
        tokens = line.split()
        if not tokens:
            continue
        if tokens[0] == ".outputs":
            outputs.update(tokens[1:])
        if tokens[0] == ".names":
            in_block = len(tokens) > 2 and tokens[-1] not in outputs
        elif tokens[0].startswith("."):
            in_block = False
        elif in_block:
            literals = [j for j, c in enumerate(tokens[0]) if c in "01"]
            candidates.extend((i, j) for j in literals)
    if not candidates:
        raise BenchmarkError("circuit has no internal literal to edit")
    row, col = rng.choice(candidates)
    pattern, value = lines[row].split()
    flipped = "1" if pattern[col] == "0" else "0"
    lines[row] = f"{pattern[:col]}{flipped}{pattern[col + 1:]} {value}"
    return "\n".join(lines) + "\n"


def serve_pool(seed: int, count: int, manifest: dict) -> list[str]:
    """The first ``count`` circuits of this seed's pool (warm, then cold)."""
    if seed:
        return [small_circuit(seed, i) for i in range(count)]
    frozen = sorted(manifest["serve_pool"])
    if count > len(frozen):
        raise BenchmarkError(f"the frozen serve pool holds {len(frozen)} "
                             f"circuits; {count} needed")
    return [_frozen(rel, manifest) for rel in frozen[:count]]


def serve_kinds(seed: int, seconds: float) -> list[str]:
    rng = random.Random(f"serve-kinds/{seed}")
    kinds, weights = zip(*SERVE_KINDS)
    count = int(SERVE_RATE * seconds)
    return rng.choices(kinds, weights=weights, k=count)


def serve_mix(seed: int, seconds: float, manifest: dict,
              check: bool = True
              ) -> tuple[list[tuple[str, str]], list[Request]]:
    """``(warm circuits, scheduled requests)`` of one window.

    The kinds and targets depend only on the seed, so a shorter window
    is a prefix of a longer one.  ``check`` compares a seed-0 schedule
    with the frozen digests.
    """
    if not seed and seconds > SERVE_HORIZON_S:
        raise BenchmarkError(f"seed 0 covers at most {SERVE_HORIZON_S} s "
                             f"of serve traffic")
    kinds = serve_kinds(seed, seconds)
    pool = serve_pool(seed, SERVE_WARM + kinds.count("cold"), manifest)
    warm = [(f"w{i}", pool[i]) for i in range(SERVE_WARM)]
    cold = iter(pool[SERVE_WARM:])
    served = [(name, text, -SERVE_LAG_S) for name, text in warm]
    rng = random.Random(f"serve-targets/{seed}")
    requests = []
    for index, kind in enumerate(kinds):
        t = index / SERVE_RATE
        ready = [s for s in served if s[2] <= t - SERVE_LAG_S]
        if kind == "cold":
            name, text = f"c{index}", next(cold)
            served.append((name, text, t))
        else:
            base_name, base_text, _ = rng.choice(ready)
            if kind == "exact":
                name, text = base_name, base_text
            else:
                name = f"{base_name}.e{index}"
                text = edit_one_literal(base_text, rng)
                served.append((name, text, t))
        requests.append(Request(index, t, kind, name, text))
    if check and not seed:
        want = manifest["serve_mix"]
        got = [sha256_text(r.blif) for r in requests]
        if got != want[:len(got)]:
            raise BenchmarkError("seed-0 serve mix differs from the frozen "
                                 "schedule")
    return warm, requests
