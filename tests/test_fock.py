import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest

from wexpand.fock import (
    WiringError,
    coincidence_probability,
    mode,
    postselect_qubits,
    pruned,
    tensor,
    ORTHOGONAL,
    PRINCIPAL,
)
from wexpand.tolerances import AMPLITUDE_PRUNE

from helpers import (
    VACUUM,
    apply_creation,
    basis_vector,
    inner_product,
    is_pruned,
    norm,
    normalized,
    number_state,
    photonic_w_state,
    scaled,
    single_photon,
    vacuum_state,
)


def random_state(rng, modes, max_photons=2):
    """Random normalized sparse state over the given labels."""
    terms = {}
    for _ in range(4):
        occ = {}
        for lab in modes:
            n = rng.integers(0, max_photons + 1)
            if n:
                occ[lab] = int(n)
        fbv = basis_vector(occ)
        terms[fbv] = complex(rng.normal(), rng.normal())
    return normalized(terms)


def test_creation_on_vacuum():
    state = apply_creation(vacuum_state(), mode(1, "V"))
    assert len(state) == 1
    fbv = basis_vector({mode(1, "V"): 1})
    assert state.get(fbv) == pytest.approx(1.0)


def test_creation_bosonic_factor():
    one = single_photon(2, "H")
    two = apply_creation(one, mode(2, "H"))
    fbv = basis_vector({mode(2, "H"): 2})
    assert two.get(fbv) == pytest.approx(math.sqrt(2))


def test_double_creation_matches_factorial_normalization():
    # Oracle: |n> = (a^dag)^n / sqrt(n!) |vac>, so two creations on vacuum
    # give sqrt(2!) |2> and normalizing recovers the basis vector exactly.
    state = apply_creation(apply_creation(vacuum_state(), mode(2, "H")), mode(2, "H"))
    assert norm(state) == pytest.approx(math.sqrt(math.factorial(2)))
    expected = number_state(2, "H", 2)
    overlap = inner_product(expected, normalized(state))
    assert overlap.real == pytest.approx(1.0)


def test_inner_product_basics():
    v1 = single_photon(1, "V")
    assert inner_product(v1, v1) == pytest.approx(1.0)
    assert inner_product(v1, single_photon(1, "H")) == 0.0
    w3 = photonic_w_state([4, 5, 6])
    assert inner_product(w3, w3).real == pytest.approx(1.0)


def test_inner_product_conjugate_linear():
    rng = np.random.default_rng(3)
    labels = [mode(0, "H"), mode(0, "V"), mode(1, "H")]
    for _ in range(10):
        a = random_state(rng, labels)
        b = random_state(rng, labels)
        c = complex(rng.normal(), rng.normal())
        lhs = inner_product(scaled(a, c), b)
        assert lhs == pytest.approx(c.conjugate() * inner_product(a, b))
        rhs = inner_product(a, scaled(b, c))
        assert rhs == pytest.approx(c * inner_product(a, b))
        assert inner_product(a, a).imag == pytest.approx(0.0)
        assert inner_product(a, a).real >= 0


def test_tensor_and_vacuum_identity():
    joint = tensor(single_photon(1, "V"), number_state(2, "H", 2))
    fbv = basis_vector({mode(1, "V"): 1, mode(2, "H"): 2})
    assert joint.get(fbv) == pytest.approx(1.0)

    x = tensor(single_photon(1, "V"), vacuum_state())
    assert inner_product(x, single_photon(1, "V")).real == pytest.approx(1.0)


def test_tensor_norm_multiplicative():
    rng = np.random.default_rng(5)
    a = scaled(random_state(rng, [mode(0, "H"), mode(0, "V")]), 0.7)
    b = scaled(random_state(rng, [mode(1, "H"), mode(1, "V")]), 0.4)
    joint = tensor(a, b)
    assert norm(joint) == pytest.approx(norm(a) * norm(b))
    assert is_pruned(joint)


def test_tensor_returns_a_pruned_state():
    # Products of two small amplitudes fall below the threshold.
    small = math.sqrt(AMPLITUDE_PRUNE) / 10
    a = {basis_vector({mode(0, "H"): 1}): small, basis_vector({mode(0, "V"): 1}): 1.0}
    b = {basis_vector({mode(1, "H"): 1}): small, VACUUM: 1.0}
    joint = tensor(a, b)
    assert is_pruned(joint)
    assert len(joint) == 3


def test_tensor_overlapping_modes_rejected():
    with pytest.raises(WiringError):
        tensor(single_photon(1, "V"), single_photon(1, "H"))


def test_creations_on_distinct_modes_commute():
    rng = np.random.default_rng(11)
    labels = [mode(0, "H"), mode(1, "V"), mode(2, "H", ORTHOGONAL)]
    for _ in range(20):
        state = random_state(rng, labels)
        la, lb = rng.choice(len(labels), size=2, replace=False)
        ab = apply_creation(apply_creation(state, labels[la]), labels[lb])
        ba = apply_creation(apply_creation(state, labels[lb]), labels[la])
        for fbv, amp in ab.items():
            assert amp == pytest.approx(ba.get(fbv, 0.0), abs=1e-12)
        assert len(ab) == len(ba)


def test_postselect_w3_projector():
    w3 = photonic_w_state([4, 5, 6])
    rho, prob = postselect_qubits(w3, [4, 5, 6])
    assert prob == pytest.approx(1.0)
    # support on VHH (idx 4), HVH (idx 2), HHV (idx 1), all entries 1/3
    expected = np.zeros((8, 8))
    for i in (1, 2, 4):
        for j in (1, 2, 4):
            expected[i, j] = 1 / 3
    assert np.allclose(rho.matrix, expected, atol=1e-12)


def test_postselect_missing_photon_flags_empty():
    # Mode 5 is empty, then mode 4 holds both photons: no term has one
    # photon per listed mode.
    for state, modes in [
        (tensor(single_photon(4, "H"), single_photon(6, "V")), [4, 5, 6]),
        (number_state(4, "H", 2), [4, 5]),
    ]:
        assert postselect_qubits(state, modes) == (None, 0.0)


def test_postselect_empty_mode_list_rejected():
    with pytest.raises(ValueError):
        postselect_qubits(vacuum_state(), [])


def test_postselect_distinguishable_bins_gives_classical_marginal():
    # (|H_p V_o> + |V_o H_p>)/sqrt(2) over modes 4, 5: the bin patterns of
    # the two branches never meet, so the qubit marginal must be diagonal.
    f1 = basis_vector(
        {mode(4, "H", PRINCIPAL): 1, mode(5, "V", ORTHOGONAL): 1}
    )
    f2 = basis_vector(
        {mode(4, "V", ORTHOGONAL): 1, mode(5, "H", PRINCIPAL): 1}
    )
    state = {f1: 1 / math.sqrt(2), f2: 1 / math.sqrt(2)}
    rho, prob = postselect_qubits(state, [4, 5])
    assert prob == pytest.approx(1.0)

    # Oracle: dense partial trace over the bin factor of each photon.
    # Order the one-photon mode basis as (pol, bin) per spatial mode.
    def dense_index(pol, tbin):
        return {"H": 0, "V": 1}[pol] * 2 + {PRINCIPAL: 0, ORTHOGONAL: 1}[tbin]

    psi = np.zeros(16, dtype=complex)
    psi[dense_index("H", PRINCIPAL) * 4 + dense_index("V", ORTHOGONAL)] = 1 / math.sqrt(2)
    psi[dense_index("V", ORTHOGONAL) * 4 + dense_index("H", PRINCIPAL)] = 1 / math.sqrt(2)
    full = np.outer(psi, psi.conj()).reshape(2, 2, 2, 2, 2, 2, 2, 2)
    # axes: pol4, bin4, pol5, bin5 (ket), then the same four (bra)
    oracle = np.trace(full, axis1=1, axis2=5)   # trace bin4 -> (p4,p5,b5,p4',p5',b5')
    oracle = np.trace(oracle, axis1=2, axis2=5)  # trace bin5 -> (p4,p5,p4',p5')
    oracle = oracle.reshape(4, 4)
    assert np.allclose(rho.matrix, oracle, atol=1e-12)
    assert np.allclose(rho.matrix, np.diag(np.diag(rho.matrix)), atol=1e-12)


def test_postselect_probability_matches_term_filter():
    rng = np.random.default_rng(23)
    labels = [
        mode(4, "H"),
        mode(4, "V"),
        mode(5, "H", ORTHOGONAL),
        mode(5, "V"),
        mode(6, "H"),
    ]
    for _ in range(10):
        state = random_state(rng, labels, max_photons=1)
        rho, prob = postselect_qubits(state, [4, 5])
        # Independent filter: keep exactly-one-photon-per-mode terms.
        expected = 0.0
        for fbv, amp in state.items():
            spatial = [lab.spatial for lab in fbv]
            if spatial.count(4) == 1 and spatial.count(5) == 1 and len(fbv) == 2:
                expected += abs(amp) ** 2
        assert prob == pytest.approx(expected, abs=1e-12)


def test_coincidence_probability_threshold():
    state = {
        basis_vector({mode(0, "H"): 2, mode(4, "H"): 1}): 0.6,
        basis_vector({mode(0, "H"): 1}): 0.8,
    }
    assert coincidence_probability(state, [0]) == pytest.approx(1.0)
    assert coincidence_probability(state, [0, 4]) == pytest.approx(0.36)


def test_density_matrix_json_round_trip():
    w3 = photonic_w_state([4, 5, 6])
    rho, _ = postselect_qubits(w3, [4, 5, 6])
    doc = rho.to_json()
    assert set(doc) == {"dim", "qubit_order", "re", "im"}
    assert doc["dim"] == 8
    assert doc["qubit_order"] == [4, 5, 6]
    doc = json.loads(json.dumps(doc))
    again = np.reshape(doc["re"], (8, 8)) + 1j * np.reshape(doc["im"], (8, 8))
    assert np.allclose(again, rho.matrix)


def test_mode_label_validation():
    with pytest.raises(ValueError):
        mode(-1, "H")
    with pytest.raises(ValueError):
        mode(0, "X")
    with pytest.raises(ValueError):
        mode(0, "H", "weird")


def test_amplitude_pruning():
    assert len(pruned({(): 1e-16})) == 0
    # At the threshold an amplitude goes too; the ones kept become complex.
    kept = basis_vector({mode(0, "H"): 1})
    state = pruned({(): 1e-16, (mode(1, "V"),): AMPLITUDE_PRUNE, kept: 0.5})
    assert state == {kept: 0.5}
    assert is_pruned(state)


REPO = Path(__file__).resolve().parents[1]


def layer_keys() -> set[str]:
    """The "<module>.<function>" keys of the benchmark's LAYER_STATS table,
    read from its source."""
    for node in ast.parse((REPO / "perfbench" / "spans.py").read_text()).body:
        targets = [ast.unparse(target) for target in getattr(node, "targets", ())]
        if targets == ["LAYER_STATS"]:
            return set(ast.literal_eval(node.value))
    raise AssertionError("perfbench/spans.py defines no LAYER_STATS")


def bindings(module: str, tree: ast.Module) -> dict[str, tuple[str, str]]:
    """Each module-level name of a package module, with the (module, name)
    it is bound to: the module's own definitions and assignments, and the
    names it imports from the package."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                bound |= {a.asname or a.name: (node.module, a.name) for a in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound[node.name] = (module, node.name)
        else:
            stored = (n for n in ast.walk(node) if isinstance(n, ast.Name))
            bound |= {n.id: (module, n.id) for n in stored if isinstance(n.ctx, ast.Store)}
    return bound


def reads(node, bound: dict[str, tuple[str, str]]) -> set[tuple[str, str]]:
    """The bindings of ``bound`` that the node reads: each name it loads,
    unless a function around the load binds that name itself."""
    found = set()

    def visit(node, local):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            inner = list(ast.walk(node))
            local = local | {n.arg for n in inner if isinstance(n, ast.arg)}
            stored = (n for n in inner if isinstance(n, ast.Name))
            local |= {n.id for n in stored if isinstance(n.ctx, ast.Store)}
        loaded = isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        if loaded and node.id in bound and node.id not in local:
            found.add(bound[node.id])
        for child in ast.iter_child_nodes(node):
            visit(child, local)

    visit(node, frozenset())
    return found


def test_no_program_name_is_reached_only_from_the_tests():
    # A module-level function or class of the package stays only if other
    # package code refers to it or the benchmark wraps it as a layer; one
    # that only the tests reach belongs in helpers.py.  A reference is a
    # load of the name that the module defines or imports, so a local
    # variable of the same spelling keeps nothing.  A dropped name's own
    # references stop counting, so a chain of such names drops out in turn.
    spans = layer_keys()
    refs, top_level = {}, set()
    for path in sorted((REPO / "src" / "wexpand").glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = bindings(path.stem, tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                refs[path.stem, node.name] = reads(node, bound)
            else:
                top_level |= reads(node, bound)
    kept = set(refs)
    while True:
        dropped = {
            key
            for key in kept
            if ".".join(key) not in spans
            and key not in top_level
            and not any(key in refs[k] for k in kept - {key})
        }
        if not dropped:
            break
        kept -= dropped
    assert sorted(".".join(key) for key in set(refs) - kept) == []


# The modules each package module must not import.  The analysis layer,
# entanglement then tomography, imports nothing of the optics layer, fock and
# optics then gates then sources, which may import the analysis.  The
# scenario runner reaches the optics through gates and sources only.
OPTICS = {"fock", "optics", "gates", "sources"}
FORBIDDEN_IMPORTS = {
    "entanglement": OPTICS,
    "tomography": OPTICS,
    "cli": {"fock", "optics"},
}


@pytest.mark.parametrize("module", sorted(FORBIDDEN_IMPORTS))
def test_the_analysis_layer_imports_nothing_of_the_optics(module):
    # Every relative import counts, at the top level or inside a function:
    # "from .x import y" and "from . import x" both import x.
    tree = ast.parse((REPO / "src" / "wexpand" / f"{module}.py").read_text())
    imported = {
        node.module or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    }
    assert sorted(imported & FORBIDDEN_IMPORTS[module]) == []
