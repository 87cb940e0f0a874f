"""Tests for content-addressed circuit workloads.

The tentpole contract: a user-supplied program is a first-class
workload.  Its identity is the canonical gate-stream digest
(``repro.circuits.digest``), it persists in a content-addressed
:class:`~repro.api.circuits.CircuitStore`, any experiment declaring a
circuit parameter accepts it as a ``circuit:<digest>`` reference, and —
critically — the typed :class:`~repro.workloads.ref.WorkloadRef` and
its string spelling produce the *same* store key, so uploaded-circuit
runs dedup and replay exactly like named-benchmark runs.
"""

import os

import pytest

from repro.api import Session, get_experiment, store_key
from repro.api.circuits import CircuitStore
from repro.api.session import install_default
from repro.circuits import Circuit, from_qasm, to_qasm
from repro.circuits.digest import (
    circuit_digest,
    is_circuit_digest,
    parse_circuit_ref,
)
from repro.circuits.gates import cx, h, measure, rz
from repro.exec.keys import task_key
from repro.workloads import (
    WorkloadRef,
    iter_circuit_digests,
    resolve_circuit,
)
from repro.workloads.registry import BENCHMARK_ORDER, build_circuit, get_benchmark


@pytest.fixture(autouse=True)
def fresh_default_session():
    saved = install_default(None)
    yield
    install_default(saved)


def _sample_circuit():
    circuit = Circuit(3)
    circuit.append(h(0))
    circuit.append(cx(0, 1))
    circuit.append(rz(0.5, 2))
    circuit.append(measure(1))
    return circuit


class TestCircuitDigest:
    def test_deterministic(self):
        assert circuit_digest(_sample_circuit()) == \
            circuit_digest(_sample_circuit())

    def test_is_64_hex(self):
        assert is_circuit_digest(circuit_digest(_sample_circuit()))

    def test_gate_order_matters(self):
        a, b = Circuit(2), Circuit(2)
        a.append(h(0)); a.append(cx(0, 1))
        b.append(cx(0, 1)); b.append(h(0))
        assert circuit_digest(a) != circuit_digest(b)

    def test_params_and_width_matter(self):
        base = _sample_circuit()
        tweaked = Circuit(3)
        tweaked.append(h(0))
        tweaked.append(cx(0, 1))
        tweaked.append(rz(0.5000001, 2))
        tweaked.append(measure(1))
        assert circuit_digest(base) != circuit_digest(tweaked)
        wider = Circuit(4)
        for gate in base.gates:
            wider.append(gate)
        assert circuit_digest(base) != circuit_digest(wider)

    def test_qasm_round_trip_preserves_digest(self):
        circuit = _sample_circuit()
        assert circuit_digest(from_qasm(to_qasm(circuit))) == \
            circuit_digest(circuit)

    def test_ref_spelling(self):
        digest = circuit_digest(_sample_circuit())
        assert parse_circuit_ref(f"circuit:{digest}") == digest
        assert parse_circuit_ref("bv") is None
        with pytest.raises(ValueError, match="malformed circuit"):
            parse_circuit_ref("circuit:nothex")


class TestCircuitStore:
    def test_add_get_round_trip(self, tmp_path):
        store = CircuitStore(str(tmp_path))
        circuit = _sample_circuit()
        digest = store.add_circuit(circuit)
        assert digest == circuit_digest(circuit)
        assert store.has(digest)
        fetched = store.get(digest)
        assert circuit_digest(fetched) == digest
        assert store.get_qasm(digest) == to_qasm(circuit)

    def test_add_is_idempotent(self, tmp_path):
        store = CircuitStore(str(tmp_path))
        text = to_qasm(_sample_circuit())
        first = store.add(text)
        # Re-uploading with different comments/whitespace lands on the
        # same content address — comments are not part of identity.
        second = store.add("// a comment\n" + text)
        assert first == second
        assert store.stats()["entries"] == 1

    def test_missing_digest_is_none(self, tmp_path):
        store = CircuitStore(str(tmp_path))
        assert store.get("ab" * 32) is None
        assert store.get_qasm("ab" * 32) is None
        assert not store.has("ab" * 32)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = CircuitStore(str(tmp_path))
        digest = store.add(to_qasm(_sample_circuit()))
        path = os.path.join(str(tmp_path), digest[:2], digest + ".qasm")
        other = Circuit(2)
        other.append(h(0))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(to_qasm(other))
        # The stored bytes no longer digest to their address: refuse.
        assert store.get(digest) is None

    def test_non_utf8_entry_is_a_miss(self, tmp_path):
        """Undecodable bytes are a corrupt entry: a miss, not a
        UnicodeDecodeError — so a job referencing the digest fails with
        the upload-first KeyError."""
        session = Session(circuit_dir=str(tmp_path))
        digest = session.circuits.add(to_qasm(_sample_circuit()))
        with open(session.circuits.disk.file_for(digest), "wb") as handle:
            handle.write(b"OPENQASM 2.0;\n\xff\xfe\n")
        assert session.circuits.get_qasm(digest) is None
        assert session.circuits.get(digest) is None
        with session.activate():
            with pytest.raises(KeyError, match="upload"):
                resolve_circuit(f"circuit:{digest}")

    def test_gc_evicts_down_to_budget(self, tmp_path):
        store = CircuitStore(str(tmp_path))
        for width in range(2, 8):
            store.add_circuit(build_circuit("bv", width))
        assert store.stats()["entries"] == 6
        outcome = store.gc(0)
        assert outcome["removed"] == 6
        assert store.stats()["entries"] == 0

    def test_malformed_qasm_rejected_with_line(self, tmp_path):
        store = CircuitStore(str(tmp_path))
        with pytest.raises(ValueError, match="line 3"):
            store.add("OPENQASM 2.0;\nqreg q[2];\nfrobnicate q[0];\n")
        assert store.stats()["entries"] == 0


class TestWorkloadRef:
    def test_parse_family(self):
        ref = WorkloadRef.parse("bv")
        assert ref == WorkloadRef(family="bv")
        assert ref.digest is None
        assert str(ref) == "bv"

    def test_parse_family_at_size(self):
        ref = WorkloadRef.parse("cuccaro@12")
        assert ref == WorkloadRef(family="cuccaro", size=12)
        assert str(ref) == "cuccaro@12"

    def test_parse_circuit_ref(self):
        digest = circuit_digest(_sample_circuit())
        ref = WorkloadRef.parse(f"circuit:{digest}")
        assert ref.digest == digest
        assert str(ref) == f"circuit:{digest}"

    def test_parse_is_idempotent_on_refs(self):
        ref = WorkloadRef(family="bv", size=8)
        assert WorkloadRef.parse(ref) is ref

    def test_unknown_family_names_the_known_set(self):
        with pytest.raises(ValueError, match="qaoa"):
            WorkloadRef.parse("nonsense")

    def test_malformed_size_and_digest(self):
        with pytest.raises(ValueError, match="family@<integer>"):
            WorkloadRef.parse("bv@big")
        with pytest.raises(ValueError, match="malformed circuit"):
            WorkloadRef.parse("circuit:xyz")
        with pytest.raises(ValueError, match="workload reference"):
            WorkloadRef.parse(42)

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="exactly one"):
            WorkloadRef()
        with pytest.raises(ValueError, match="exactly one"):
            WorkloadRef(family="bv", digest="ab" * 32)
        with pytest.raises(ValueError, match="size"):
            WorkloadRef(digest="ab" * 32, size=8)

    def test_typed_ref_and_string_share_one_store_key(self):
        """The keying contract: WorkloadRef(store_form) folds to its
        string spelling, so both spellings hit the same stored entry."""
        typed = store_key("workload-metrics",
                          {"workload": WorkloadRef(family="bv", size=20),
                           "program_size": 20, "mids": (2.0,), "rng": 0})
        spelled = store_key("workload-metrics",
                            {"workload": "bv@20", "program_size": 20,
                             "mids": (2.0,), "rng": 0})
        assert typed == spelled
        assert task_key(w=WorkloadRef(family="bv", size=20)) == \
            task_key(w="bv@20")

    def test_digest_ref_keys_differently_from_family(self):
        digest = circuit_digest(_sample_circuit())
        assert task_key(w=WorkloadRef(digest=digest)) != task_key(w="bv")


class TestResolveCircuit:
    def test_named_family_matches_registry(self):
        assert resolve_circuit("bv", 8).gates == build_circuit("bv", 8).gates

    def test_embedded_size_wins(self):
        assert resolve_circuit("bv@10", 6).num_qubits == \
            build_circuit("bv", 10).num_qubits

    def test_family_without_size_raises(self):
        with pytest.raises(ValueError, match="no size"):
            resolve_circuit("bv")

    def test_digest_resolves_through_active_session(self, tmp_path):
        session = Session(circuit_dir=str(tmp_path))
        circuit = _sample_circuit()
        digest = session.circuits.add_circuit(circuit)
        with session.activate():
            resolved = resolve_circuit(f"circuit:{digest}")
        assert circuit_digest(resolved) == digest

    def test_unknown_digest_says_upload_first(self, tmp_path):
        with Session(circuit_dir=str(tmp_path)).activate():
            with pytest.raises(KeyError, match="upload"):
                resolve_circuit("circuit:" + "ab" * 32)


class TestCircuitParams:
    def test_workload_metrics_declares_its_circuit_param(self):
        assert get_experiment("workload-metrics").circuit_params == \
            ("workload",)

    def test_resolve_rejects_bad_refs_naming_experiment_and_param(self):
        spec = get_experiment("workload-metrics")
        with pytest.raises(ValueError,
                           match=r"'workload-metrics'.*'workload'"):
            spec.resolved_params(overrides={"workload": "not-a-family"})

    def test_resolve_accepts_all_three_spellings(self, tmp_path):
        spec = get_experiment("workload-metrics")
        digest = "ab" * 32
        for value in ("bv", "qaoa@12", f"circuit:{digest}"):
            resolved = spec.resolved_params(overrides={"workload": value})
            assert resolved["workload"] == value

    def test_iter_circuit_digests_walks_nested_params(self):
        d1, d2 = "ab" * 32, "cd" * 32
        params = {
            "workload": f"circuit:{d1}",
            "extras": ({"inner": WorkloadRef(digest=d2)}, "bv"),
            "size": 10,
        }
        assert sorted(iter_circuit_digests(params)) == sorted([d1, d2])

    def test_run_with_digest_end_to_end(self, tmp_path):
        """An uploaded circuit rides Session.run + the result store:
        cold computes, warm replays byte-identically with zero tasks."""
        session = Session(circuit_dir=str(tmp_path / "circuits"),
                          store_dir=str(tmp_path / "store"))
        digest = session.circuits.add(to_qasm(_sample_circuit()))
        cold = session.run("workload-metrics", quick=True,
                           workload=f"circuit:{digest}")
        assert cold.realized_size == 3
        assert f"circuit:{digest}" in cold.format()
        warm = Session(circuit_dir=str(tmp_path / "circuits"),
                       store_dir=str(tmp_path / "store"))
        replay = warm.run("workload-metrics", quick=True,
                          workload=f"circuit:{digest}")
        assert replay.to_dict() == cold.to_dict()
        assert warm.hits == 1 and warm.tasks_executed == 0


class TestSizeLattice:
    """`Benchmark.realize` is the machine-checkable form of `size_rule`:
    for every family, every requested size must realize to exactly the
    width the builder produces."""

    @pytest.mark.parametrize("name", BENCHMARK_ORDER)
    def test_realized_size_matches_built_circuit(self, name):
        bench = get_benchmark(name)
        for requested in range(bench.min_size, bench.min_size + 10):
            assert bench.realized_size(requested) == \
                bench.circuit(requested).num_qubits, (name, requested)

    def test_pinned_lattice_points(self):
        # The rounding behaviour is part of the public contract: pin it.
        assert get_benchmark("bv").realized_size(7) == 7
        assert get_benchmark("cnu").realized_size(9) == 8
        assert get_benchmark("cuccaro").realized_size(11) == 10
        assert get_benchmark("qft-adder").realized_size(9) == 8
        assert get_benchmark("qaoa").realized_size(7) == 7

    def test_below_min_size_rejected(self):
        with pytest.raises(ValueError, match="at least"):
            get_benchmark("cuccaro").realized_size(3)

    def test_workload_metrics_surfaces_realized_size(self):
        result = Session().run("workload-metrics", workload="cuccaro",
                               program_size=11, mids=(2.0,))
        assert result.program_size == 11
        assert result.realized_size == 10
        assert "requested 11, realized 10" in result.format()
