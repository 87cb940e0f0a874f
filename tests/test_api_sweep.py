"""Tests for the first-class sweep API (repro.api.sweep + protocol).

The contract under test: a SweepSpec expands **canonically** (axes
sorted by name, cartesian product row-major, last axis fastest), every
cell carries the same store key the equivalent single ``Session.run``
would use (so sweeps replay and dedup for free), validation happens at
construction with the registry's error conventions, and the
SweepResult envelope round-trips like ExperimentResult.  Session and
RemoteSession present the same SessionProtocol surface.
"""

import inspect
import json

import pytest

from repro.api import (
    RemoteSession,
    Session,
    SessionProtocol,
    SweepResult,
    SweepSpec,
    all_experiments,
    store_key,
)
from repro.api.session import install_default
from repro.api.store import canonical_json
from repro.api.sweep import SWEEP_SCHEMA, SWEEP_SCHEMA_VERSION


@pytest.fixture(autouse=True)
def fresh_default_session():
    saved = install_default(None)
    yield
    install_default(saved)


#: The cheapest quick experiment with several sweepable parameters.
FAST = "ext-trapped-ion"


class TestExpansion:
    def test_axes_expand_name_sorted_row_major(self):
        spec = SweepSpec(FAST, axes={"program_size": (10, 20),
                                     "na_mid": (2.0, 3.0)}, quick=True)
        # "na_mid" sorts before "program_size", and the last axis
        # varies fastest.
        assert [cell.params for cell in spec.cells()] == [
            {"na_mid": 2.0, "program_size": 10},
            {"na_mid": 2.0, "program_size": 20},
            {"na_mid": 3.0, "program_size": 10},
            {"na_mid": 3.0, "program_size": 20},
        ]
        assert [cell.index for cell in spec.cells()] == [0, 1, 2, 3]
        assert len(spec) == 4

    def test_axis_order_is_irrelevant(self):
        a = SweepSpec(FAST, axes={"program_size": (10, 20),
                                  "na_mid": (2.0,)}, quick=True)
        b = SweepSpec(FAST, axes={"na_mid": [2.0],
                                  "program_size": [10, 20]}, quick=True)
        assert a == b
        assert a.keys() == b.keys()

    def test_base_applies_to_every_cell(self):
        spec = SweepSpec(FAST, axes={"program_size": (10, 20)},
                         base={"na_mid": 2.0}, quick=True)
        assert all(cell.params["na_mid"] == 2.0
                   for cell in spec.cells())
        assert all(cell.resolved["na_mid"] == 2.0
                   for cell in spec.cells())

    def test_exact_repeat_axis_values_dedupe(self):
        spec = SweepSpec(FAST, axes={"program_size": (10, 10, 20)},
                         quick=True)
        assert len(spec) == 2

    def test_empty_axes_is_a_single_cell(self):
        spec = SweepSpec("validation", quick=True)
        assert len(spec) == 1
        assert spec.cells()[0].params == {}

    def test_cell_key_matches_single_run_key(self):
        spec = SweepSpec(FAST, axes={"program_size": (10, 20)},
                         quick=True)
        registry_spec = all_experiments()[FAST]
        for cell in spec.cells():
            expected = store_key(FAST, registry_spec.resolved_params(
                quick=True, overrides=dict(cell.params)))
            assert cell.key == expected


class TestValidation:
    def test_unknown_experiment_raises_keyerror(self):
        with pytest.raises(KeyError):
            SweepSpec("fig99", axes={"x": (1,)})

    def test_unknown_axis_raises_typeerror_naming_known_set(self):
        with pytest.raises(TypeError) as excinfo:
            SweepSpec(FAST, axes={"bogus": (1, 2)}, quick=True)
        message = str(excinfo.value)
        assert "bogus" in message
        # The registry's convention: the error names the valid set.
        assert "program_size" in message

    def test_unknown_base_raises_typeerror(self):
        with pytest.raises(TypeError):
            SweepSpec(FAST, axes={"program_size": (10,)},
                      base={"nope": 1}, quick=True)

    def test_axis_base_overlap_raises_valueerror(self):
        with pytest.raises(ValueError) as excinfo:
            SweepSpec(FAST, axes={"program_size": (10,)},
                      base={"program_size": 20}, quick=True)
        assert "program_size" in str(excinfo.value)

    def test_scalar_axis_raises_valueerror(self):
        with pytest.raises(ValueError):
            SweepSpec(FAST, axes={"program_size": 10}, quick=True)

    def test_string_axis_raises_valueerror(self):
        with pytest.raises(ValueError):
            SweepSpec(FAST, axes={"program_size": "10"}, quick=True)

    def test_empty_axis_raises_valueerror(self):
        with pytest.raises(ValueError):
            SweepSpec(FAST, axes={"program_size": ()}, quick=True)

    def test_every_driver_rejects_unknown_override_keys(self):
        """Regression pin: resolved_params must reject unknown keys for
        every registered driver, with the TypeError naming the unknown
        key and the known set — the convention SweepSpec, POST /run,
        and POST /sweeps all route through."""
        for name, spec in sorted(all_experiments().items()):
            for quick in (False, True):
                with pytest.raises(TypeError) as excinfo:
                    spec.resolved_params(
                        quick=quick,
                        overrides={"definitely_not_a_param": 1})
                message = str(excinfo.value)
                assert "definitely_not_a_param" in message, name
                known = {p.name for p in spec.params}
                assert any(param in message for param in known) or \
                    not known, name


class TestWireForms:
    def test_spec_round_trips_through_json(self):
        spec = SweepSpec(FAST, axes={"program_size": (10, 20)},
                         base={"na_mid": 2.0}, quick=True)
        wire = json.loads(json.dumps(spec.to_dict()))
        rebuilt = SweepSpec.from_dict(wire)
        assert rebuilt == spec
        assert rebuilt.keys() == spec.keys()

    def test_from_dict_rejects_malformed_payloads(self):
        with pytest.raises(ValueError):
            SweepSpec.from_dict({})
        with pytest.raises(ValueError):
            SweepSpec.from_dict({"experiment": FAST, "axes": []})
        with pytest.raises(TypeError):
            SweepSpec.from_dict("not a mapping")
        with pytest.raises(ValueError, match='"quick"'):
            SweepSpec.from_dict({"experiment": FAST, "quick": "false"})

    def test_sweep_result_envelope_round_trips(self, tmp_path):
        spec = SweepSpec(FAST, axes={"program_size": (10, 20)},
                         quick=True)
        result = Session(store_dir=str(tmp_path)).run_sweep(spec)
        envelope = json.loads(json.dumps(result.to_dict()))
        assert envelope["schema"] == SWEEP_SCHEMA
        assert envelope["schema_version"] == SWEEP_SCHEMA_VERSION
        rebuilt = SweepResult.from_dict(envelope)
        assert canonical_json(rebuilt.to_dict()) == \
            canonical_json(result.to_dict())
        # Cell keys are re-derived, never trusted from the payload.
        tampered = json.loads(json.dumps(envelope))
        tampered["cells"][0]["key"] = "0" * 64
        assert SweepResult.from_dict(tampered).cells[0].key == \
            result.cells[0].key
        # bool("false") would re-key every cell under the quick preset.
        tampered["quick"] = "false"
        with pytest.raises(ValueError, match='"quick"'):
            SweepResult.from_dict(tampered)

    def test_sweep_result_rejects_wrong_schema(self):
        with pytest.raises(ValueError):
            SweepResult.from_dict({"schema": "nope",
                                   "schema_version": 1})
        with pytest.raises(ValueError):
            SweepResult.from_dict({"schema": SWEEP_SCHEMA,
                                   "schema_version": 999})

    def test_sweep_result_length_mismatch(self):
        spec = SweepSpec(FAST, axes={"program_size": (10, 20)},
                         quick=True)
        with pytest.raises(ValueError):
            SweepResult(experiment=FAST, quick=True,
                        cells=spec.cells(), results=())


class TestSessionSweeps:
    def test_run_sweep_executes_then_replays(self, tmp_path):
        spec = SweepSpec(FAST, axes={"program_size": (10, 20)},
                         quick=True)
        first = Session(store_dir=str(tmp_path))
        result = first.run_sweep(spec)
        assert len(result) == 2
        assert first.misses == 2 and first.hits == 0

        second = Session(store_dir=str(tmp_path))
        replayed = second.run_sweep(spec)
        assert second.tasks_executed == 0
        assert second.hits == 2 and second.misses == 0
        assert canonical_json(replayed.to_dict()) == \
            canonical_json(result.to_dict())

    def test_cell_and_single_run_share_one_stored_envelope(
            self, tmp_path):
        spec = SweepSpec(FAST, axes={"program_size": (10,)}, quick=True)
        sweep_session = Session(store_dir=str(tmp_path))
        sweep_session.run_sweep(spec)

        single = Session(store_dir=str(tmp_path))
        result = single.run(FAST, quick=True, program_size=10)
        # The sweep's stored cell satisfied the single run: a hit.
        assert single.hits == 1 and single.tasks_executed == 0
        assert result.to_dict() == \
            sweep_session.store.get(spec.cells()[0].key)

    def test_iter_sweep_yields_incrementally(self, tmp_path):
        spec = SweepSpec(FAST, axes={"program_size": (10, 20)},
                         quick=True)
        session = Session(store_dir=str(tmp_path))
        iterator = session.iter_sweep(spec)
        cell, result = next(iterator)
        assert cell.index == 0
        # Only the first cell has run so far.
        assert session.misses == 1
        assert session.store.get(spec.cells()[1].key) is None
        rest = list(iterator)
        assert [c.index for c, _ in rest] == [1]

    def test_force_recomputes_every_cell(self, tmp_path):
        spec = SweepSpec(FAST, axes={"program_size": (10,)}, quick=True)
        session = Session(store_dir=str(tmp_path))
        session.run_sweep(spec)
        assert (session.hits, session.misses) == (0, 1)
        # force skips the store lookup: the ledger records a second
        # miss, never a hit, even though the envelope already exists.
        session.run_sweep(spec, force=True)
        assert (session.hits, session.misses) == (0, 2)

    def test_format_has_one_header_per_cell(self, tmp_path):
        spec = SweepSpec(FAST, axes={"program_size": (10, 20)},
                         quick=True)
        text = Session(store_dir=str(tmp_path)).run_sweep(spec).format()
        assert text.count(f"== {FAST}[") == 2
        assert "program_size=10" in text and "program_size=20" in text


class TestSessionProtocol:
    def test_both_sessions_satisfy_the_protocol(self):
        assert isinstance(Session(), SessionProtocol)
        assert isinstance(RemoteSession("http://127.0.0.1:1"),
                          SessionProtocol)

    @pytest.mark.parametrize("method", ["run", "run_sweep", "iter_sweep"])
    def test_signatures_cannot_drift(self, method):
        """Parameter names, kinds, and defaults must stay identical
        between the local and remote surfaces."""
        def shape(cls):
            signature = inspect.signature(getattr(cls, method))
            return [(p.name, p.kind, p.default)
                    for p in signature.parameters.values()]

        assert shape(Session) == shape(RemoteSession)
