"""Tests for the bundled benchmark catalog."""

import numpy as np
import pytest

from athena.catalog import CatalogEntry, catalog, catalog_ids
from athena.fitness import FitnessAssessment, assess, parse_manual
from athena.models import builtin
from athena.models import simulate
from athena.search import encode_inputs
from athena.signals import InterpolationKind
from athena.stl import formula_horizon, parse

AT_IDS = ("AT1", "AT2", "AT6a", "AT6b", "AT6c")
CC_IDS = ("CC1", "CC2", "CC3", "CC4", "CC5", "CCx")


class TestCatalogListing:
    def test_all_ids_present(self):
        assert catalog_ids() == AT_IDS + CC_IDS

    def test_unknown_id_lists_available(self):
        with pytest.raises(KeyError, match="AT1"):
            catalog("AT99")

    def test_lookup_is_value_stable(self):
        first = catalog("CC2")
        second = catalog("CC2")
        assert first is not second
        assert first.id == second.id
        assert first.formula == second.formula
        assert first.manual == second.manual
        assert first.assumption == second.assumption


class TestEntryStructure:
    @pytest.mark.parametrize("entry_id", AT_IDS + CC_IDS)
    def test_texts_parse_to_stored_trees(self, entry_id):
        entry = catalog(entry_id)
        assert parse(entry.formula_text) == entry.formula
        assert parse_manual(entry.manual_text) == entry.manual

    @pytest.mark.parametrize("entry_id", AT_IDS + CC_IDS)
    def test_assumption_matches_plant_inputs(self, entry_id):
        entry = catalog(entry_id)
        plant = entry.make_plant()
        names = tuple(p.port for p in entry.assumption.ports)
        assert names == plant.port_spec.inputs

    @pytest.mark.parametrize("entry_id", AT_IDS + CC_IDS)
    def test_scalar_fields(self, entry_id):
        entry = catalog(entry_id)
        assert isinstance(entry, CatalogEntry)
        assert entry.auto_scale > 0
        assert entry.step == 0.05
        assert entry.description

    @pytest.mark.parametrize("entry_id", AT_IDS)
    def test_at_assumption_shape(self, entry_id):
        throttle, brake = catalog(entry_id).assumption.ports
        assert (throttle.port, throttle.lo, throttle.hi, throttle.n) == ("Throttle", 0.0, 100.0, 7)
        assert (brake.port, brake.lo, brake.hi, brake.n) == ("Brake", 0.0, 325.0, 3)
        assert throttle.kind is InterpolationKind.PCHIP
        assert brake.kind is InterpolationKind.PCHIP

    @pytest.mark.parametrize("entry_id", CC_IDS)
    def test_cc_assumption_shape(self, entry_id):
        throttle, brake = catalog(entry_id).assumption.ports
        assert (throttle.port, throttle.lo, throttle.hi, throttle.n) == ("throttle", 0.0, 1.0, 7)
        assert (brake.port, brake.lo, brake.hi, brake.n) == ("brake", 0.0, 1.0, 3)


class TestHorizons:
    def test_at_grids_use_plant_horizon(self):
        for entry_id in AT_IDS:
            grid = catalog(entry_id).grid()
            assert grid.end == 50.0

    def test_nested_windows_extend_grid(self):
        assert catalog("CC4").grid().end == 115.0

    def test_plain_cc_grids(self):
        for entry_id in ("CC1", "CC2", "CC3", "CC5", "CCx"):
            grid = catalog(entry_id).grid()
            assert grid.end == 100.0

    @pytest.mark.parametrize("entry_id", AT_IDS + CC_IDS)
    def test_grid_covers_formula(self, entry_id):
        entry = catalog(entry_id)
        grid = entry.grid()
        assert formula_horizon(entry.formula) <= grid.end + 1e-9
        assert grid.step == entry.step


class TestEntriesRun:
    @pytest.mark.parametrize("entry_id", AT_IDS + CC_IDS)
    def test_zero_vector_assesses_finite(self, entry_id):
        entry = catalog(entry_id)
        grid = entry.grid()
        vector = np.zeros(entry.assumption.dim)
        inputs = encode_inputs(
            entry.assumption, entry.assumption.control_points(vector, grid), grid
        )
        sim = simulate(entry.make_plant(), inputs, grid)
        cfg = FitnessAssessment(
            formula=entry.formula,
            manual=entry.manual,
            p=0.5,
            auto_scale=entry.auto_scale,
        )
        value = assess(cfg, sim.trace,
                       controls=entry.assumption.control_points(vector, grid))
        assert np.isfinite(value.robustness)
        assert -1.0 <= value.combined <= 1.0

    def test_make_plant_returns_fresh_instances(self):
        entry = catalog("CC1")
        assert entry.make_plant() is not entry.make_plant()
        assert entry.make_plant().name == entry.plant_name
        assert builtin(entry.plant_name).name == entry.plant_name
