"""The package's public names, and the fields of its model objects."""

import dataclasses
import types

import pytest

import tailcens


def test_all_lists_exactly_the_public_names_the_package_imports():
    public = {name for name, obj in vars(tailcens).items()
              if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert len(tailcens.__all__) == len(set(tailcens.__all__))
    assert set(tailcens.__all__) == public


@pytest.mark.parametrize("name", ["AsymptoticConstants", "censored_proportion", "phi_star"])
def test_removed_name_is_not_an_attribute_of_the_package(name):
    with pytest.raises(AttributeError):
        getattr(tailcens, name)


@pytest.mark.parametrize("cls, names", [
    (tailcens.ModelParams, ["gamma1", "gamma2", "eta"]),
    (tailcens.ContaminationSpec, ["epsilon", "theta1"]),
    (tailcens.SweepResult, ["rows", "workers"]),
])
def test_each_model_parameter_is_stored_once(cls, names):
    assert [field.name for field in dataclasses.fields(cls)] == names
