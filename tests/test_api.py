"""The package's public names, the fields of its model objects and their argument checks."""

import dataclasses
import re
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


THREE = tailcens.ordered_from_arrays([1.0, 2.0, 4.0], [1, 1, 1])


@pytest.mark.parametrize("make, message", [
    (lambda: tailcens.worms_estimator(THREE, 3), "k=3 out of range for sample size n=3"),
    (lambda: tailcens.mdpd_weights(THREE, 3), "k=3 out of range for sample size n=3"),
    (lambda: tailcens.sample_contaminated_censored(
        0, tailcens.ModelParams(gamma1=0.3, gamma2=0.7), tailcens.ContaminationSpec(), seed=0),
     "n must be >= 1"),
    (lambda: tailcens.asymptotic_ci(0.5, alpha=0.5, k=0,
                                    model=tailcens.ModelParams(gamma1=0.5, gamma2=1.5)),
     "k must be >= 1"),
    (lambda: tailcens.GaussianOracleConfig(grade=0.5), "grade must be >= 1"),
    (lambda: tailcens.sample_contaminated_censored(
        5, tailcens.ModelParams(gamma1=0.3, gamma2=0.7), tailcens.ContaminationSpec(), seed=-1),
     "seed must be >= 0"),
    (lambda: tailcens.sample_contaminated_censored(
        5, tailcens.ModelParams(gamma1=0.3, gamma2=0.7), tailcens.ContaminationSpec(), seed=0,
        replicate=-1),
     "replicate must be >= 0"),
], ids=["worms_estimator", "mdpd_weights", "sample_contaminated_censored", "asymptotic_ci",
        "GaussianOracleConfig", "sample_contaminated_censored-seed",
        "sample_contaminated_censored-replicate"])
def test_public_argument_checks_raise_value_error(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()
