"""Input checks of the library and the CLI that no other test reaches.

Each case asserts the exception class and its whole message.
"""

import json

import numpy as np
import pytest

import qestgeo as qg
from qestgeo import estimation, geometry, hilbert, holonomy, model, symmetry
from qestgeo.cli import main
from qestgeo.errors import (
    MeasurementDefinitionError,
    SpaceMismatchError,
    UnsupportedSpaceError,
)
from qestgeo.hilbert import BasisSpace, GridSpace, StateVector

B2 = BasisSpace(2)
UP = StateVector(B2, [1.0, 0.0])
G4 = GridSpace(4, 0.0, 1.0)
MOMENTUM = hilbert.momentum_transform(StateVector(G4, [1.0, 0.0, 0.0, 0.0]))
BLOCH = qg.catalog("bloch")
SPIN = qg.catalog("spin_jz", {"amplitudes": [0.6, 0.8]})
PROFILES = "['boosted_gaussian', 'chirped_gaussian', 'gaussian', 'hermite', 'two_well']"

# (id, call, exception class, message)
CHECKS = [
    ("projector_povm_empty", lambda: estimation.ProjectorPovm([]),
     MeasurementDefinitionError, "projector POVM needs at least one vector"),
    ("projector_povm_not_orthonormal", lambda: estimation.ProjectorPovm([UP, UP]),
     MeasurementDefinitionError, "projector POVM vectors are not orthonormal"),
    ("sample_counts_no_draw", lambda: estimation.sample_counts(estimation.grid_pvm(B2), UP, 0, 1),
     ValueError, "need n >= 1 draws"),
    ("sample_outcomes_no_draw",
     lambda: estimation.sample_outcomes(estimation.grid_pvm(B2), UP, 0, 1),
     ValueError, "need n >= 1 draws"),
    ("weight_not_square", lambda: geometry.WeightMatrix(np.ones((2, 3))),
     ValueError, "weight must be a square matrix"),
    ("d_via_projection_shape",
     lambda: geometry.d_via_projection(BLOCH.horizontal_lift((1.0, 0.3)), [1.0]),
     ValueError, "tangent coefficients must have shape (2,)"),
    ("basis_space_empty", lambda: BasisSpace(0), ValueError, "dimension must be >= 1"),
    ("basis_space_labels", lambda: BasisSpace(2, labels=("a",)),
     ValueError, "labels length must match dimension"),
    ("grid_space_one_point", lambda: GridSpace(1, 0.0, 1.0),
     ValueError, "n_points must be >= 2"),
    ("grid_space_empty_span", lambda: GridSpace(4, 1.0, 1.0),
     ValueError, "upper must exceed lower"),
    ("state_vector_shape", lambda: StateVector(B2, [1.0, 0.0, 0.0]),
     SpaceMismatchError, "amplitudes have shape (3,), space has dimension 2"),
    ("state_vector_normalize_zero", lambda: StateVector(B2, [0.0, 0.0], normalize=True),
     ValueError, "cannot normalize the zero vector"),
    ("projector_not_normalized", lambda: hilbert.projector(StateVector(B2, [1.0, 1.0])),
     ValueError, "state norm drifts from 1 by 4.142e-01 (tol 1.0e-08)"),
    ("complete_basis_empty", lambda: hilbert.complete_basis([]),
     ValueError, "need at least one vector"),
    ("inverse_momentum_target", lambda: hilbert.inverse_momentum_transform(MOMENTUM, B2),
     UnsupportedSpaceError, "target of the inverse transform must be a grid"),
    ("inverse_momentum_state", lambda: hilbert.inverse_momentum_transform(UP, G4),
     UnsupportedSpaceError, "inverse transform needs a momentum grid state"),
    ("inverse_momentum_size",
     lambda: hilbert.inverse_momentum_transform(MOMENTUM, GridSpace(8, 0.0, 1.0)),
     SpaceMismatchError, "momentum and position grids must share n_points"),
    ("curvature_check_one_parameter", lambda: holonomy.curvature_check(SPIN, (0.1,), 0, 0, 0.1),
     ValueError, "curvature check needs at least two parameters"),
    ("tangent_component_above", lambda: BLOCH.tangent((1.0, 0.3), 2),
     IndexError, "component 2 out of range for m=2"),
    ("tangent_component_negative", lambda: BLOCH.tangent((1.0, 0.3), -1),
     IndexError, "component -1 out of range for m=2"),
    ("rephased_without_gradient", lambda: model.rephased(BLOCH, lambda theta: theta[0]),
     ValueError, "grad_alpha is required to rephase an analytic model"),
    ("hermite_negative", lambda: model.hermite_profile(-1), ValueError, "n must be >= 0"),
    ("profile_unknown", lambda: model.make_profile("airy"),
     ValueError, f"unknown profile 'airy'; known: {PROFILES}"),
    ("ring_flux_open_grid",
     lambda: qg.catalog("ring_flux", {"grid": {"n": 16, "lower": 0, "upper": 6,
                                               "periodic": False}}),
     ValueError, "ring_flux requires a periodic grid"),
    ("antiunitary_shape", lambda: symmetry.AntiunitaryOp(np.eye(3), B2),
     ValueError, "unitary part must be 2x2"),
    ("antiunitary_not_unitary", lambda: symmetry.AntiunitaryOp(2.0 * np.eye(2), B2),
     ValueError, "unitary part is not unitary within 1e-08"),
    ("antiunitary_other_space",
     lambda: symmetry.AntiunitaryOp(np.eye(2), B2).apply(
         StateVector(BasisSpace(2, labels=("a", "b")), [1.0, 0.0])),
     UnsupportedSpaceError, "state lives on a different space"),
    ("conjugation_no_basis", lambda: symmetry.conjugation_in_basis([]),
     ValueError, "need a basis"),
    ("conjugation_partial_basis", lambda: symmetry.conjugation_in_basis([UP]),
     ValueError, "basis has 1 vectors, space dimension is 2; complete it first"),
    ("conjugation_not_orthonormal", lambda: symmetry.conjugation_in_basis([UP, UP]),
     ValueError, "basis is not orthonormal within 1e-08"),
    ("time_reversal_basis", lambda: symmetry.time_reversal(UP),
     UnsupportedSpaceError, "time reversal acts on grid states"),
    ("generalized_time_reversal_basis",
     lambda: symmetry.generalized_time_reversal(lambda p: p, UP),
     UnsupportedSpaceError, "generalized time reversal acts on grid states"),
    ("motion_reversal_basis", lambda: symmetry.motion_reversal_op(B2),
     UnsupportedSpaceError, "motion reversal acts on grid spaces"),
    ("momentum_symmetry_basis", lambda: symmetry.momentum_symmetry_check(UP),
     UnsupportedSpaceError, "momentum symmetry check needs a grid state"),
]


@pytest.mark.parametrize("call, cls, message", [case[1:] for case in CHECKS],
                         ids=[case[0] for case in CHECKS])
def test_check_raises(call, cls, message):
    with pytest.raises(cls) as info:
        call()
    assert type(info.value) is cls
    assert str(info.value) == message


def test_no_points_give_no_reports():
    assert geometry.analyze_many(BLOCH, np.empty((0, 2))) == []


def test_no_vectors_give_no_basis():
    assert hilbert.gram_schmidt_real([]) == []


def holonomy_run(capsys, tmp_path, thetas):
    (tmp_path / "spin.json").write_text(json.dumps(
        {"kind": "catalog", "name": "spin_jz", "params": {"amplitudes": [0.6, 0.8]}}))
    (tmp_path / "loop.json").write_text(json.dumps({"thetas": thetas}))
    code = main(["holonomy", "--model", str(tmp_path / "spin.json"),
                 "--loop", str(tmp_path / "loop.json")])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_a_loop_of_mixed_scalar_and_listed_points_runs_as_listed(capsys, tmp_path):
    listed = holonomy_run(capsys, tmp_path, [[0.1], [0.2], [0.3]])
    assert listed[0] == 0 and listed[2] == ""
    assert holonomy_run(capsys, tmp_path, [0.1, [0.2], 0.3]) == listed


def test_a_loop_of_nested_points_is_the_model_shape_error(capsys, tmp_path):
    assert holonomy_run(capsys, tmp_path, [[[0.1]], [[0.2]]]) == (
        2, "", "qestgeo: spec error: theta has shape (1, 1), model expects (1,)\n")
