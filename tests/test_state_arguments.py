"""Every public function that takes a state reads it through one reader, ``qstate._state``.

A ``PureStateVector``, which ``StateFamilySpec("haar_pure", ...).sample(i)``
returns, gives exactly what its ``to_density()`` gives; any other type than
it and ``QState`` raises a ``TypeError`` that names the type, never an
``AttributeError`` naming a private attribute.
"""

from dataclasses import asdict

import numpy as np
import pytest

import discordkit as dk
from discordkit import OptimizerConfig, ProjectiveMeasurement, StateFamilySpec
from discordkit.qstate import is_pure
from discordkit.verify import RELATIONS

CFG = OptimizerConfig(restarts=2, seed=1)
BASIS = ProjectiveMeasurement(0, np.eye(2))


def _plain(value):
    """A comparable form of a result: arrays and dataclasses as nested lists and dicts, by repr."""
    if isinstance(value, np.ndarray):
        return repr(value.tolist())
    if hasattr(value, "__dataclass_fields__"):
        return repr({k: _plain(v) for k, v in vars(value).items() if not k.startswith("_")})
    if isinstance(value, (tuple, list)):
        return repr([_plain(v) for v in value])
    return repr(value)


# Each public entry point that takes a state, on a state of the given subsystem count.
ENTRY_POINTS = {
    "spectrum": (2, dk.spectrum),
    "purify": (2, lambda s: dk.purify(s).amplitudes),
    "partial_trace": (2, lambda s: dk.partial_trace(s, 0).matrix),
    "von_neumann_entropy": (2, dk.von_neumann_entropy),
    "conditional_entropy": (2, lambda s: dk.conditional_entropy(s, 0, 1)),
    "is_pure": (2, is_pure),
    "purity": (2, dk.purity),
    "permute_subsystems": (2, lambda s: dk.permute_subsystems(s, (1, 0)).matrix),
    "tensor-left": (2, lambda s: dk.tensor(s, dk.QState((2,), np.eye(2) / 2.0)).matrix),
    "tensor-right": (2, lambda s: dk.tensor(dk.QState((2,), np.eye(2) / 2.0), s).matrix),
    "state_to_json": (2, dk.state_to_json),
    "mutual_information": (2, dk.mutual_information),
    "min_conditional_entropy": (2, lambda s: dk.min_conditional_entropy(s, 1, CFG)),
    "classical_correlation": (2, lambda s: dk.classical_correlation(s, 0, CFG)),
    "discord": (2, lambda s: dk.discord(s, 1, CFG)),
    "discord_distance": (2, lambda s: dk.discord_distance(s, CFG)),
    "re_discord": (2, lambda s: dk.re_discord(s, 0, CFG)),
    "re_discord_detailed": (3, lambda s: dk.re_discord_detailed(s, (1, 2), CFG)),
    "correlation_report": (2, lambda s: dk.correlation_report(s, CFG).to_json()),
    "concurrence_2qubit": (2, dk.concurrence_2qubit),
    "eof_2qubit": (2, dk.eof_2qubit),
    "eof_pure": (2, dk.eof_pure),
    "eof_upper": (2, lambda s: dk.eof_upper(s, cfg=CFG)),
    "apply_measurement": (2, lambda s: dk.apply_measurement(s, BASIS)),
    "dephase": (2, lambda s: dk.dephase(s, BASIS).matrix),
    **{f"check-{name}": (3 if name == "thm3" else 2, lambda s, check=check: asdict(check(s, CFG)))
       for name, check in RELATIONS.items()},
}


def _sample(n_subsystems: int):
    return StateFamilySpec("haar_pure", {"dims": (2,) * n_subsystems}, 7).sample(0)


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_a_pure_state_vector_reads_as_its_density(name):
    n_subsystems, entry = ENTRY_POINTS[name]
    vector = _sample(n_subsystems)
    assert isinstance(vector, dk.PureStateVector)
    assert _plain(entry(vector)) == _plain(entry(vector.to_density()))


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_any_other_type_is_a_type_error_naming_it(name):
    _n_subsystems, entry = ENTRY_POINTS[name]
    with pytest.raises(TypeError, match="list"):
        entry([[1.0, 0.0], [0.0, 0.0]])
