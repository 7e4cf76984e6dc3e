"""Contract of the package's records, the ``@dataclass`` classes: they are
frozen, their repr is the one ``dataclasses`` writes (the memo keys of the
seed-free stages hold it), and they compare and hash by their fields, except
the eight results and tables that compare by identity. An array field holds a
read-only array whose memory no other array shares.

The instances come from the packaged defaults and one run of them, so every
record is checked with the values the pipeline gives it."""

import dataclasses
import importlib
import pkgutil
from dataclasses import FrozenInstanceError, asdict, fields, replace

import numpy as np
import pytest

import spdcfilm
from spdcfilm import bell, load_config, run_experiment
from spdcfilm.bell import default_chsh_settings
from spdcfilm.config import PumpConfig
from spdcfilm.crystal import SpdcResult
from spdcfilm.materials import ConstantIndex, load_material
from spdcfilm.tomography import default_protocol

#: the records that compare and hash by identity: results whose ``encoded()``
#: caches by identity, and the tables and results made with their arrays
IDENTITY = {"ChshSettings", "Protocol", "SourceModel", "SpectralSection", "DelayScan",
            "TomographyResult", "CoincidenceRecords", "SpdcResult"}

#: the methods a class inherits from the record base, which the decorator
#: would otherwise generate and ``exec`` for each class at import
INHERITED = ("__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__")


def _package_dataclasses() -> dict:
    """name -> class of every ``@dataclass`` class defined in the package."""
    found = {}
    for info in pkgutil.iter_modules(spdcfilm.__path__):
        module = importlib.import_module(f"spdcfilm.{info.name}")
        for value in vars(module).values():
            if (isinstance(value, type) and value.__module__ == module.__name__
                    and dataclasses.is_dataclass(value)):
                found[value.__name__] = value
    return found


def _walk(obj, seen: dict):
    """Record ``obj`` and every record reachable through its fields, lists
    and tuples, the first instance of each class kept."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        seen.setdefault(type(obj).__name__, obj)
        for f in fields(obj):
            _walk(getattr(obj, f.name), seen)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _walk(item, seen)


@pytest.fixture(scope="module")
def instances() -> dict:
    """class name -> one instance of each package record."""
    cfg = load_config()
    seen = {}
    for obj in (cfg, run_experiment(cfg, 3), default_protocol(), default_chsh_settings(),
                load_material("calcite_o"), ConstantIndex(1.5)):
        _walk(obj, seen)
    return seen


def _twin(obj):
    """An instance, with the same field values, of a subclass of ``obj``'s class."""
    twin_class = type(f"Twin{type(obj).__name__}", (type(obj),), {})
    return twin_class(**{f.name: getattr(obj, f.name) for f in fields(obj)})


def _dataclasses_repr(obj) -> str:
    """The repr ``dataclasses`` generates: the class's qualified name and each
    field's ``name=repr(value)``."""
    items = ", ".join(f"{f.name}={getattr(obj, f.name)!r}" for f in fields(obj))
    return f"{type(obj).__qualname__}({items})"


def test_every_package_record_is_checked(instances):
    classes = _package_dataclasses()
    assert len(classes) == 30
    assert set(instances) == set(classes)
    assert IDENTITY <= set(classes)


@pytest.mark.parametrize("name", sorted(_package_dataclasses()))
def test_record_is_frozen(instances, name):
    obj = instances[name]
    for f in fields(obj):
        before = getattr(obj, f.name)
        with pytest.raises(FrozenInstanceError):
            setattr(obj, f.name, before)
        with pytest.raises(FrozenInstanceError):
            delattr(obj, f.name)
        assert getattr(obj, f.name) is before
    with pytest.raises(FrozenInstanceError):
        obj.not_a_field = 1
    assert "not_a_field" not in vars(obj)


@pytest.mark.parametrize("name", sorted(_package_dataclasses()))
def test_record_repr_is_the_dataclasses_format(instances, name):
    obj = instances[name]
    assert repr(obj) == _dataclasses_repr(obj)
    assert repr(_twin(obj)).startswith(f"Twin{name}(")


@pytest.mark.parametrize("name", sorted(_package_dataclasses()))
def test_record_equality_and_hash(instances, name):
    obj = instances[name]
    copy = replace(obj)
    assert copy is not obj and obj == obj
    assert obj != _twin(obj) and _twin(obj) != obj
    if name in IDENTITY:
        assert obj != copy
        assert hash(obj) == object.__hash__(obj)
        return
    assert obj == copy and not obj != copy
    values = tuple(getattr(obj, f.name) for f in fields(obj))
    assert hash(obj) == hash(copy) == hash(values)


def test_signed_zero_shows_in_repr_but_not_in_equality():
    plus, minus = PumpConfig(405.0, 0.0), PumpConfig(405.0, -0.0)
    assert repr(plus) == "PumpConfig(wavelength_nm=405.0, angle_deg=0.0)"
    assert repr(minus) == "PumpConfig(wavelength_nm=405.0, angle_deg=-0.0)"
    assert plus == minus and hash(plus) == hash(minus)


def test_value_records_differ_when_a_field_differs(instances):
    pump = instances["PumpConfig"]
    other = replace(pump, angle_deg=pump.angle_deg + 1.0)
    assert other != pump and not other == pump
    assert pump != (pump.wavelength_nm, pump.angle_deg)
    assert pump.__eq__(object()) is NotImplemented


def test_fields_replace_and_asdict_still_apply(instances):
    cfg = instances["ExperimentConfig"]
    assert [f.name for f in fields(cfg.pump)] == ["wavelength_nm", "angle_deg"]
    assert asdict(cfg.pump) == {"wavelength_nm": cfg.pump.wavelength_nm,
                                "angle_deg": cfg.pump.angle_deg}
    moved = replace(cfg, pump=replace(cfg.pump, angle_deg=22.5))
    assert moved.pump.angle_deg == 22.5 and cfg.pump.angle_deg != 22.5
    assert moved.crystal is cfg.crystal


@pytest.mark.parametrize("name", sorted(_package_dataclasses()))
def test_record_inherits_its_methods(name):
    # a class that defines one of these itself (``frozen=True``, or ``eq`` or
    # ``repr`` left on) has the decorator generate it again at import
    cls = _package_dataclasses()[name]
    assert [method for method in INHERITED if method in vars(cls)] == []


@pytest.mark.parametrize("name", sorted(_package_dataclasses()))
def test_record_arrays_are_read_only_and_their_own(instances, name):
    obj = instances[name]
    arrays = [a for a in vars(obj).values() if isinstance(a, np.ndarray)]
    for a in arrays:
        assert not a.flags.writeable and a.flags.owndata
        with pytest.raises(ValueError):
            a.flat[0] = 0
    assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[:i])


def test_record_copies_an_array_unless_it_is_read_only_and_its_own():
    given = np.array([0.6, 0.8, 0.0], dtype=complex)
    view = given.view()
    view.flags.writeable = False
    own = given.copy()
    own.flags.writeable = False
    held = {name: SpdcResult(state=a, relative_rate=1.0).state
            for name, a in (("given", given), ("view", view), ("own", own))}
    assert held["own"] is own and held["given"] is not given and held["view"] is not view
    for a in held.values():
        assert not a.flags.writeable and a.flags.owndata
    given[0] = 0.0  # an edit the view shows, and neither copy
    assert view[0] == 0.0 and held["given"][0] == held["view"][0] == 0.6


def test_chsh_observables_and_run_arrays_are_not_writable(instances):
    # the CHSH table holds a copy of the module's S1: an edit of either can
    # neither reach the other nor leave the table's correlators stale
    a = default_chsh_settings().a
    assert a is not bell.S1 and not np.shares_memory(a, bell.S1)
    tomography = instances["TomographyResult"]
    for held in (a, tomography.rho, tomography.counts, tomography.records.raw):
        with pytest.raises(ValueError):
            held.flat[0] = 0
