"""The record classes behave as immutable values: built from their fields
by position or keyword, equal and hashed by field tuple within one class,
shown as `Name(field=value, ...)`, and closed to assignment."""

import pytest

from finsite.catalog import zmod
from finsite.finset import (FinSet, asc, asc_presentation, finset,
                            finset_glue_space, monodromy_wedge_counterexample)
from finsite.glue import glue_space, glued_chain, is_monodromy_free
from finsite.locales import frame_of_opens
from finsite.semiring import _Record, diagonal_congruence, localize
from finsite.site import CoverFamily, cover_family
from finsite.spectra import prime_spectrum, visualization_chain
from finsite.topology import ContinuousMap

from oracles import (FrameMorphism, atlas, closed_walks, frame_morphism,
                     identity_hom, identity_injection, open_subscheme)


def one_of_each():
    """One record of every record class, each built through the public
    API."""
    R = zmod(6)
    spec = prime_spectrum(R)
    cover = cover_family(R, [2, 3])
    P = atlas(cover)
    K = asc("a b c".split(), [["a", "b"], ["b", "c"]])
    A = finset(("x", "y"))
    L = frame_of_opens(spec.space)
    return [R, identity_hom(R), diagonal_congruence(R), localize(R, 2),
            spec.space, visualization_chain(R).maps[0], spec,
            visualization_chain(R), cover,
            open_subscheme(R, [2]), P, closed_walks(P)[0],
            is_monodromy_free(P), glue_space(P), glued_chain(P), A,
            identity_injection(A), K, asc_presentation(K),
            finset_glue_space(asc_presentation(K)),
            monodromy_wedge_counterexample(), L,
            frame_morphism(L, L, range(L.n))]


RECORDS = one_of_each()


def fields_of(record):
    return type(record)._fields


def record_classes(base=_Record):
    """The public finsite classes below base, through private bases."""
    for cls in base.__subclasses__():
        if cls.__module__.startswith("finsite."):
            if not cls.__name__.startswith("_"):
                yield cls
            yield from record_classes(cls)


def test_every_record_class_has_an_instance():
    # frame maps are built in `oracles`, beside the tests that use them
    assert {type(r) for r in RECORDS} == \
        set(record_classes()) | {FrameMorphism}
    assert len(RECORDS) == 23


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_contract(record):
    cls = type(record)
    names = fields_of(record)
    values = tuple(getattr(record, f) for f in names)
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    assert by_position == record == by_keyword
    assert not by_position != record
    assert hash(by_position) == hash(record) == hash(values)
    twin = type("Twin", (_Record,), {"__annotations__": dict.fromkeys(
        names)})(*values)
    assert twin != record and record != twin
    if cls.__repr__ is _Record.__repr__:
        assert repr(record) == (f"{cls.__qualname__}(" + ", ".join(
            f"{f}={v!r}" for f, v in zip(names, values)) + ")")
    for name, value in zip(names, values):
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    with pytest.raises(AttributeError):
        delattr(record, names[-1])
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})


def test_records_of_different_classes_with_equal_fields_differ():
    R = zmod(6)
    cong = diagonal_congruence(R)
    hom = identity_hom(R)
    space = prime_spectrum(R).space
    assert CoverFamily(R, cong.blocks) != cong
    assert ContinuousMap(R, R, hom.images) != hom
    assert FinSet(space.points) != ContinuousMap(space, space, ()) != space


def test_repr_reads_as_the_constructor_call():
    A = finset(("x", "y"))
    assert repr(A) == "FinSet(labels=('x', 'y'))"
    assert repr(identity_injection(A)) == (
        "Injection(source=FinSet(labels=('x', 'y')), "
        "target=FinSet(labels=('x', 'y')), images=(0, 1))")


def test_equal_frame_maps_are_equal_and_hash_alike():
    L = frame_of_opens(prime_spectrum(zmod(6)).space)
    ids = range(L.n)
    assert frame_morphism(L, L, ids) == frame_morphism(L, L, ids)
    assert hash(frame_morphism(L, L, ids)) == hash(frame_morphism(L, L, ids))
