import dataclasses

import brownian_transport as bt


def test_star_import_names_only_existing_objects():
    namespace = {}
    exec("from brownian_transport import *", namespace)
    assert set(bt.__all__) <= set(namespace)


def test_density_measure_is_pieces_and_mass():
    names = [f.name for f in dataclasses.fields(bt.DensityMeasure)]
    assert names == ["pieces", "total_mass"]
