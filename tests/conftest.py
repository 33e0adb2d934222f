import pytest

from attlab.convnet import Provenance, Seeds
from attlab.passlog import write_passlog
from attlab.synth import default_catalog, synth_pass


@pytest.fixture(scope="session")
def catalog_logs():
    return [synth_pass(sc) for sc in default_catalog()]


@pytest.fixture(scope="session")
def catalog_dir(tmp_path_factory, catalog_logs):
    d = tmp_path_factory.mktemp("catalog")
    paths = []
    for log in catalog_logs:
        p = d / f"{log.pass_id}.csv"
        write_passlog(log, p)
        paths.append(p)
    return d, paths


@pytest.fixture
def make_provenance():
    """Builds a whole ``Provenance``: training passes P1..P4, test pass P5."""
    def make(case_id="C1a", gyro_scale=1.0, seed_name="R1", window=5):
        return Provenance(case_id=case_id, gyro_scale=gyro_scale, seed_name=seed_name,
                          seeds=Seeds.of(seed_name), train_pass_ids=("P1", "P2", "P3", "P4"),
                          test_pass_id="P5", window=window)

    return make
