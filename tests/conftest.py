import io

import numpy as np
import pytest

from rolealign import Dataset, generate_formation, sample_dataset


def make_dataset(positions, agent_ids, **labels):
    """A Dataset from (S, N, 2) positions and agent ids, one row for every
    frame or one row per frame, keeping each frame's agent order as given.
    ``labels`` are Dataset label columns; ``frame_id`` defaults to 0..S-1.
    """
    pos = np.asarray(positions, dtype=float)
    ids = np.array(agent_ids, dtype=object)
    table, codes = np.unique(ids, return_inverse=True)
    labels.setdefault("frame_id", np.arange(len(pos)))
    return Dataset(positions=pos, agent_codes=codes.reshape(ids.shape),
                   agent_table=tuple(table), **labels)


@pytest.fixture(scope="session")
def easy_tgp():
    """A well-separated 6-role formation with 300 frames; fast to fit."""
    tmpl = generate_formation(6, separation=3.0, seed=11)
    ds, truth = sample_dataset(tmpl, 300, swap_rate=0.05, seed=11)
    return tmpl, ds, truth


@pytest.fixture
def written(tmp_path):
    """``written(write)`` runs ``write`` on an open StringIO and on a path,
    checks that both get the same text and that the StringIO is left open,
    and returns the text."""
    def write_both(write):
        buf = io.StringIO()
        write(buf)
        assert not buf.closed
        path = tmp_path / "written"
        write(path)
        assert path.read_bytes().decode("utf-8") == buf.getvalue()
        return buf.getvalue()
    return write_both


@pytest.fixture(scope="session")
def tiny_tgp():
    tmpl = generate_formation(4, separation=3.0, seed=3)
    ds, truth = sample_dataset(tmpl, 120, seed=3)
    return tmpl, ds, truth
