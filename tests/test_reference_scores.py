"""The benchmark's `eval-wide` workload checks the program's scores against
a plain-numpy forward pass, perfbench/reference.py, which reads the model's
fields by name. This runs that check on a small world, so a refactor that
breaks the reference fails here first. The source is exec'd instead of
imported, so no bytecode is written next to it.
"""

import types
from pathlib import Path

import numpy as np

from ovml.model import fixed_table, init_model, score_batch
from ovml.synth import build_world, sample

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"


def test_reference_scores_match_score_batch():
    module = types.ModuleType("perfbench_reference")
    exec(compile(REFERENCE.read_text(), str(REFERENCE), "exec"), module.__dict__)
    world = build_world(12, 0.75, 0)
    test = sample(world, 4, world.split.all_ids, 0, stream="sample.test")
    model = init_model(0, world)
    table = fixed_table(model)
    got = score_batch(model, test.images, table).scores
    want = np.stack([module.reference_scores(model, image, table.matrix()) for image in test.images])
    assert np.abs(got - want).max() <= 1e-9
