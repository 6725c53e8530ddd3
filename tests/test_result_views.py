"""Result extraction (``CompiledModel._collect_results``) and its wire form.

An engine run fills flat ``results``/``monitor`` buffers; extraction turns
each into one float64 array and hands out views of it.  These tests pin that
the views carry exactly the buffer values (the served JSON of every
registered model equals one built by plain list slicing of the raw buffers),
that distinct trials and batch elements never alias, and that the wire form
round-trips bitwise.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro
from repro.fuzz.compare import raw_buffers
from repro.models import MODEL_REGISTRY, get_model
from repro.serve.protocol import results_from_wire, results_to_wire

MODELS = sorted(MODEL_REGISTRY)


def reference_trials(layout, results, monitor, num_trials):
    """The wire ``trials`` list built by slicing the raw buffer lists."""
    record_size = layout.result_record_size()
    trials = []
    for trial in range(num_trials):
        record = results[trial * record_size : (trial + 1) * record_size]
        passes = int(record[layout.result_size])
        outputs = {
            name: [float(v) for v in record[offset : offset + size]]
            for name, (offset, size) in layout.result_layout.items()
        }
        monitored = {}
        if layout.monitor_size:
            for name, (offset, size) in layout.monitor_layout.items():
                monitored[name] = []
                for step in range(passes):
                    slot = (trial * layout.max_passes + step) * layout.monitor_size + offset
                    monitored[name].append([float(v) for v in monitor[slot : slot + size]])
        trials.append({"passes": passes, "outputs": outputs, "monitored": monitored})
    return trials


@pytest.fixture(scope="module")
def runs():
    """name -> (compiled model, registry entry), compiled once per module."""
    out = {}
    for name in MODELS:
        entry = get_model(name)
        model = repro.compile(entry.build()).model
        out[name] = (model, entry)
    return out


@pytest.mark.parametrize("name", MODELS)
def test_wire_trials_equal_list_slices_of_the_raw_buffers(runs, name):
    model, entry = runs[name]
    trials = entry.num_trials
    results, monitor, _state = raw_buffers(model, entry.inputs(), trials, 3, "compiled")
    extracted = model._collect_results(
        {"results": list(results), "monitor": list(monitor)}, trials, "compiled"
    )
    wire = results_to_wire(extracted)["trials"]
    reference = reference_trials(model.layout, results, monitor, trials)
    # JSON spells every double exactly (repr, NaN, -0.0): equal text is
    # bitwise-equal values.
    assert json.dumps(wire) == json.dumps(reference)


@pytest.mark.parametrize("name", ["botvinick_stroop", "necker_cube_s"])
def test_trials_and_batch_elements_do_not_share_memory(runs, name):
    model, entry = runs[name]
    first, second = model.run_batch([entry.inputs()] * 2, num_trials=2, seed=[0, 1])
    arrays = []
    for results in (first, second):
        for trial in results.trials:
            arrays.append(list(trial.outputs.values()))
    for i, left in enumerate(arrays):
        for right in arrays[i + 1 :]:
            for a in left:
                for b in right:
                    assert not np.shares_memory(a, b)
    # Series of one trial are rows of one block, but never overlap.
    trial = first.trials[0]
    series = [step for steps in trial.monitored.values() for step in steps]
    series += list(trial.outputs.values())
    for i, a in enumerate(series):
        for b in series[i + 1 :]:
            assert not np.shares_memory(a, b)


@pytest.mark.parametrize("name", MODELS)
def test_wire_round_trip_is_bitwise(runs, name):
    model, entry = runs[name]
    results = model.run(entry.inputs(), num_trials=entry.num_trials, seed=5)
    back = results_from_wire(results_to_wire(results))
    assert back.model_name == results.model_name and back.engine == results.engine
    assert len(back.trials) == len(results.trials)
    for got, want in zip(back.trials, results.trials):
        assert got.passes == want.passes
        assert got.outputs.keys() == want.outputs.keys()
        for key, value in want.outputs.items():
            assert got.outputs[key].tobytes() == value.tobytes(), key
        assert got.monitored.keys() == want.monitored.keys()
        for key, steps in want.monitored.items():
            assert len(got.monitored[key]) == len(steps)
            for got_step, step in zip(got.monitored[key], steps):
                assert got_step.tobytes() == step.tobytes(), key
