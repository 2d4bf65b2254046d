"""Result-file text: the JSON and CSV writers against the standard library."""

import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frechet_sets import result_files
from frechet_sets.lln_lab import ExperimentResult, write_results_csv

_EDGE_FLOATS = (-0.0, 5e-324, 1.7976931348623157e308, math.nan, math.inf, -math.inf)

_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**100), max_value=2**100)
    | st.floats()
    | st.sampled_from(_EDGE_FLOATS)
    | st.text()
)

_json_values = st.recursive(
    _scalars | st.just({}) | st.just([]),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_json_values)
def test_json_chunks_match_json_dumps(value):
    # st.text() draws non-ASCII and control characters in values and keys,
    # and the recursion puts empty containers at every depth
    expected = json.dumps(value, sort_keys=True, indent=2)
    assert "".join(result_files.json_chunks(value)) == expected


@pytest.mark.parametrize(
    "value",
    [
        {"b": [1, {"z": [], "a": {}}], "a": {"x": [2**70, -0.0, math.nan]}},
        {3: [1], 10: {"k": [True, None]}},  # int keys, sorted as ints
        {1.5: [1], -0.0: {}, math.inf: [2]},
        {True: [1], False: [None]},
        {None: [{"é\x01": "☃\n"}]},
        [[], [[]], [{}], {"": [""]}],
        "é",
        5e-324,
    ],
)
def test_write_json_writes_the_bytes_of_json_dump(tmp_path, value):
    path = tmp_path / "out.json"
    result_files.write_json(value, path)
    with open(tmp_path / "ref.json", "w") as fh:
        json.dump(value, fh, sort_keys=True, indent=2)
        fh.write("\n")
    assert path.read_bytes() == (tmp_path / "ref.json").read_bytes()


def test_json_keys_json_cannot_write_raise_type_error():
    with pytest.raises(TypeError):
        json.dumps({(1, 2): [1]}, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        "".join(result_files.json_chunks({(1, 2): [1]}))


def _csv_writer_text(results):
    # the long-format rows as csv.writer writes them, in the writer's order
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["experiment", "seed", "n", "metric", "value"])
    for result in results:
        for record in result.records:
            for key in sorted(record):
                if key != "n":
                    writer.writerow([result.experiment, result.seed, record["n"], key, record[key]])
    return buf.getvalue()


_names = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters=',"\r\n'),
    min_size=1,
    max_size=8,
)
_numbers = st.integers(min_value=-(2**70), max_value=2**70) | st.floats() | st.sampled_from(_EDGE_FLOATS)
_records = st.lists(
    st.builds(
        lambda n, metrics: {**metrics, "n": n},
        st.integers(min_value=1, max_value=2**40),
        st.dictionaries(_names.filter(lambda name: name != "n"), _numbers, max_size=5),
    ),
    max_size=5,
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.builds(
            lambda experiment, seed, records: ExperimentResult(experiment, seed, {}, records, {}),
            _names,
            st.integers(min_value=0, max_value=2**64 - 1),
            _records,
        ),
        max_size=3,
    )
)
def test_csv_chunks_match_csv_writer(results):
    assert "".join(result_files.csv_chunks(results)) == _csv_writer_text(results)


@pytest.mark.parametrize(
    "value", ["0.5", True, None, np.float64(0.5), np.int64(1), [1.0]], ids=repr
)
def test_csv_rejects_a_value_that_is_not_an_int_or_float(tmp_path, value):
    result = ExperimentResult("median", 0, {}, [{"n": 1, "d_haus": 0.0, "walk0": value}], {})
    with pytest.raises(ValueError, match="'walk0'"):
        write_results_csv([result], str(tmp_path / "out.csv"))


@pytest.mark.parametrize("name", ["d,haus", 'd"haus', "d\nhaus", "d\rhaus"], ids=repr)
def test_csv_rejects_a_name_that_would_need_quoting(tmp_path, name):
    metric = ExperimentResult("median", 0, {}, [{"n": 1, name: 0.0}], {})
    with pytest.raises(ValueError, match="metric name"):
        write_results_csv([metric], str(tmp_path / "metric.csv"))
    experiment = ExperimentResult(name, 0, {}, [{"n": 1, "d_haus": 0.0}], {})
    with pytest.raises(ValueError, match="experiment name"):
        write_results_csv([experiment], str(tmp_path / "experiment.csv"))
