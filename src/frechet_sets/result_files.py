"""Result-file text: indented JSON through the C encoder, and CSV rows.

``write_json`` writes the bytes of ``json.dump(value, fh, sort_keys=True,
indent=2)`` plus a final newline. ``json.dump`` with an indent always runs
the pure-Python encoder; here every container whose children are all
scalars is one call of the C encoder, whose item separator carries the
newline and indent of its depth, and only containers that hold containers
are walked in Python. ``csv_chunks`` formats the long-format rows that
``csv.writer`` would write for numeric values.
"""

from __future__ import annotations

import json
from functools import cache
from itertools import repeat
from typing import Iterable, Iterator

_CONTAINERS = (dict, list, tuple)

#: Characters that would make ``csv.writer`` quote a field.
_QUOTED = frozenset(',"\r\n')

#: The value types whose text is the same from ``csv.writer`` and ``str``.
_NUMBERS = (int, float)


@cache
def _encode_at(depth: int):
    """C-encoder ``encode`` for a flat container at nesting depth ``depth``."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * (depth + 1), ": ")).encode


def _key_text(key, encode) -> str:
    if isinstance(key, str):
        return encode(key)
    if key is None or isinstance(key, (int, float)):  # json writes these keys as their JSON text
        return '"' + encode(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def json_chunks(value, depth: int = 0) -> Iterator[str]:
    """The text of ``json.dumps(value, sort_keys=True, indent=2)``, in pieces."""
    encode = _encode_at(depth)
    if not isinstance(value, _CONTAINERS):
        yield encode(value)
        return
    is_dict = isinstance(value, dict)
    children = value.values() if is_dict else value
    if not children:
        yield "{}" if is_dict else "[]"
        return
    inner = "\n" + "  " * (depth + 1)
    close = "\n" + "  " * depth + ("}" if is_dict else "]")
    if not any(map(isinstance, children, repeat(_CONTAINERS))):
        text = encode(value)
        yield text[0] + inner + text[1:-1] + close
        return
    sep = ("{" if is_dict else "[") + inner
    if is_dict:
        for key, child in sorted(value.items()):
            yield sep + _key_text(key, encode) + ": "
            yield from json_chunks(child, depth + 1)
            sep = "," + inner
    else:
        for child in value:
            yield sep
            yield from json_chunks(child, depth + 1)
            sep = "," + inner
    yield close


def write_json(value, path) -> None:
    """Write ``value`` as sorted, 2-space indented JSON and a final newline."""
    with open(path, "w") as fh:
        fh.writelines(json_chunks(value))
        fh.write("\n")


def _check_name(name: str, what: str) -> None:
    if not _QUOTED.isdisjoint(name):
        raise ValueError(f"{what} {name!r} would need CSV quoting")


def csv_chunks(results: Iterable) -> Iterator[str]:
    """The CSV text ``csv.writer`` writes for the rows (experiment, seed, n,
    metric, value) of every record, header first, one chunk per record.

    Every value must be exactly an ``int`` or a ``float``, whose text is the
    one ``csv.writer`` writes, and no name may need quoting; anything else
    raises ``ValueError``.
    """
    yield "experiment,seed,n,metric,value\r\n"
    checked = set()
    for result in results:
        experiment = result.experiment
        _check_name(experiment, "experiment name")
        for record in result.records:
            metrics = sorted(record)
            metrics.remove("n")
            for metric in metrics:
                if type(record[metric]) not in _NUMBERS:
                    raise ValueError(f"metric {metric!r} has a {type(record[metric]).__name__} value")
                if metric not in checked:
                    _check_name(metric, "metric name")
                    checked.add(metric)
            head = f"{experiment},{result.seed},{record['n']},"
            yield "".join([f"{head}{metric},{record[metric]}\r\n" for metric in metrics])


def write_csv(results: Iterable, path) -> None:
    """Write ``csv_chunks(results)``, with no newline translation."""
    with open(path, "w", newline="") as fh:
        fh.writelines(csv_chunks(results))
