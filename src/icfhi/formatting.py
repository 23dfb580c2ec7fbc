"""Text of the numbers in every file the package writes, and its CSV writer.

One definition, so that a value prints the same in every output and reruns
stay byte-identical; ``write_csv`` writes every table through ``errors.writing``.
Not a benchmark layer: ``perfbench`` times ``write_csv`` as ``cli._write_csv``.
"""

import csv

from .errors import writing


def format_cell(value) -> str:
    """CSV text of one value: integral floats without a fraction ("2"),
    other floats by their shortest round-trip repr, None as empty."""
    if isinstance(value, float):
        return str(int(value)) if value.is_integer() else repr(float(value))
    return "" if value is None else str(value)


def write_csv(path, header, rows) -> None:
    """Write ``header`` and then ``rows``, each cell as ``format_cell`` gives it."""
    with writing(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(list(header))
        for row in rows:
            writer.writerow([format_cell(cell) for cell in row])
