"""Text of the numbers in every file the package writes.

One definition, so that a value prints the same in every output and reruns
stay byte-identical.  It is not a benchmark layer: it runs inside the
writer that calls it.
"""


def format_cell(value) -> str:
    """CSV text of one value: integral floats without a fraction ("2"),
    other floats by their shortest round-trip repr, None as empty."""
    if isinstance(value, float):
        return str(int(value)) if value.is_integer() else repr(float(value))
    return "" if value is None else str(value)
