"""The admissible subsets A of the proper standard Levis M1, M2 and M12.

A leaf module: the sign tables, the endoscopic data and the Hecke layer read
this one table without loading the root-datum machinery."""

from __future__ import annotations

from .errors import ExactDomainError


def admissible_A(levi: str) -> tuple[tuple[int, ...], ...]:
    """The positional subsets A of the GL coordinates of a proper standard
    Levi, as sorted tuples: M1 keeps its GL_2 block whole."""
    table = {"M1": ((), (1, 2)), "M2": ((), (1,)), "M12": ((), (1,), (2,), (1, 2))}
    if levi not in table:
        raise ExactDomainError(f"no subsets A for the Levi {levi!r}")
    return table[levi]
