"""The standard Levis M1, M2 and M12: their GL coordinates, admissible subsets
A, and the excluded orthogonal factors.

A leaf module: the sign tables, the endoscopic data and the Hecke layer read
these tables without loading the root-datum machinery."""

from __future__ import annotations

from typing import Optional

from .errors import ExactDomainError


# the admissible subsets A of each proper standard Levi, the largest last
_ADMISSIBLE_A = {"M1": ((), (1, 2)), "M2": ((), (1,)), "M12": ((), (1,), (2,), (1, 2))}


def admissible_A(levi: str) -> tuple[tuple[int, ...], ...]:
    """The positional subsets A of the GL coordinates of a proper standard
    Levi, as sorted tuples: M1 keeps its GL_2 block whole."""
    if levi not in _ADMISSIBLE_A:
        raise ExactDomainError(f"no subsets A for the Levi {levi!r}")
    return _ADMISSIBLE_A[levi]


def gl_labels(levi: str) -> tuple[int, ...]:
    """The 1-based GL coordinates of a proper standard Levi: (1,) for M2 and
    (1, 2) otherwise, the largest admissible A."""
    return admissible_A(levi)[-1]


def excluded_factor(dim: int, trivial: bool) -> Optional[str]:
    """Why an even orthogonal factor of dimension dim is excluded, labelled by
    dimension and discriminant: "(0, nontrivial)" or "(2, trivial)"; None when
    the factor is allowed."""
    if dim == 0 and not trivial:
        return "(0, nontrivial)"
    if dim == 2 and trivial:
        return "(2, trivial)"
    return None
