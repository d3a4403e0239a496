"""TSVC kernel registry.

The Test Suite for Vectorizing Compilers (Callahan/Dongarra/Levine,
extended by Maleki et al.) is the workload of every experiment in the
paper: 151 small loops organized by the compiler capability they probe.
Kernels register through the :func:`kernel` decorator and are built
lazily (construction involves verification) and cached.

Fidelity notes: the kernels are re-expressed in our loop IR from the C
originals.  Loops are normalized to start at 0 with unit step (TSVC's
``i=1`` starts appear as wrapped ``a[i-1]`` accesses at the boundary —
harmless for both correctness testing and dependence structure).
Constructs outside the IR — ``goto``/``break`` early exits, real
function calls, explicit induction variables — are approximated and
carry a note; the approximations preserve each kernel's vectorization
verdict except where a note says otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from ..ir.builder import KernelBuilder
from ..ir.kernel import LoopKernel

#: Standard TSVC 1-D array length and 2-D matrix edge.
LEN = 32000
LEN2 = 256


@dataclass(frozen=True)
class Dims:
    """Suite sizes; tests build shrunken suites for functional runs.

    ``n`` must stay divisible by 8 and ≥ 40 (kernels derive strides and
    offsets like n//2 and n//5 from it).
    """

    n: int = LEN
    n2: int = LEN2

    def __post_init__(self) -> None:
        if self.n % 8 or self.n < 40:
            raise ValueError(f"n must be a multiple of 8 and >= 40, got {self.n}")
        if self.n2 % 8 or self.n2 < 16:
            raise ValueError(f"n2 must be a multiple of 8 and >= 16, got {self.n2}")


STANDARD_DIMS = Dims()


@dataclass
class KernelEntry:
    name: str
    category: str
    factory: Callable[[KernelBuilder, Dims], None]
    notes: str = ""

    def __post_init__(self) -> None:
        self._cache: dict[Dims, LoopKernel] = {}

    def build(self, dims: Dims = STANDARD_DIMS) -> LoopKernel:
        if dims not in self._cache:
            kb = KernelBuilder(
                self.name,
                category=self.category,
                default_len=dims.n,
                default_len2=dims.n2,
            )
            self.factory(kb, dims)
            self._cache[dims] = kb.build()
        return self._cache[dims]


_REGISTRY: dict[str, KernelEntry] = {}


def kernel(name: str, category: str, notes: str = ""):
    """Register a TSVC kernel builder function."""

    def deco(fn: Callable[[KernelBuilder], None]):
        if name in _REGISTRY:
            raise ValueError(f"duplicate TSVC kernel {name!r}")
        _REGISTRY[name] = KernelEntry(name, category, fn, notes)
        return fn

    return deco


def _ensure_loaded() -> None:
    # Import the kernel definition modules exactly once.
    from . import (  # noqa: F401
        kernels_linear,
        kernels_induction,
        kernels_globalflow,
        kernels_distribution,
        kernels_expansion,
        kernels_crossing,
        kernels_reductions,
        kernels_packing,
        kernels_indirect,
    )


def get_kernel(name: str, dims: Dims = STANDARD_DIMS) -> LoopKernel:
    _ensure_loaded()
    try:
        return _REGISTRY[name].build(dims)
    except KeyError:
        pass
    # Synthetic corpus kernels (``gx{seed}_{index}_{category}``) resolve
    # through the generator; they carry their own sizes, so ``dims`` is
    # ignored.  The delegation is what lets pool workers and the chaos
    # harness rebuild generated kernels by name exactly like suite
    # kernels.
    from ..gen import generate_kernel, is_generated_name

    if is_generated_name(name):
        return generate_kernel(name)
    raise KeyError(f"unknown TSVC kernel {name!r}") from None


def get_entry(name: str) -> KernelEntry:
    _ensure_loaded()
    return _REGISTRY[name]


def kernel_names() -> list[str]:
    _ensure_loaded()
    return sorted(_REGISTRY)


def all_kernels(dims: Dims = STANDARD_DIMS) -> Iterator[LoopKernel]:
    _ensure_loaded()
    for name in sorted(_REGISTRY):
        yield _REGISTRY[name].build(dims)


def kernels_by_category() -> dict[str, list[str]]:
    _ensure_loaded()
    out: dict[str, list[str]] = {}
    for name in sorted(_REGISTRY):
        out.setdefault(_REGISTRY[name].category, []).append(name)
    return out


def suite_size() -> int:
    _ensure_loaded()
    return len(_REGISTRY)
