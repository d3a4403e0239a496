"""Machine instruction classes.

This taxonomy plays two roles:

1. it is the vocabulary code generation lowers kernels into, and
2. it is the *feature space* of the paper's linear cost models — one
   weight per instruction class (``cost = Σ nᵢ·wᵢ`` over these classes).

The split mirrors the categories LLVM's TargetTransformInfo costs at
the basic-block level: memory ops (with the expensive irregular forms
separated out), arithmetic by unit, data movement between lanes and
register files, and the horizontal operations vectorization introduces.
"""

from __future__ import annotations

import enum


class IClass(enum.Enum):
    __hash__ = object.__hash__  # members are singletons: hash by identity

    # -- memory ------------------------------------------------------------
    LOAD = "load"            # packed/contiguous (or scalar) load
    STORE = "store"          # packed/contiguous (or scalar) store
    GATHER = "gather"        # hardware indexed vector load (AVX2)
    SCATTER = "scatter"      # hardware indexed vector store (none here)
    MASKLOAD = "maskload"    # hardware masked load (AVX2 vmaskmov)
    MASKSTORE = "maskstore"  # hardware masked store
    BROADCAST = "broadcast"  # splat a scalar across lanes

    # -- arithmetic ----------------------------------------------------------
    ADD = "add"              # add/sub/neg
    MUL = "mul"
    FMA = "fma"
    DIV = "div"
    SQRT = "sqrt"
    EXP = "exp"              # transcendental call (always scalarized)
    ABS = "abs"
    MINMAX = "minmax"

    # -- compare / select / bitwise -------------------------------------------
    CMP = "cmp"
    BLEND = "blend"          # select / bsl / vblendv
    LOGIC = "logic"          # and/or/xor
    SHIFT = "shift"
    CVT = "cvt"              # int<->float / width conversions

    # -- lane movement ---------------------------------------------------------
    SHUFFLE = "shuffle"      # permute / interleave / reverse
    INSERT = "insert"        # GPR/scalar -> vector lane
    EXTRACT = "extract"      # vector lane -> GPR/scalar
    REDUCE = "reduce"        # horizontal reduction of one vector


#: Classes that move data to/from memory (drive the bandwidth model).
MEMORY_CLASSES = frozenset(
    {
        IClass.LOAD,
        IClass.STORE,
        IClass.GATHER,
        IClass.SCATTER,
        IClass.MASKLOAD,
        IClass.MASKSTORE,
        IClass.BROADCAST,
    }
)

#: Classes introduced by vectorization itself (packing overhead); a key
#: motivation for modelling cost at the block level.
OVERHEAD_CLASSES = frozenset(
    {
        IClass.GATHER,
        IClass.SCATTER,
        IClass.BROADCAST,
        IClass.SHUFFLE,
        IClass.INSERT,
        IClass.EXTRACT,
        IClass.REDUCE,
        IClass.BLEND,
        IClass.MASKLOAD,
        IClass.MASKSTORE,
    }
)

#: Fixed feature ordering used by every cost model in this package.
FEATURE_ORDER: tuple[IClass, ...] = tuple(IClass)


def feature_index(iclass: IClass) -> int:
    return FEATURE_ORDER.index(iclass)
