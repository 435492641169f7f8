"""Datatype core: derived datatypes, the custom serialization API, builders.

Public surface of the paper's contribution.  Typical use::

    from repro.core import type_create_custom, Region

    dtype = type_create_custom(query_fn=..., pack_fn=..., unpack_fn=...,
                               region_count_fn=..., region_fn=...)
    comm.send(obj, dtype, dest=1, tag=0)
"""

from .datatype import (BYTE, CHAR, COMPLEX64, COMPLEX128, FLOAT32, FLOAT64,
                       INT8, INT16, INT32, INT64, PREDEFINED, UINT8, UINT16,
                       UINT32, UINT64, Datatype, DerivedDatatype,
                       PredefinedDatatype, from_numpy_dtype)
from .typemap import Block, Typemap, scalar_typemap
from .signature import (format_signature, signature_bytes,
                        signature_compatible)
from .derived import (contiguous, create_struct, dup, hindexed, hvector,
                      indexed, indexed_block, resized, subarray, vector)
from .packing import (pack, pack_reference, pack_window_reference,
                      packed_size, required_span, unpack, unpack_reference,
                      unpack_window_reference)
from .packplan import PackCursor, PackPlan, UnpackCursor
from .planir import (CopyBlock, Gather, Pass, Program, Record, StridedLoop,
                     byte_map, default_pipeline, lower_typemap,
                     run_pipeline)
from .regions import Region, region_lengths, total_region_bytes
from .callbacks import (CallbackSet, OperationState, PackFn, QueryFn,
                        RegionCountFn, RegionFn, StateFn, StateFreeFn,
                        UnpackFn)
from .custom import (CustomDatatype, CustomRecvOperation, CustomSendOperation,
                     pack_all, type_create_custom, unpack_all)
from .coro import (coroutine_pack_callbacks, full_buffer_generator)
from .builder import DEFAULT_REGION_THRESHOLD, Field, StructSpec
from .adapters import MPISerializable, datatype_for
from .introspect import (equivalent, get_contents, get_envelope, marshal,
                         unmarshal)
from .typecache import (cache_info, cached_datatype, clear_datatype_cache,
                        clear_plan_cache, datatype_of, pack_plan,
                        plan_cache_info, register_datatype)

__all__ = [
    # predefined types
    "BYTE", "CHAR", "INT8", "UINT8", "INT16", "UINT16", "INT32", "UINT32",
    "INT64", "UINT64", "FLOAT32", "FLOAT64", "COMPLEX64", "COMPLEX128",
    "PREDEFINED", "from_numpy_dtype",
    # datatype classes
    "Datatype", "PredefinedDatatype", "DerivedDatatype", "CustomDatatype",
    # typemap algebra
    "Block", "Typemap", "scalar_typemap",
    # type signatures
    "signature_compatible", "signature_bytes", "format_signature",
    # derived constructors
    "contiguous", "vector", "hvector", "indexed", "hindexed", "indexed_block",
    "create_struct", "resized", "subarray", "dup",
    # pack engine
    "pack", "unpack", "packed_size", "required_span",
    # pre-plan reference engine (equivalence tests, benchmarks/perf)
    "pack_reference", "unpack_reference", "pack_window_reference",
    "unpack_window_reference",
    # compiled pack plans
    "PackPlan", "PackCursor", "UnpackCursor",
    # pack-plan IR (ops, passes, executors)
    "CopyBlock", "StridedLoop", "Gather", "Record", "Program", "Pass",
    "lower_typemap", "byte_map", "default_pipeline", "run_pipeline",
    # regions
    "Region", "region_lengths", "total_region_bytes",
    # custom API
    "type_create_custom", "CustomSendOperation", "CustomRecvOperation",
    "pack_all", "unpack_all",
    # callback protocols
    "CallbackSet", "OperationState", "StateFn", "StateFreeFn", "QueryFn",
    "PackFn", "UnpackFn", "RegionCountFn", "RegionFn",
    # coroutine packing
    "coroutine_pack_callbacks", "full_buffer_generator",
    # builders / adapters
    "Field", "StructSpec", "DEFAULT_REGION_THRESHOLD",
    "MPISerializable", "datatype_for",
    # introspection / marshalling
    "get_envelope", "get_contents", "marshal", "unmarshal", "equivalent",
    # type cache
    "register_datatype", "datatype_of", "cached_datatype",
    "clear_datatype_cache", "cache_info",
    # plan cache
    "pack_plan", "plan_cache_info", "clear_plan_cache",
]
