"""Ready-made Custom Memory Cube operation plugins.

Each module in this package is one CMC operation following the user
library structure of §IV.D (one operation per "shared library"):
module-level statics per Table III and an ``hmcsim_execute_cmc``
function per Table IV.  They are loaded with
``HMCSim.load_cmc("repro.cmc_ops.<name>")`` — or from a file path,
exactly as a user would load their own out-of-tree implementation.

The paper's showcase — the mutex set of Table V — occupies command
codes 125/126/127:

* :mod:`repro.cmc_ops.lock` — ``hmc_lock`` (CMC125)
* :mod:`repro.cmc_ops.trylock` — ``hmc_trylock`` (CMC126)
* :mod:`repro.cmc_ops.unlock` — ``hmc_unlock`` (CMC127)

Every other module defining ``hmcsim_execute_cmc`` is a demonstration
op that describes itself (statics, ``FOOTPRINT``, docstring); the fuzzer
and ``tests/cmc_ops`` discover the bundled ops that way, and
``docs/PLUGIN_GUIDE.md`` §5 maps design-space corners to them.
"""

from repro.cmc_ops.base import (
    LOCK_FREE,
    LOCK_HELD,
    lock_struct_pack,
    lock_struct_unpack,
    payload_u64,
    store_u64,
)
from repro.cmc_ops.mutex import MUTEX_PLUGINS, load_mutex_ops

__all__ = [
    "LOCK_FREE",
    "LOCK_HELD",
    "lock_struct_pack",
    "lock_struct_unpack",
    "payload_u64",
    "store_u64",
    "MUTEX_PLUGINS",
    "load_mutex_ops",
]
