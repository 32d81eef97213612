"""CMC plugin authoring support (the "CMC template source").

§IV.D of the paper: a CMC implementation is a small compilation unit
built from a template.  The template supplies everything except the
execute function: the required static globals (Table III) and the
``cmc_register`` / ``cmc_str`` boilerplate.  Only
``hmcsim_execute_cmc`` — the function that performs the actual
operation — must be written by the user.

In this reproduction a plugin is a Python module (or any object with
module-like attributes).  The required interface, checked by
:func:`validate_plugin`:

Statics (Table III; names upper-cased per Python convention, the
lower-case C names are also accepted):

========== ===================== =======================================
name        type                 meaning
========== ===================== =======================================
OP_NAME     str                  unique trace-file identifier
RQST        hmc_rqst_t           the ``CMCnn`` enum member claimed
CMD         int                  decimal command code; must match RQST
RQST_LEN    int                  request packet length in FLITs
RSP_LEN     int                  response packet length in FLITs
RSP_CMD     hmc_response_t       response packet type
RSP_CMD_CODE int                 wire code when RSP_CMD is RSP_CMC
FOOTPRINT   int, optional        bytes touched at the target address;
                                 absent = address-dependent (unsampled)
========== ===================== =======================================

Symbols (resolved by name, like ``dlsym``):

* ``hmcsim_execute_cmc(hmc, dev, quad, vault, bank, addr, length,
  head, tail, rqst_payload, rsp_payload) -> int`` — required, the
  user-written operation body (argument set per Table IV).
* ``cmc_register() -> CMCRegistration`` — optional; generated from the
  statics when absent (that is the template's job).
* ``cmc_str() -> str`` — optional; generated from ``OP_NAME`` when
  absent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.cmc import CMCRegistration, ExecuteFn
from repro.errors import CMCLoadError
from repro.hmc.commands import hmc_response_t, hmc_rqst_t

__all__ = [
    "CMCPluginSpec",
    "EXECUTE_SYMBOL",
    "REGISTER_SYMBOL",
    "STR_SYMBOL",
    "make_registration",
    "validate_plugin",
]

#: The execute symbol name ``dlsym`` must find (§IV.D of the paper).
EXECUTE_SYMBOL = "hmcsim_execute_cmc"
#: Registration and string-handler symbol names.
REGISTER_SYMBOL = "cmc_register"
STR_SYMBOL = "cmc_str"

#: (python-convention name, C-convention name) pairs for the statics.
_STATIC_NAMES = [
    ("OP_NAME", "op_name"),
    ("RQST", "rqst"),
    ("CMD", "cmd"),
    ("RQST_LEN", "rqst_len"),
    ("RSP_LEN", "rsp_len"),
    ("RSP_CMD", "rsp_cmd"),
]


def _static(plugin: object, upper: str, lower: str, required: bool = True):
    if hasattr(plugin, upper):
        return getattr(plugin, upper)
    if hasattr(plugin, lower):
        return getattr(plugin, lower)
    if required:
        name = getattr(plugin, "__name__", repr(plugin))
        raise CMCLoadError(
            f"CMC plugin {name} is missing required static {upper!r} "
            f"(Table III of the paper)"
        )
    return None


def make_registration(plugin: object) -> CMCRegistration:
    """Build a :class:`CMCRegistration` from a plugin's statics.

    This is the template-provided ``cmc_register`` body: it reads the
    Table III globals and reports them to the core library.

    Raises:
        CMCLoadError: if a required static is missing or ill-typed.
    """
    values = {}
    for upper, lower in _STATIC_NAMES:
        values[lower] = _static(plugin, upper, lower)
    rsp_cmd_code = _static(plugin, "RSP_CMD_CODE", "rsp_cmd_code", required=False) or 0
    name = getattr(plugin, "__name__", repr(plugin))
    try:
        rqst = hmc_rqst_t(values["rqst"])
        rsp_cmd = hmc_response_t(values["rsp_cmd"])
    except ValueError as exc:
        raise CMCLoadError(f"CMC plugin {name}: {exc}") from exc
    if not isinstance(values["op_name"], str):
        raise CMCLoadError(f"CMC plugin {name}: OP_NAME must be a string")
    try:
        reg = CMCRegistration(
            op_name=values["op_name"],
            rqst=rqst,
            cmd=int(values["cmd"]),
            rqst_len=int(values["rqst_len"]),
            rsp_len=int(values["rsp_len"]),
            rsp_cmd=rsp_cmd,
            rsp_cmd_code=int(rsp_cmd_code),
            footprint=_static(plugin, "FOOTPRINT", "footprint", required=False),
        )
    except (TypeError, ValueError) as exc:
        raise CMCLoadError(f"CMC plugin {name}: bad static value: {exc}") from exc
    reg.validate()
    return reg


@dataclass(frozen=True)
class CMCPluginSpec:
    """A fully resolved plugin: registration plus the three symbols.

    Produced by :func:`validate_plugin`; consumed by
    :func:`repro.core.loader.load_cmc` to build the ``hmc_cmc_t``
    analog.
    """

    registration: CMCRegistration
    execute: ExecuteFn
    register_fn: Callable[[], CMCRegistration]
    str_fn: Callable[[], str]
    source: str


def validate_plugin(plugin: object, source: Optional[str] = None) -> CMCPluginSpec:
    """Resolve and validate a plugin's symbols and statics.

    Mirrors the symbol-resolution stage of ``hmc_load_cmc``: each of
    the three function pointers is looked up by name; a missing
    *execute* symbol is fatal (it is the one function the template
    cannot provide), while ``cmc_register``/``cmc_str`` fall back to
    template-generated implementations.

    Raises:
        CMCLoadError: missing execute symbol, missing/ill-typed
            statics, or a ``cmc_register`` that reports inconsistent
            data.
    """
    name = source or getattr(plugin, "__name__", repr(plugin))

    execute = getattr(plugin, EXECUTE_SYMBOL, None)
    if execute is None or not callable(execute):
        raise CMCLoadError(
            f"CMC plugin {name}: required symbol {EXECUTE_SYMBOL!r} did not "
            f"resolve — this is the user-implemented operation body and has "
            f"no template default"
        )

    register_fn = getattr(plugin, REGISTER_SYMBOL, None)
    if register_fn is not None and not callable(register_fn):
        raise CMCLoadError(f"CMC plugin {name}: {REGISTER_SYMBOL!r} is not callable")
    if register_fn is None:
        register_fn = lambda: make_registration(plugin)  # noqa: E731

    str_fn = getattr(plugin, STR_SYMBOL, None)
    if str_fn is not None and not callable(str_fn):
        raise CMCLoadError(f"CMC plugin {name}: {STR_SYMBOL!r} is not callable")

    registration = register_fn()
    if not isinstance(registration, CMCRegistration):
        raise CMCLoadError(
            f"CMC plugin {name}: {REGISTER_SYMBOL} must return a "
            f"CMCRegistration, got {type(registration).__name__}"
        )
    registration.validate()

    if str_fn is None:
        op_name = registration.op_name
        str_fn = lambda: op_name  # noqa: E731

    return CMCPluginSpec(
        registration=registration,
        execute=execute,
        register_fn=register_fn,
        str_fn=str_fn,
        source=name,
    )
