"""Addressing and record kinds of the evaluation service.

Every evaluation request is normalized to the *existing* session store
address — :func:`repro.api.session.store_key` over ``(backend, options,
config_hash)`` — and then namespaced by a content hash of the system it
belongs to.  The extra fold matters because the two store contracts
differ: a :class:`repro.api.Session`-attached store directory is
per-system (the session owns exactly one system, so the config hash is
unambiguous), while one server store serves every system its clients
submit — without the namespace, two clients evaluating the *same*
configuration on *different* systems would alias one record.

Sweep cells need no such fold: a :class:`repro.explore.spec.Cell` key
already hashes the workload recipe (the system's generator parameters),
so the engine's cell records are shared verbatim between direct
``repro explore`` / ``repro conform`` runs and server-side sweeps
against the same store (a conformance campaign is a sweep of one
``conform`` cell per seed).

**Observability envelope fields.**  With obs enabled (``REPRO_OBS=1``)
two *optional* fields ride the existing wire shapes; both are absent
with obs off, so pre-obs clients and servers interoperate unchanged:

* ``trace`` — a ``{"trace": hex, "span": hex}`` propagation context.
  Clients attach it to ``POST /evaluate`` / ``/sweep`` bodies; the
  server threads it through job → unit → attempt spans and returns it
  inside the unit dict of ``POST /worker/poll`` responses
  (and persists it in the unit journal, so recovered units keep their
  trace).
* ``obs`` — a ``{"metrics": snapshot, "spans": [...]}`` blob a worker
  ships with ``POST /worker/result``; the service folds it into the
  service-wide registry and trace file for the *accepted* result only.

Neither field ever participates in addressing: ``evaluation_key`` and
``system_fingerprint`` see only the request content,
so store keys, dedup behavior and journal replay are byte-identical
with obs on, off, or mixed across the fleet.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from ..api.session import (
    _normalize_fault_option,
    _options_key,
    config_hash,
    store_key,
)
from ..io.serialize import config_from_dict
from ..store import content_key

__all__ = [
    "PROTOCOL_FORMAT",
    "RESULT_KIND",
    "UNIT_KINDS",
    "WORKER_PROTOCOL",
    "evaluation_key",
    "system_fingerprint",
]

#: Format tag stamped into every HTTP response envelope.
PROTOCOL_FORMAT = "repro-serve-v1"
#: Format tag of the remote-worker dialect (the ``/worker/*``
#: endpoints: register → long-poll → heartbeat → result).  A worker
#: names it when it registers and the server refuses any other, and the
#: server stamps it into the registration response, which the worker
#: checks — so a worker from a different codebase vintage fails loudly
#: at register time instead of computing garbage.  v2: campaigns run
#: as ``cells`` units of ``conform`` cells (the ``seeds`` kind is gone)
#: and a conform record carries the whole per-seed outcome.
WORKER_PROTOCOL = "repro-worker-v2"
#: Dispatch-unit kinds every transport understands (the complete
#: vocabulary of :func:`repro.serve.workers.run_unit`).  Journals from
#: before campaigns became sweeps may hold ``seeds`` units; recovery
#: resolves any unknown kind as a counted error instead of running it.
UNIT_KINDS = ("eval", "cells")
#: Store kind of served evaluation results.  The payload is exactly a
#: :meth:`repro.api.result.RunResult.to_dict` record — the same bytes a
#: direct session would produce — only the key carries the extra
#: system namespace.
RESULT_KIND = "runresult"
def system_fingerprint(system_dict: Dict[str, Any]) -> str:
    """Content hash of a serialized system (the namespace component)."""
    return content_key(system_dict)


def evaluation_key(
    system_h: str,
    backend: str,
    options: Dict[str, Any],
    config_dict: Dict[str, Any],
) -> Tuple[Optional[str], Optional[str]]:
    """``(session store key, serve store key)`` of one request.

    The first element is the classic per-system address
    (:func:`repro.api.session.store_key` — what a direct session would
    use); the second folds in the system fingerprint and is the address
    the service dedups and stores under.  Both are ``None`` when the
    options are not store-addressable (non-scalar values) — such a
    request is evaluated but neither coalesced nor persisted, mirroring
    the session's memory-only treatment.

    A ``faults`` option is normalized exactly as the session would —
    canonical string form, dropped entirely when null — before
    addressing, so equivalent spellings coalesce and a null-fault
    request hits the same record as a fault-free one.
    """
    options = dict(options)
    _normalize_fault_option(options)
    config = config_from_dict(config_dict)
    skey = store_key((backend, _options_key(options), config_hash(config)))
    if skey is None:
        return None, None
    return skey, content_key(["serve-eval", system_h, skey])
