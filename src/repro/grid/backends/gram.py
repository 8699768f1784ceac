"""The Globus/GRAM command module — the paper's execution path.

Eight operations, each expressed as an **argv vector** and funnelled
through :meth:`GridClients._run`, so the paper's copy-paste
debuggability (command log, ``rerun()``, breaker suppression,
per-command observability) covers every one; results carry the shared
exit-code taxonomy (0 ok, 75 transient, 1 permanent) by raising the
:mod:`repro.grid.errors` families.  The clients own proxy issuance;
this module consumes the proxy via ``clients._require_proxy()``.

Stdout contracts (what the workflow layer parses):

========================  ==========================================
``submit``                the GRAM job id, as text
``poll``                  ``"<STATE>"`` or ``"FAILED <reason>"``
``lookup``                ``"<id> <STATE>"``, with the failure
                          reason appended after ``FAILED``, or
                          ``""`` (provably never submitted)
``cancel``                ``"cancelled"``
``stage_in``              the payload's md5 digest
``stage_out``             ``"<n> bytes"`` (payload on ``result.data``)
``stage_stat``            ``"<size> <md5>"`` or ``"absent"``
``queue_status``          ``"<depth> <utilisation>"``, then one
                          ``"<id> <STATE>"`` line per batch job of
                          the gateway still ``PENDING`` or
                          ``ACTIVE`` on the resource
========================  ==========================================

The module holds no state: job tables and sandboxes live on the
fabric's :class:`~repro.hpc.cluster.ComputeResource` objects, so a
daemon bounce (which rebuilds the clients) still finds every job by
tag.
"""

from __future__ import annotations

import dataclasses

from ..errors import PermanentGridError, TransientGridError
from ..gram import FAILED
from ..rsl import format_rsl, parse_rsl


class GramBackend:
    name = "gram"

    # ------------------------------------------------------------------
    # globusrun (submit)
    # ------------------------------------------------------------------
    @staticmethod
    def _gram_program(clients, resource_name):
        """Prefer WS-GRAM where the resource advertises it.

        The paper targeted Kraken partly for its WS-GRAM support and
        noted Ranger's lack of it; the client toolkit mirrors that by
        selecting ``globusrun-ws`` vs pre-WS ``globusrun`` per resource.
        """
        try:
            machine = clients.fabric.resource(resource_name).machine
        except Exception:  # noqa: BLE001 - unknown resource: let the
            return "globusrun"         # submission path report it
        return "globusrun-ws" if machine.has_ws_gram else "globusrun"

    def submit(self, clients, resource_name, rsl_spec, *,
               service="batch"):
        rsl_text = format_rsl(rsl_spec) if isinstance(rsl_spec, dict) \
            else str(rsl_spec)
        contact = f"{resource_name}/jobmanager-{service}"
        program = self._gram_program(clients, resource_name)
        argv = ([program, "-submit", "-F", contact, rsl_text]
                if program == "globusrun-ws"
                else [program, "-b", "-r", contact, rsl_text])

        def action():
            proxy = clients._require_proxy()
            gram = clients.fabric.gram(resource_name)
            spec = parse_rsl(rsl_text)
            if "arguments" in spec:
                spec["arguments"] = spec["arguments"].split()
            job_id = gram.submit(proxy, spec, service=service)
            return str(job_id)
        return clients._run(argv, action, resource=resource_name)

    # ------------------------------------------------------------------
    # queue status (qstat over the fork service)
    # ------------------------------------------------------------------
    def queue_status(self, clients, resource_name):
        argv = ["globus-job-run", f"{resource_name}/jobmanager-fork",
                "/usr/bin/qstat", "-Q"]

        def action():
            proxy = clients._require_proxy()
            resource = clients.fabric.resource(resource_name)
            if not resource.reachable:
                raise TransientGridError(
                    f"{resource_name}: gatekeeper did not respond")
            from ..certificates import CertificateInvalid
            try:
                clients.fabric.proxy_factory.verify(proxy)
            except CertificateInvalid as exc:
                raise PermanentGridError(str(exc))
            scheduler = resource.scheduler
            lines = [f"{scheduler.queue_depth()} "
                     f"{scheduler.utilisation:.4f}"]
            lines += [f"{gram_id} {state}" for gram_id, state in
                      clients.fabric.gram(resource_name).in_queue()]
            return "\n".join(lines)
        return clients._run(argv, action, resource=resource_name)

    # ------------------------------------------------------------------
    # globus-job-status (poll)
    # ------------------------------------------------------------------
    def poll(self, clients, resource_name, job_id, trace_id=None):
        argv = ["globus-job-status", "-r", resource_name, str(job_id)]

        def action():
            proxy = clients._require_proxy()
            gram = clients.fabric.gram(resource_name)
            state = gram.poll(proxy, int(job_id))
            if state == FAILED:
                reason = gram.failure_reason(int(job_id))
                return f"{state} {reason}".strip()
            return state
        return clients._run(argv, action, resource=resource_name,
                            trace_id=trace_id)

    def lookup(self, clients, resource_name, tag):
        argv = ["globus-job-lookup", "-r", resource_name, str(tag)]

        def action():
            proxy = clients._require_proxy()
            gram = clients.fabric.gram(resource_name)
            gram_job = gram.find_by_tag(proxy, str(tag))
            if gram_job is None:
                return ""
            if gram_job.state == FAILED:
                return f"{gram_job.id} {FAILED} {gram_job.failure_reason}"
            return f"{gram_job.id} {gram_job.state}"
        return clients._run(argv, action, resource=resource_name)

    def cancel(self, clients, resource_name, job_id):
        argv = ["globus-job-cancel", "-r", resource_name, str(job_id)]

        def action():
            proxy = clients._require_proxy()
            clients.fabric.gram(resource_name).cancel(proxy, int(job_id))
            return "cancelled"
        return clients._run(argv, action, resource=resource_name)

    # ------------------------------------------------------------------
    # globus-url-copy (GridFTP)
    # ------------------------------------------------------------------
    def stage_in(self, clients, resource_name, remote_path, data):
        argv = ["globus-url-copy", "file:///staging/upload",
                f"gsiftp://{resource_name}{remote_path}"]

        def action():
            proxy = clients._require_proxy()
            digest = clients.fabric.gridftp(resource_name).put(
                proxy, remote_path, data)
            return digest
        return clients._run(argv, action, resource=resource_name)

    def stage_out(self, clients, resource_name, remote_path):
        argv = ["globus-url-copy",
                f"gsiftp://{resource_name}{remote_path}",
                "file:///staging/download"]
        holder = {}

        def action():
            proxy = clients._require_proxy()
            holder["data"] = clients.fabric.gridftp(resource_name).get(
                proxy, remote_path)
            return f"{len(holder['data'])} bytes"
        logged = clients._run(argv, action, resource=resource_name)
        # The caller's copy carries the payload; the command log keeps
        # the one without, so the log never holds output tarballs.
        result = dataclasses.replace(logged)
        result.data = holder.get("data")
        return result

    def stage_stat(self, clients, resource_name, remote_path):
        argv = ["globus-url-copy", "-stat",
                f"gsiftp://{resource_name}{remote_path}"]

        def action():
            proxy = clients._require_proxy()
            return clients.fabric.gridftp(resource_name).stat(
                proxy, remote_path)
        return clients._run(argv, action, resource=resource_name)


GRAM_BACKEND = GramBackend()
