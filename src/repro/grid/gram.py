"""GRAM job management services.

One :class:`GramService` fronts one compute resource and offers the two
job managers the paper uses:

- the **fork** service runs small scripts immediately on the login node
  (pre-job, post-job, cleanup stages),
- the **batch** service translates an RSL request into a
  :class:`~repro.hpc.scheduler.BatchJob` on the resource's scheduler
  (the model runs themselves).

Clients poll job state (``UNSUBMITTED/PENDING/ACTIVE/DONE/FAILED``) —
GRAM's state vocabulary — and every operation verifies the proxy
certificate and writes an audit record attributed to the SAML gateway
user.  :meth:`GramService.in_queue` lists the batch jobs still queued
or running, in one answer, for the queue probe.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..hpc import scheduler as sched
from .certificates import CertificateInvalid
from .errors import (CredentialError, PermanentGridError,
                     ServiceUnreachable, SubmitRejected)
from .faults import check_latency

# GRAM job states.
UNSUBMITTED = "UNSUBMITTED"
PENDING = "PENDING"
ACTIVE = "ACTIVE"
DONE = "DONE"
FAILED = "FAILED"

_BATCH_STATE_MAP = {
    sched.PENDING: PENDING,
    sched.RUNNING: ACTIVE,
    sched.COMPLETED: DONE,
    sched.WALLTIME_EXCEEDED: FAILED,
    sched.FAILED: FAILED,
    sched.CANCELLED: FAILED,
}


@dataclass
class GramJob:
    """Service-side record of one GRAM request."""

    id: int
    service: str                 # "fork" | "batch"
    rsl: dict
    gateway_user: str
    state: str = UNSUBMITTED
    batch_job_id: int = None
    failure_reason: str = ""
    execution: object = None     # AppExecution for batch jobs

    @property
    def contact(self):
        """The GRAM job contact string clients hold."""
        return f"https://gram.{self.id}.example/{self.service}"


@dataclass
class AppExecution:
    """What a batch executable returns when launched.

    ``runtime_s`` is the job's compute time; ``on_finish`` runs at
    successful completion (writes output files); ``on_walltime`` runs if
    the scheduler kills the job (normally nothing — AMP jobs checkpoint
    and exit early by design).
    """

    runtime_s: float
    on_finish: object = None
    on_walltime: object = None


class GramService:
    def __init__(self, resource, proxy_factory, clock, audit):
        self.resource = resource
        self.proxy_factory = proxy_factory
        self.clock = clock
        self.audit = audit
        self.jobs = {}
        #: The batch jobs not yet seen finished, by GRAM id, in
        #: submission order: what :meth:`in_queue` walks.
        self._in_queue = {}
        # Per-service id sequence (job ids are only ever resolved
        # against this service's table): a fresh fabric starts at 1, so
        # replayed fault schedules log identical command lines.
        self._gram_ids = itertools.count(1)
        #: Fault injection: refuse the next N submissions.
        self._submit_rejections = 0

    def inject_submit_rejections(self, n):
        self._submit_rejections += int(n)

    # ------------------------------------------------------------------
    def _check_access(self, proxy, operation):
        if not self.resource.reachable:
            self.audit.record(self.clock, operation, self.resource.name,
                              getattr(proxy.saml, "gateway_user", "?"),
                              detail="unreachable", success=False)
            raise ServiceUnreachable(
                f"{self.resource.name}: gatekeeper did not respond")
        check_latency(self.resource, self.clock.now)
        try:
            self.proxy_factory.verify(proxy)
        except CertificateInvalid as exc:
            self.audit.record(self.clock, operation, self.resource.name,
                              getattr(proxy.saml, "gateway_user", "?"),
                              detail=str(exc), success=False)
            raise CredentialError(str(exc))

    # ------------------------------------------------------------------
    def submit(self, proxy, rsl_spec, *, service="batch"):
        """Submit a job; returns the GRAM job id."""
        self._check_access(proxy, "gram-submit")
        if self._submit_rejections > 0:
            self._submit_rejections -= 1
            self.audit.record(self.clock, "gram-submit",
                              self.resource.name,
                              proxy.saml.gateway_user,
                              detail="rejected", success=False)
            raise SubmitRejected(
                f"{self.resource.name}: gatekeeper rejected the "
                f"submission")
        gram_job = GramJob(id=next(self._gram_ids), service=service,
                           rsl=dict(rsl_spec),
                           gateway_user=proxy.saml.gateway_user)
        self.jobs[gram_job.id] = gram_job
        self.audit.record(self.clock, "gram-submit", self.resource.name,
                          gram_job.gateway_user,
                          detail=rsl_spec.get("executable", "?"))
        if service == "fork":
            self._run_fork(gram_job)
        elif service == "batch":
            self._submit_batch(gram_job)
        else:
            raise PermanentGridError(f"Unknown job service {service!r}")
        return gram_job.id

    def _run_fork(self, gram_job):
        """Fork jobs execute immediately on the login node."""
        executable = gram_job.rsl["executable"]
        args = gram_job.rsl.get("arguments", [])
        kwargs = _arguments_to_kwargs(args)
        kwargs.setdefault("directory", gram_job.rsl.get("directory", "/"))
        try:
            self.resource.fork.run(executable, **kwargs)
            gram_job.state = DONE
        except Exception as exc:  # noqa: BLE001 - script failure surface
            gram_job.state = FAILED
            gram_job.failure_reason = f"{type(exc).__name__}: {exc}"

    def _submit_batch(self, gram_job):
        executable = gram_job.rsl["executable"]
        app = self.resource.applications.get(executable)
        if app is None:
            gram_job.state = FAILED
            gram_job.failure_reason = f"No such executable {executable!r}"
            return
        # §6 job chaining: translate prior GRAM job ids into scheduler
        # dependencies.  Requires the resource's scheduler to support
        # chaining (all Table 1 systems' schedulers did).
        after = ()
        depends_on = gram_job.rsl.get("dependsOn")
        if depends_on:
            if not self.resource.machine.scheduler_supports_chaining:
                gram_job.state = FAILED
                gram_job.failure_reason = (
                    "scheduler does not support job chaining")
                return
            try:
                dep_ids = [int(part) for part in
                           str(depends_on).split(",") if part.strip()]
                after = tuple(self.jobs[dep].batch_job_id
                              for dep in dep_ids)
            except KeyError as exc:
                gram_job.state = FAILED
                gram_job.failure_reason = f"Unknown dependency {exc}"
                return
        args = gram_job.rsl.get("arguments", [])
        kwargs = _arguments_to_kwargs(args)
        directory = gram_job.rsl.get("directory", "/")
        resource = self.resource

        def payload(batch_job, _gram=gram_job):
            execution = app(resource, directory=directory, **kwargs)
            _gram.execution = execution
            batch_job.runtime_fn = execution.runtime_s

        def on_complete(batch_job, _gram=gram_job):
            if batch_job.status == sched.COMPLETED \
                    and _gram.execution is not None \
                    and _gram.execution.on_finish is not None:
                _gram.execution.on_finish()
            if batch_job.status == sched.WALLTIME_EXCEEDED \
                    and _gram.execution is not None \
                    and _gram.execution.on_walltime is not None:
                _gram.execution.on_walltime()

        batch_job = sched.BatchJob(
            name=f"gram-{gram_job.id}-{executable}",
            cores=int(gram_job.rsl.get("count", 1)),
            walltime_limit_s=float(gram_job.rsl.get("maxWallTime", 60))
            * 60.0,
            runtime_fn=0.0, payload=payload, on_complete=on_complete,
            after=after, user=gram_job.gateway_user)
        self.resource.scheduler.submit(batch_job)
        gram_job.batch_job_id = batch_job.id
        gram_job.state = PENDING
        self._in_queue[gram_job.id] = gram_job

    # ------------------------------------------------------------------
    def poll(self, proxy, gram_job_id):
        """Current GRAM state of a job."""
        self._check_access(proxy, "gram-poll")
        gram_job = self._get(gram_job_id)
        self._refresh(gram_job)
        self.audit.record(self.clock, "gram-poll", self.resource.name,
                          gram_job.gateway_user,
                          detail=f"job {gram_job_id} -> {gram_job.state}")
        return gram_job.state

    def _refresh(self, gram_job):
        """Bring *gram_job*'s state up to date with its batch job's
        scheduler status (a fork job's is final at submission); every
        answer about a job's state is read through here."""
        if gram_job.service == "batch" and gram_job.batch_job_id is not None:
            batch_status = self.resource.scheduler.status_of(
                gram_job.batch_job_id)
            gram_job.state = _BATCH_STATE_MAP[batch_status]
            if gram_job.state == FAILED and not gram_job.failure_reason:
                gram_job.failure_reason = f"batch status {batch_status}"
        return gram_job.state

    def in_queue(self):
        """``[(gram_id, state)]`` of the batch jobs still ``PENDING`` or
        ``ACTIVE``, in submission order.  A job found finished leaves
        the index, so a listing costs the jobs in flight, not every job
        ever submitted."""
        listed = []
        for gram_id, gram_job in list(self._in_queue.items()):
            state = self._refresh(gram_job)
            if state in (PENDING, ACTIVE):
                listed.append((gram_id, state))
            else:
                del self._in_queue[gram_id]
        return listed

    def cancel(self, proxy, gram_job_id):
        self._check_access(proxy, "gram-cancel")
        gram_job = self._get(gram_job_id)
        if gram_job.service == "batch" and gram_job.batch_job_id is not None:
            self.resource.scheduler.cancel(gram_job.batch_job_id)
            gram_job.state = FAILED
            gram_job.failure_reason = "cancelled by client"
        self.audit.record(self.clock, "gram-cancel", self.resource.name,
                          gram_job.gateway_user, detail=str(gram_job_id))
        return True

    def find_by_tag(self, proxy, tag):
        """The GRAM job whose RSL carries ``clientTag=tag``, or None.

        The restart-reconciliation primitive: the daemon journals an
        intent keyed by a deterministic idempotency tag and stamps the
        same tag into the submitted RSL, so after a crash it can ask the
        job manager — not its own lost memory — whether the submission
        actually happened.  Tags are unique by construction (one tag is
        never submitted twice), so the first match is the only match.
        """
        self._check_access(proxy, "gram-lookup")
        for gram_job in self.jobs.values():
            if gram_job.rsl.get("clientTag") == tag:
                self._refresh(gram_job)
                self.audit.record(self.clock, "gram-lookup",
                                  self.resource.name,
                                  proxy.saml.gateway_user,
                                  detail=f"{tag} -> job {gram_job.id}")
                return gram_job
        self.audit.record(self.clock, "gram-lookup", self.resource.name,
                          proxy.saml.gateway_user,
                          detail=f"{tag} -> not found")
        return None

    def failure_reason(self, gram_job_id):
        return self._get(gram_job_id).failure_reason

    def _get(self, gram_job_id):
        try:
            return self.jobs[gram_job_id]
        except KeyError:
            raise PermanentGridError(f"Unknown GRAM job {gram_job_id}")


def _arguments_to_kwargs(arguments):
    """Parse ``key=value`` argument lists into kwargs (plain args kept
    under ``argv``)."""
    kwargs, argv = {}, []
    for arg in arguments or []:
        text = str(arg)
        if "=" in text:
            key, _, value = text.partition("=")
            kwargs[key] = value
        else:
            argv.append(text)
    if argv:
        kwargs["argv"] = argv
    return kwargs
