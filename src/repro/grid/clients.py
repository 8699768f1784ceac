"""Command-line grid client wrappers.

The paper is explicit that GridAMP does *not* use API bindings: it wraps
the Globus command-line clients, because "the daemon produces logs that
clearly highlight warnings and errors with the relevant command lines
displayed for failure cases.  To troubleshoot, a developer needs only to
open a new console [...] and copy-paste the line at the shell prompt to
retry the failed action."

:class:`GridClients` reproduces that interface exactly: every operation
is expressed as an argv vector, returns a :class:`CommandResult` with
exit code / stdout / stderr, and is recorded in a command log so failures
can be replayed verbatim (``rerun()``).  The log keeps the newest
:data:`~repro.obs.events.KEEP` results; ``len()`` counts every command.

The argv vectors of the eight job and staging operations are built in
:mod:`repro.grid.backends.gram`; which programs exist, what retry
budget each draws on and how a logged line of each is replayed is the
one table at the bottom of this module (:data:`PROGRAMS`).
"""

from __future__ import annotations

import shlex
from dataclasses import dataclass

from ..obs.events import Ring
from .backends import GRAM_BACKEND
from .certificates import SAMLAssertion
from .errors import GridError, PermanentGridError, TransientGridError
from .retry import (OP_CANCEL, OP_OTHER, OP_POLL, OP_PROXY, OP_QSTAT,
                    OP_SUBMIT, OP_TRANSFER)

EXIT_OK = 0
EXIT_TRANSIENT = 75     # EX_TEMPFAIL — retryable
EXIT_PERMANENT = 1


@dataclass
class CommandResult:
    argv: list
    exit_code: int
    stdout: str = ""
    stderr: str = ""

    @property
    def ok(self):
        return self.exit_code == EXIT_OK

    @property
    def transient(self):
        return self.exit_code == EXIT_TRANSIENT

    @property
    def command_line(self):
        return " ".join(shlex.quote(str(a)) for a in self.argv)


class GridClients:
    """The daemon host's installed grid client toolkit.

    Parameters
    ----------
    fabric:
        A :class:`GridFabric` (services per resource + proxy factory).
    gateway_name:
        SAML gateway identity attached to every derived proxy.
    """

    def __init__(self, fabric, gateway_name="AMP", *, breakers, obs):
        self.fabric = fabric
        self.gateway_name = gateway_name
        self.current_proxy = None
        self.command_log = Ring()
        #: The :class:`~repro.grid.breaker.BreakerRegistry`: when a
        #: resource's breaker is open, commands against it are suppressed
        #: client-side (synthetic transient, zero grid traffic).
        self.breakers = breakers
        self.suppressed_count = 0
        #: The :class:`~repro.obs.Observability` facade: every executed
        #: or suppressed command is counted by program/outcome and
        #: logged as a ``grid.command`` event carrying the ambient trace
        #: id, which is how a simulation's correlation id reaches grid
        #: traffic.
        self.obs = obs

    # ------------------------------------------------------------------
    def _run(self, argv, fn, resource=None):
        """Execute *fn*, mapping the error taxonomy to exit codes.

        When the command targets a resource whose circuit breaker is
        open, the command never reaches the grid: a synthetic transient
        result is logged instead.  Only commands that actually executed
        feed the breaker's failure/success counters.
        """
        if resource is not None and not self.breakers.allow(resource):
            result = CommandResult(
                argv, EXIT_TRANSIENT,
                stderr=(f"{resource}: suppressed while resource "
                        f"circuit is open"))
            self.suppressed_count += 1
            self.command_log.append(result)
            self._observe(result, resource, outcome="suppressed")
            return result
        try:
            stdout = fn()
            result = CommandResult(argv, EXIT_OK, stdout=stdout or "")
        except TransientGridError as exc:
            result = CommandResult(argv, EXIT_TRANSIENT, stderr=str(exc))
        except (PermanentGridError, GridError, KeyError) as exc:
            result = CommandResult(argv, EXIT_PERMANENT, stderr=str(exc))
        if resource is not None:
            if result.ok:
                self.breakers.record_success(resource)
            elif result.transient:
                self.breakers.record_failure(resource)
        self.command_log.append(result)
        self._observe(result, resource)
        return result

    def _observe(self, result, resource, outcome=None):
        """Count and log one command against the observability layer."""
        if outcome is None:
            outcome = "ok" if result.ok else (
                "transient" if result.transient else "permanent")
        program = str(result.argv[0]) if result.argv else "?"
        self.obs.metrics.counter(
            "grid_commands_total",
            help="Grid client commands by program and outcome").labels(
            program=program, outcome=outcome).inc()
        self.obs.events.emit(
            "grid.command", program=program, resource=resource or "",
            outcome=outcome,
            trace_id=self.obs.tracer.current_trace_id or "",
            command=("" if result.ok else result.command_line))

    def rerun(self, result: CommandResult):
        """Re-execute a logged command verbatim (the copy-paste retry)."""
        return self.dispatch(result.argv)

    def dispatch(self, argv):
        """Route an argv vector to the right wrapper — what the shell
        would do.  Unrecognised programs and command lines that cannot
        be replayed from the log come back as permanent failures with a
        plain-language message, never as a raised exception."""
        program = argv[0] if argv else ""
        _, handler = PROGRAMS.get(program, (OP_OTHER, None))
        if handler is None:
            return CommandResult(list(argv), EXIT_PERMANENT,
                                 stderr=f"command not found: {program}")
        try:
            return handler(self, list(argv))
        except (ValueError, IndexError, KeyError,
                NotImplementedError) as exc:
            return CommandResult(
                list(argv), EXIT_PERMANENT,
                stderr=(f"{program}: this command line cannot be "
                        f"replayed from the log ({exc})"))

    # ------------------------------------------------------------------
    # grid-proxy-init (daemon-host credential management)
    # ------------------------------------------------------------------
    def grid_proxy_init(self, gateway_user, email="", lifetime_s=None):
        """Generate a derivative proxy with GridShib SAML extensions."""
        argv = ["grid-proxy-init", "-gateway-user", gateway_user]
        if lifetime_s:
            argv += ["-valid", str(int(lifetime_s // 60))]

        def action():
            saml = SAMLAssertion(gateway_name=self.gateway_name,
                                 gateway_user=gateway_user,
                                 user_email=email)
            self.current_proxy = self.fabric.proxy_factory.issue(
                saml, lifetime_s=lifetime_s)
            return f"proxy issued for {self.current_proxy.subject}"
        return self._run(argv, action)

    def _dispatch_proxy_init(self, argv):
        user = argv[argv.index("-gateway-user") + 1]
        lifetime_s = None
        if "-valid" in argv:
            lifetime_s = 60.0 * int(argv[argv.index("-valid") + 1])
        return self.grid_proxy_init(user, lifetime_s=lifetime_s)

    def ensure_proxy(self, gateway_user, email="", *,
                     min_remaining_s=3600.0):
        """Re-issue the proxy when absent, near expiry, or for another
        user.

        The daemon calls this before acting on behalf of a user: proxies
        are short-lived by design, and every request must be SAML-
        attributed to the *right* gateway user.  A proxy that expired or
        was damaged mid-run (fault injection, clock skew) is detected
        here and silently replaced — credential trouble must self-heal
        before it can surface as a permanent failure.
        """
        proxy = self.current_proxy
        now = self.fabric.clock.now
        if (proxy is not None
                and proxy.saml.gateway_user == gateway_user
                and proxy.expires_at - now >= min_remaining_s
                and self._proxy_verifies(proxy)):
            return CommandResult(["grid-proxy-info"], EXIT_OK,
                                 stdout="proxy still valid")
        return self.grid_proxy_init(gateway_user, email)

    def _proxy_verifies(self, proxy):
        from .certificates import CertificateInvalid
        try:
            self.fabric.proxy_factory.verify(proxy)
        except CertificateInvalid:
            return False
        return True

    def _require_proxy(self):
        if self.current_proxy is None:
            raise PermanentGridError(
                "No proxy: run grid-proxy-init first")
        return self.current_proxy

    # ------------------------------------------------------------------
    # Job submission
    # ------------------------------------------------------------------
    def submit_job(self, resource_name, rsl_spec, *, service="batch"):
        """Submit a job to the resource's GRAM service; stdout is the
        job id."""
        return GRAM_BACKEND.submit(
            self, resource_name, rsl_spec, service=service)

    #: Historical Globus-named entry point.
    globusrun = submit_job

    def _dispatch_submit(self, argv):
        flag = "-F" if "-F" in argv else "-r"
        contact = argv[argv.index(flag) + 1]
        resource_name, _, manager = contact.partition("/jobmanager-")
        return self.submit_job(resource_name, argv[-1],
                               service=manager or "batch")

    # ------------------------------------------------------------------
    # Queue telemetry
    # ------------------------------------------------------------------
    def queue_status(self, resource_name):
        """Queue telemetry (``qstat`` over the fork service):
        ``"<depth> <utilisation>"``."""
        return GRAM_BACKEND.queue_status(self, resource_name)

    def _dispatch_queue_status(self, argv):
        return self.queue_status(argv[1].partition("/")[0])

    # ------------------------------------------------------------------
    # Job polling / lookup / cancellation
    # ------------------------------------------------------------------
    def job_status(self, resource_name, job_id):
        """Poll one job; stdout is a GRAM-vocabulary state, with the
        failure reason appended after ``FAILED``."""
        return GRAM_BACKEND.poll(self, resource_name, job_id)

    globus_job_status = job_status

    def _dispatch_job_status(self, argv):
        return self.job_status(argv[argv.index("-r") + 1], argv[-1])

    def job_lookup(self, resource_name, tag):
        """Recover a GRAM job id by its submitted ``clientTag``.

        The reconciliation primitive: ``stdout`` is ``"<id> <state>"``
        when a job carrying the tag exists on the job manager, or empty
        when the submission provably never happened.  A transient result
        (resource unreachable, breaker open) proves nothing — the caller
        must hold the affected simulation rather than guess.
        """
        return GRAM_BACKEND.lookup(self, resource_name, tag)

    globus_job_lookup = job_lookup

    def _dispatch_job_lookup(self, argv):
        return self.job_lookup(argv[argv.index("-r") + 1], argv[-1])

    def job_cancel(self, resource_name, job_id):
        return GRAM_BACKEND.cancel(self, resource_name, job_id)

    globus_job_cancel = job_cancel

    def _dispatch_job_cancel(self, argv):
        return self.job_cancel(argv[argv.index("-r") + 1], argv[-1])

    # ------------------------------------------------------------------
    # File staging
    # ------------------------------------------------------------------
    def stage_in(self, resource_name, remote_path, data):
        """local → remote (upload marshaled input files)."""
        return GRAM_BACKEND.stage_in(
            self, resource_name, remote_path, data)

    def stage_out(self, resource_name, remote_path):
        """remote → local; payload returned on ``result.data``."""
        return GRAM_BACKEND.stage_out(self, resource_name, remote_path)

    def stage_stat(self, resource_name, remote_path):
        """Size/digest probe of a remote file: ``"<size> <md5>"`` or
        ``"absent"`` — how reconciliation re-verifies a transfer whose
        commit record was lost in a crash."""
        return GRAM_BACKEND.stage_stat(self, resource_name, remote_path)

    def _dispatch_url_copy(self, argv):
        def split_url(url):
            if not url.startswith("gsiftp://"):
                return None
            resource_name, _, path = \
                url[len("gsiftp://"):].partition("/")
            return resource_name, "/" + path
        src, dst = argv[-2], argv[-1]
        if "-stat" in argv:
            resource_name, path = split_url(argv[-1])
            return self.stage_stat(resource_name, path)
        if split_url(src) is not None:
            resource_name, path = split_url(src)
            return self.stage_out(resource_name, path)
        raise NotImplementedError(
            "uploads need the original file contents, which the "
            "command log does not keep")


#: The installed client vocabulary — the one place a program name is a
#: key.  Each program maps to its retry-budget operation class (what
#: :func:`~repro.grid.retry.classify_operation` answers) and to the
#: wrapper that replays a logged line of it (what
#: :meth:`GridClients.dispatch` calls).
#: ``grid-proxy-info`` is reported by :meth:`GridClients.ensure_proxy`
#: but never logged, so it has a class and nothing to replay.
PROGRAMS = {
    "grid-proxy-init": (OP_PROXY, GridClients._dispatch_proxy_init),
    "grid-proxy-info": (OP_PROXY, None),
    "globusrun": (OP_SUBMIT, GridClients._dispatch_submit),
    "globusrun-ws": (OP_SUBMIT, GridClients._dispatch_submit),
    "globus-job-status": (OP_POLL, GridClients._dispatch_job_status),
    "globus-job-cancel": (OP_CANCEL, GridClients._dispatch_job_cancel),
    "globus-job-lookup": (OP_POLL, GridClients._dispatch_job_lookup),
    "globus-url-copy": (OP_TRANSFER, GridClients._dispatch_url_copy),
    "globus-job-run": (OP_QSTAT, GridClients._dispatch_queue_status),
}
