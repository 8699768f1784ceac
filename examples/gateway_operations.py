"""Gateway operations: the administrator's day.

Demonstrates the operational flows §4.1/§4.4 describe: approving a
CAPTCHA-gated account request from the admin interface, granting a
machine authorization, watching a transient outage get retried silently,
and recovering a model failure via hold/resume with the copy-paste
command-line debugging the daemon's logs enable.

Run:  python examples/gateway_operations.py
"""

import re

from repro.core import AMPDeployment
from repro.core.catalog import SimbadService
from repro.core.models import Simulation
from repro.core.portal.site import build_admin_app
from repro.grid import FaultInjector
from repro.hpc import HOUR
from repro.webstack.testclient import Client


def main():
    deployment = AMPDeployment()
    portal = Client(deployment.build_portal())

    # ------------------------------------------------------------------
    # 1. An astronomer requests an account (question/answer CAPTCHA).
    # ------------------------------------------------------------------
    page = portal.get("/accounts/register/")
    question = re.search(r"What is the HD number for ([^?]+)\?",
                         page.text).group(1)
    answer = str(SimbadService.REFERENCE[question][0])
    print(f"CAPTCHA: 'What is the HD number for {question}?' "
          f"-> {answer}")
    portal.post("/accounts/register/", {
        "username": "newastro", "email": "newastro@obs.edu",
        "institution": "Observatory", "password": "password1",
        "captcha_answer": answer})
    print("Account requested; login before approval:",
          portal.login("newastro", "password1"))

    # ------------------------------------------------------------------
    # 2. The administrator approves and authorizes from the admin
    #    interface (the developers' deployment, admin role).
    # ------------------------------------------------------------------
    admin_db = deployment.databases.admin
    admin_app, _site = build_admin_app(deployment)
    deployment.create_admin("operator", "operatorpw")
    admin = Client(admin_app)
    assert admin.login("operator", "operatorpw", login_path="/admin/login/")
    assert "Submit" in admin.get("/admin/").text
    changelist = admin.get("/admin/auth_user/").text
    user_pk = re.search(r'/admin/auth_user/(\d+)/">#\d+</a></td>'
                        r"(?:<td>[^<]*</td>)*?<td>newastro</td>",
                        changelist).group(1)
    change_form = admin.get(f"/admin/auth_user/{user_pk}/").text
    assert 'name="is_active"' in change_form
    approved = admin.post(f"/admin/auth_user/{user_pk}/", {
        "username": "newastro", "email": "newastro@obs.edu",
        "first_name": "", "last_name": "", "is_active": "on"})
    add_form = admin.get("/admin/amp_submit_auth/add/").text
    assert 'name="machine_id"' in add_form
    granted = admin.post("/admin/amp_submit_auth/add/", {
        "user_id": user_pk,
        "machine_id": deployment.machine_records["kraken"].pk,
        "allocation_id": deployment.allocations["kraken"].pk,
        "active": "on"})
    assert approved.status_code == granted.status_code == 302
    print("Approved + authorized on kraken; login now:",
          portal.login("newastro", "password1"))

    # ------------------------------------------------------------------
    # 3. A submission rides out an outage (transient handling).
    # ------------------------------------------------------------------
    star_pk = int(portal.get("/stars/search/?q=Tau Ceti")
                  ["Location"].rstrip("/").split("/")[-1])
    response = portal.post(f"/submit/direct/{star_pk}/", {
        "mass": "0.78", "z": "0.008", "y": "0.24", "alpha": "1.8",
        "age": "8.0"})
    sim_pk = int(response["Location"].rstrip("/").split("/")[-1])
    injector = FaultInjector(deployment.fabric, deployment.clock)
    injector.outage("kraken", start_in_s=0.0, duration_s=1 * HOUR)
    deployment.run_daemon_until_idle(poll_interval_s=600)
    simulation = Simulation.objects.using(admin_db).get(pk=sim_pk)
    print(f"\nSimulation #{sim_pk} after an outage: {simulation.state}")
    transients = [r for r in deployment.clients.command_log
                  if r.transient]
    print(f"Transient command failures (retried silently): "
          f"{len(transients)}")
    if transients:
        print("The admin can replay any failed command verbatim:")
        print(f"  $ {transients[0].command_line}")
        replay = deployment.clients.rerun(transients[0])
        print(f"  -> exit {replay.exit_code} now that the system is "
              "back")

    # ------------------------------------------------------------------
    # 4. Notifications audit.
    # ------------------------------------------------------------------
    print(f"\nAdmin notifications: "
          f"{len(deployment.mailer.to_admin())} "
          "(transients + operational)")
    user_mail = deployment.mailer.to_user("newastro@obs.edu")
    print(f"User notifications: {[m.subject for m in user_mail]}")
    print("Note: no grid jargon ever reaches a user message — the "
          "mailer enforces it.")


if __name__ == "__main__":
    main()
