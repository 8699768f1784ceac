"""Auto-generated administrative interface over registered models.

The paper highlights that Django's admin let gateway operators approve
users and adjust back-end parameters ("allocations and the authorization
for a user to submit to a machine using a particular allocation") from a
graphical interface "without custom development", and that the admin is
only reachable from the developers' environment, never the public web
servers.  :class:`AdminSite` reproduces exactly that: an operator signs
in at ``admin/login/`` (staff accounts only), and each registered model
gets a changelist, a change view (approve an account, adjust an
allocation) and an add view (grant an authorization).  The site's routes
are mounted only in the non-public deployment, backed by the
full-privilege ``admin`` database role.
"""

from .site import AdminSite

__all__ = ["AdminSite"]
