"""The AMP web portal (public site) and the non-public admin project.

``runtime`` is what a portal process holds; ``site`` assembles the web
application and the prefork worker factory.  The package imports
neither: a daemon-side process that composes a ``PortalRuntime``
(``AMPDeployment``) loads no views, templates or serving tier until it
builds a portal.
"""
