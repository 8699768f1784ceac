"""Simulation monitoring and completed-result viewing."""

from __future__ import annotations

from ....webstack import Http404, JsonResponse, path, render
from ....webstack.orm import Count
from ...models import (AllocationRecord, LEASE_KIND_PRESENCE,
                       LEASE_KIND_SLICE, LeaseRecord, MachineRecord,
                       RESERVATION_RESERVED, RESERVATION_SETTLED,
                       ReservationRecord, SIM_DONE, Simulation, Star)


def build_routes(ctx):
    display_names = ctx.machine_display_names

    def _get(request, pk):
        try:
            return Simulation.objects.using(request.db).get(pk=pk)
        except Simulation.DoesNotExist:
            raise Http404(f"No simulation #{pk}")

    def sim_list(request):
        # The listing renders each row's star name: select_related
        # JOIN-loads it (one query for the page instead of one per
        # simulation), and the wide JSON columns are deferred since the
        # table shows only identity/state/status columns.
        qs = (Simulation.objects.using(request.db).order_by("-id")
              .select_related("star")
              .defer("results", "parameters", "config"))
        if getattr(request.user, "is_authenticated", False):
            mine = qs.filter(owner_id=request.user.pk)
            simulations = list(mine[:50]) or list(qs[:50])
        else:
            simulations = list(qs[:50])
        return render(request, "sim_list.html",
                      {"simulations": simulations})

    def sim_detail(request, pk):
        sim = _get(request, pk)
        return render(request, "sim_detail.html", {
            "sim": sim,
            "machine_display": display_names.get(sim.machine_name,
                                                 sim.machine_name)})

    def hr_data(request, pk):
        """HR-diagram series (the portal's plot data endpoint)."""
        sim = _get(request, pk)
        if sim.state != SIM_DONE or not sim.results:
            raise Http404("Results not available")
        track = sim.results.get("track") or []
        return JsonResponse({
            "star": sim.star.name,
            "series": [{"age_gyr": p[0], "teff_k": p[1],
                        "luminosity_lsun": p[2], "radius_rsun": p[3]}
                       for p in track]})

    def echelle_data(request, pk):
        """Echelle-diagram points: ν mod Δν vs ν, per degree."""
        sim = _get(request, pk)
        if sim.state != SIM_DONE or not sim.results:
            raise Http404("Results not available")
        scalars = sim.results["scalars"]
        dnu = scalars["delta_nu"]
        points = []
        for degree, nus in sorted(sim.results["frequencies"].items()):
            for nu in nus:
                points.append({"degree": int(degree), "frequency": nu,
                               "modulo": nu % dnu})
        return JsonResponse({"star": sim.star.name, "delta_nu": dnu,
                             "points": points})

    def _done_or_404(request, pk):
        sim = _get(request, pk)
        if sim.state != SIM_DONE or not sim.results:
            raise Http404("Results not available")
        return sim

    def hr_svg_view(request, pk):
        """The HR diagram itself, as an SVG document."""
        from ...plots import hr_diagram_svg
        from ....webstack import HttpResponse
        sim = _done_or_404(request, pk)
        scalars = sim.results["scalars"]
        svg = hr_diagram_svg(sim.results.get("track") or [],
                             star_name=sim.star.name,
                             current=(scalars["teff"],
                                      scalars["luminosity"]))
        return HttpResponse(svg, content_type="image/svg+xml")

    def echelle_svg_view(request, pk):
        """The Echelle plot itself, as an SVG document."""
        from ...plots import echelle_svg
        from ....webstack import HttpResponse
        sim = _done_or_404(request, pk)
        svg = echelle_svg(sim.results["frequencies"],
                          sim.results["scalars"]["delta_nu"],
                          star_name=sim.star.name)
        return HttpResponse(svg, content_type="image/svg+xml")

    def cancel_simulation(request, pk):
        """Owner-initiated cancellation of a not-yet-started simulation.

        Only QUEUED simulations can be withdrawn from the portal — once
        the daemon owns the workflow, operators handle intervention.
        """
        from ....webstack import (HttpResponseBadRequest,
                                  HttpResponseForbidden,
                                  HttpResponseRedirect)
        sim = _get(request, pk)
        if request.method != "POST":
            return HttpResponseBadRequest(b"POST required")
        if not getattr(request.user, "is_authenticated", False) \
                or sim.owner_id != request.user.pk:
            return HttpResponseForbidden(
                b"Only the owner may cancel a simulation")
        if sim.state != "QUEUED":
            return HttpResponseBadRequest(
                b"Only queued simulations can be cancelled")
        sim.state = "CANCELLED"
        sim.status_message = "Cancelled before processing began."
        sim.save(db=request.db)
        return HttpResponseRedirect(f"/simulations/{sim.pk}/")

    def statistics(request):
        """Gateway statistics: simulations by state/kind, SU usage,
        and facility health (queue depth + breaker state, as published
        by the daemon's telemetry channel)."""
        sims = Simulation.objects.using(request.db)
        by_state = sims.values_count("state")
        by_kind = sims.values_count("kind")
        by_machine = sims.values_count("machine_name")
        totals = sims.aggregate(total=Count("*"))
        allocations = []
        for record in AllocationRecord.objects.using(
                request.db).select_related("machine"):
            allocations.append({
                "project": record.project,
                "machine": record.machine.display_name
                or record.machine.name,
                "su_used": record.su_used,
                "su_granted": record.su_granted,
            })
        facilities = []
        for record in MachineRecord.objects.using(
                request.db).order_by("name"):
            if record.breaker_state == "closed":
                health = "available"
            elif record.breaker_state == "open":
                health = "unavailable"
            else:
                health = "recovering"
            facilities.append({
                "name": record.display_name or record.name,
                "health": health,
                "queue_depth": record.queue_depth,
                "utilisation": record.utilisation,
            })
        # Resource-brokering digest: what the placement engine decided,
        # read straight from the reservation ledger (portal-readable,
        # daemon-written) plus the observability counters.
        per_machine = {}
        brokering = {"active": 0, "reserved_su": 0.0,
                     "settled": 0, "settled_su": 0.0, "released": 0}
        for row in ReservationRecord.objects.using(request.db).all():
            machine = per_machine.setdefault(
                row.machine_name,
                {"machine": display_names.get(row.machine_name,
                                              row.machine_name),
                 "active": 0, "reserved_su": 0.0, "settled": 0,
                 "settled_su": 0.0})
            if row.state == RESERVATION_RESERVED:
                machine["active"] += 1
                machine["reserved_su"] += row.estimated_su
                brokering["active"] += 1
                brokering["reserved_su"] += row.estimated_su
            elif row.state == RESERVATION_SETTLED:
                machine["settled"] += 1
                machine["settled_su"] += row.settled_su or 0.0
                brokering["settled"] += 1
                brokering["settled_su"] += row.settled_su or 0.0
            else:
                brokering["released"] += 1
        brokering["by_machine"] = [
            per_machine[name] for name in sorted(per_machine)]
        metrics = ctx.obs.metrics
        brokering["placements"] = int(
            metrics.total("sched_placements_total"))
        brokering["migrations"] = int(
            metrics.total("sched_migrations_total"))
        brokering["refusals"] = int(metrics.total("sched_refusals_total"))
        # Daemon-fleet digest: who is alive and who owns which slice
        # of the work partition, read straight from the lease table
        # (portal-readable, daemon-written) — the operator's one-look
        # answer to "is the fleet healthy and balanced?".
        now = ctx.clock.now
        fleet = {"instances": [], "slices": []}
        for row in LeaseRecord.objects.using(request.db).order_by("id"):
            if row.kind == LEASE_KIND_PRESENCE:
                fleet["instances"].append({
                    "instance": row.owner,
                    "renewed_age": max(0.0, now - row.renewed_at),
                    "live": row.expires_at > now,
                })
            elif row.kind == LEASE_KIND_SLICE:
                fleet["slices"].append({
                    "slice": row.slice_index,
                    "of": row.n_slices,
                    "owner": row.owner or "(unclaimed)",
                    "token": row.fencing_token,
                    "expired": row.expires_at <= now,
                })
        fleet["live_count"] = sum(
            1 for i in fleet["instances"] if i["live"])
        return render(request, "statistics.html", {
            "fleet": fleet,
            "brokering": brokering,
            "by_state": sorted(by_state.items()),
            "by_kind": sorted(by_kind.items()),
            "by_machine": sorted(by_machine.items()),
            "total": totals["total"],
            "star_count": Star.objects.using(request.db).count(),
            "allocations": allocations,
            "facilities": facilities,
            "ops": ctx.obs.health_summary(),
        })

    def metrics_view(request):
        """Prometheus text exposition of the whole gateway's metrics.

        The portal only *reads* the registry — all instrumented layers
        (daemon, grid clients, webstack) share the one deployment-wide
        facade, so a single scrape covers the whole architecture.
        """
        from ....webstack import HttpResponse
        return HttpResponse(
            ctx.obs.metrics.render_prometheus(),
            content_type="text/plain; version=0.0.4; charset=utf-8")

    return [
        path("statistics/", statistics, name="statistics"),
        path("metrics", metrics_view, name="metrics"),
        path("simulations/<int:pk>/cancel/", cancel_simulation,
             name="sim-cancel"),
        path("simulations/", sim_list, name="sim-list"),
        path("simulations/<int:pk>/", sim_detail, name="sim-detail"),
        path("simulations/<int:pk>/hr/", hr_data, name="sim-hr"),
        path("simulations/<int:pk>/echelle/", echelle_data,
             name="sim-echelle"),
        path("simulations/<int:pk>/hr.svg", hr_svg_view,
             name="sim-hr-svg"),
        path("simulations/<int:pk>/echelle.svg", echelle_svg_view,
             name="sim-echelle-svg"),
    ]
