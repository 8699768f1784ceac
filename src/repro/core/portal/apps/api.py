"""The portal's JSON API (``/api/v1/``): simulations and campaigns.

Three endpoints for astronomers with scripts:

- ``GET /api/v1/simulations`` — the simulation catalog, cursor-paginated
  (newest first) and filterable by state/kind/star/campaign;
- ``POST /api/v1/campaigns`` — submit a parameter-sweep campaign: the
  sweep is validated as a whole and either every simulation is created
  in one transaction or none is;
- ``GET /api/v1/campaigns/<id>`` — one campaign with its per-state
  simulation counts.

Every error body follows the plain-language convention from
:mod:`repro.serve.api` — one sentence per problem, keyed by the field
that caused it, no grid or database jargon.
"""

from __future__ import annotations

from ....parameters import PARAMETER_BOUNDS
from ....serve.api import (ApiError, error_response, expand_sweep,
                           parse_json_body)
from ....webstack import CursorPaginator, InvalidCursor, path
from ....webstack.http import JsonResponse
from ...models import (CampaignRecord, KIND_DIRECT, KIND_OPTIMIZATION,
                       MACHINE_AUTO, MachineRecord, SIM_STATES,
                       Simulation, Star, SubmitAuthorization)

#: Largest page a client may request in one call.
MAX_PAGE_SIZE = 200
DEFAULT_PAGE_SIZE = 50

#: Ceiling on one campaign's grid (one simulation per point).
MAX_CAMPAIGN_POINTS = 5000


def _iso(value):
    return value.isoformat() if hasattr(value, "isoformat") else value


def _simulation_payload(sim):
    return {
        "id": sim.pk,
        "star": sim.star_id,
        "campaign": sim.campaign_id,
        "kind": sim.kind,
        "state": sim.state,
        "machine": sim.machine_name,
        "created": _iso(sim.created),
        "updated": _iso(sim.updated),
    }


def _campaign_payload(campaign, state_counts):
    return {
        "id": campaign.pk,
        "name": campaign.name,
        "star": campaign.star_id,
        "owner": campaign.owner_id,
        "machine": campaign.machine_name,
        "simulations": campaign.sim_count,
        "states": {state: state_counts[state]
                   for state in sorted(state_counts)},
        "sweep": campaign.spec,
        "created": _iso(campaign.created),
    }


def build_routes(ctx):

    def _record_campaign(campaign, sims):
        ctx.obs.metrics.counter(
            "portal_campaigns_total",
            help="Parameter-sweep campaigns accepted by the API").inc()
        ctx.obs.metrics.counter(
            "portal_submissions_total",
            help="Simulations submitted through the portal").labels(
                kind=KIND_DIRECT).inc(len(sims))
        ctx.obs.events.emit(
            "portal.campaign", campaign=campaign.pk,
            star=campaign.star_id, machine=campaign.machine_name,
            simulations=len(sims))

    # ------------------------------------------------------------------
    # GET /api/v1/simulations
    # ------------------------------------------------------------------

    def sim_list(request):
        if request.method != "GET":
            response = error_response(
                405, "This address only answers GET requests.")
            response.headers["Allow"] = "GET"
            return response
        queryset = Simulation.objects.using(request.db).defer(
            "parameters", "config", "results")
        fields = {}
        state = request.GET.get("state")
        if state:
            if state not in SIM_STATES:
                fields["state"] = [
                    "This is not a simulation state. Expected one of: "
                    + ", ".join(SIM_STATES) + "."]
            else:
                queryset = queryset.filter(state=state)
        kind = request.GET.get("kind")
        if kind:
            if kind not in (KIND_DIRECT, KIND_OPTIMIZATION):
                fields["kind"] = [
                    "This is not a simulation kind. Expected "
                    f"{KIND_DIRECT} or {KIND_OPTIMIZATION}."]
            else:
                queryset = queryset.filter(kind=kind)
        for name in ("star", "campaign"):
            raw = request.GET.get(name)
            if raw:
                try:
                    queryset = queryset.filter(**{name + "_id": int(raw)})
                except ValueError:
                    fields[name] = [f"The {name} filter must be a "
                                    "whole number."]
        limit = DEFAULT_PAGE_SIZE
        raw_limit = request.GET.get("limit")
        if raw_limit:
            try:
                limit = int(raw_limit)
            except ValueError:
                limit = 0
            if not 1 <= limit <= MAX_PAGE_SIZE:
                fields["limit"] = [
                    "The page size must be a whole number between 1 "
                    f"and {MAX_PAGE_SIZE}."]
        if fields:
            return error_response(
                400, "Some filters could not be understood.", fields)
        paginator = CursorPaginator(queryset, per_page=limit)
        try:
            page = paginator.page(request.GET.get("cursor") or None)
        except InvalidCursor:
            return error_response(
                400, "The cursor is not one this service issued. Walk "
                     "pages using the next_cursor value from the "
                     "previous response.")
        return JsonResponse({
            "simulations": [_simulation_payload(s)
                            for s in page.object_list],
            "next_cursor": page.next_cursor,
        })

    # ------------------------------------------------------------------
    # GET /api/v1/campaigns/<id>
    # ------------------------------------------------------------------

    def campaign_detail(request, pk):
        if request.method != "GET":
            response = error_response(
                405, "This address only answers GET requests.")
            response.headers["Allow"] = "GET"
            return response
        try:
            campaign = CampaignRecord.objects.using(request.db).get(pk=pk)
        except CampaignRecord.DoesNotExist:
            return error_response(404, f"There is no campaign #{pk}.")
        counts = Simulation.objects.using(request.db).filter(
            campaign_id=pk).values_count("state")
        return JsonResponse(
            {"campaign": _campaign_payload(campaign, counts)})

    # ------------------------------------------------------------------
    # POST /api/v1/campaigns
    # ------------------------------------------------------------------

    def _resolve_star(request, raw, fields):
        if raw is None:
            fields["star"] = ["Name the star to model (its catalog "
                              "number or its name)."]
            return None
        queryset = Star.objects.using(request.db)
        try:
            if isinstance(raw, bool):
                raise ValueError
            if isinstance(raw, int):
                return queryset.get(pk=raw)
            if isinstance(raw, str):
                return queryset.get(name=raw)
            raise ValueError
        except Star.DoesNotExist:
            fields["star"] = [f"No star named {raw!r} is in the "
                              "catalog. Import it first."]
        except ValueError:
            fields["star"] = ["Identify the star by its catalog number "
                              "or its name."]
        return None

    def _resolve_machine(request, raw, fields):
        if raw is None:
            return MACHINE_AUTO
        if not isinstance(raw, str):
            fields["machine"] = ["Name the computing facility as text, "
                                 f"or use {MACHINE_AUTO!r}."]
            return None
        if raw == MACHINE_AUTO:
            return raw
        enabled = [m for m in MachineRecord.objects.using(
            request.db).order_by("name") if m.enabled]
        names = [m.name for m in enabled]
        if raw not in names:
            offered = ", ".join(names + [MACHINE_AUTO])
            fields["machine"] = [
                f"{raw!r} is not an available computing facility. "
                f"Choose one of: {offered}."]
            return None
        return raw

    def _user_authorized(request, machine_name):
        for auth in SubmitAuthorization.objects.using(request.db).filter(
                user_id=request.user.pk, active=True).select_related(
                "machine"):
            if machine_name == MACHINE_AUTO:
                return True
            if auth.machine.name == machine_name:
                return True
        return False

    def campaign_create(request):
        if request.method != "POST":
            response = error_response(
                405, "Submit campaigns by POSTing a JSON description "
                     "to this address.")
            response.headers["Allow"] = "POST"
            return response
        if not getattr(request.user, "is_authenticated", False):
            return error_response(
                401, "Sign in before submitting a campaign. Send your "
                     "session cookie with the request.")
        try:
            data = parse_json_body(request)
        except ApiError as exc:
            return error_response(exc.status, exc.message, exc.fields)

        fields = {}
        unknown = set(data) - {"star", "name", "machine", "sweep"}
        for key in sorted(unknown):
            fields[key] = ["This is not part of a campaign description "
                           "(use star, name, machine, and sweep)."]
        name = data.get("name", "")
        if not isinstance(name, str):
            fields["name"] = ["The campaign name must be text."]
        elif len(name) > 120:
            fields["name"] = ["The campaign name is too long (at most "
                              "120 characters)."]
        star = _resolve_star(request, data.get("star"), fields)
        machine = _resolve_machine(request, data.get("machine"), fields)
        if "sweep" not in data:
            fields["sweep"] = ["Describe the parameter sweep (one entry "
                               "per model parameter)."]
            points = []
        else:
            points, sweep_errors = expand_sweep(
                data["sweep"], PARAMETER_BOUNDS,
                max_points=MAX_CAMPAIGN_POINTS)
            fields.update(sweep_errors)
        if machine is not None and not fields \
                and not _user_authorized(request, machine):
            fields["machine"] = ["You are not authorized to submit to "
                                 "this facility."]
        if fields:
            return error_response(
                400, "The campaign was not submitted; nothing was "
                     "created. Fix the problems below and retry.",
                fields)

        # One transaction: the campaign row and every member simulation
        # land together or not at all.
        with request.db.atomic():
            campaign = CampaignRecord(
                owner_id=request.user.pk, star_id=star.pk, name=name,
                machine_name=machine, spec=data["sweep"],
                sim_count=len(points))
            campaign.save(db=request.db)
            sims = [Simulation(star_id=star.pk, owner_id=request.user.pk,
                               campaign_id=campaign.pk, kind=KIND_DIRECT,
                               machine_name=machine, parameters=point)
                    for point in points]
            Simulation.objects.using(request.db).bulk_create(sims)
        _record_campaign(campaign, sims)
        return JsonResponse({
            "campaign": campaign.pk,
            "created": len(sims),
            "simulations": [s.pk for s in sims],
        }, status=201)

    return [
        path("api/v1/simulations", sim_list, name="api-sim-list"),
        path("api/v1/campaigns", campaign_create,
             name="api-campaign-create"),
        path("api/v1/campaigns/<int:pk>", campaign_detail,
             name="api-campaign-detail"),
    ]
