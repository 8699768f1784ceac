"""Simulation submission (direct and optimization runs).

Form data is the *only* thing that touches the database, after passing
the bounded form fields and then the bounded model fields — the two-stage
strict marshaling chain.  GA seeds are generated server-side; users never
control them directly ("each GA is started with randomly generated seed
parameters").
"""

from __future__ import annotations

import secrets

from ....parameters import PARAMETER_BOUNDS
from ....webstack import (Http404, HttpResponseRedirect, path, render)
from ....webstack import forms
from ....webstack.auth import login_required
from ...models import (KIND_DIRECT, KIND_OPTIMIZATION, MACHINE_AUTO,
                       ObservationSet, Simulation, Star,
                       SubmitAuthorization)

#: The broker-backed machine choice: the gateway picks (and re-picks,
#: if a facility goes dark) the best healthy, funded site.
AUTO_CHOICE_LABEL = "Auto — let AMP choose"


class DirectRunForm(forms.Form):
    """The five ASTEC physical parameters, bounds from the science box."""

    mass = forms.FloatField(min_value=PARAMETER_BOUNDS["mass"][0],
                            max_value=PARAMETER_BOUNDS["mass"][1],
                            label="Mass (solar masses)")
    z = forms.FloatField(min_value=PARAMETER_BOUNDS["z"][0],
                         max_value=PARAMETER_BOUNDS["z"][1],
                         label="Metallicity Z")
    y = forms.FloatField(min_value=PARAMETER_BOUNDS["y"][0],
                         max_value=PARAMETER_BOUNDS["y"][1],
                         label="Helium mass fraction Y")
    alpha = forms.FloatField(min_value=PARAMETER_BOUNDS["alpha"][0],
                             max_value=PARAMETER_BOUNDS["alpha"][1],
                             label="Convective efficiency α")
    age = forms.FloatField(min_value=PARAMETER_BOUNDS["age"][0],
                           max_value=PARAMETER_BOUNDS["age"][1],
                           label="Age (Gyr)")


def make_optimization_form(machine_choices, observation_choices):
    class OptimizationForm(forms.Form):
        observation = forms.ChoiceField(choices=observation_choices,
                                        label="Observation set")
        machine = forms.ChoiceField(choices=machine_choices,
                                    label="Computing facility")
        iterations = forms.IntegerField(min_value=10, max_value=500,
                                        initial=200,
                                        label="GA iterations")
    return OptimizationForm


def build_routes(ctx):
    def _star(request, pk):
        try:
            return Star.objects.using(request.db).get(pk=pk)
        except Star.DoesNotExist:
            raise Http404(f"No star #{pk}")

    def _machine_choices(request):
        """Enabled, healthy machines, least congested first, flagged
        when busy.

        The congestion *and health* data is the daemon's published
        telemetry — the portal itself never touches the grid.  Machines
        whose circuit breaker is open are routed away from entirely
        (offered only if every machine is sick, flagged as unavailable,
        so the form never goes empty).  The broker-backed "Auto"
        choice is always offered first: even when every facility is
        sick it is the *resilient* option — the simulation waits in
        the placement pool and starts the moment one recovers."""
        records = [r for r in ctx.machine_records(request.db)
                   if r.enabled]
        records.sort(key=lambda r: (r.queue_depth, r.utilisation,
                                    r.name))
        healthy = [r for r in records if r.is_available]
        sick = [r for r in records if not r.is_available]
        choices = [(MACHINE_AUTO, AUTO_CHOICE_LABEL)]
        for record in healthy:
            label = record.display_name or record.name
            if record.is_busy:
                label += " (queue busy)"
            choices.append((record.name, label))
        if not healthy:
            for record in sick:
                label = (record.display_name or record.name) \
                    + " (temporarily unavailable)"
                choices.append((record.name, label))
        return choices

    def _default_machine(request):
        """Direct runs: the configured production machine, unless its
        breaker is open — then the healthiest alternative, and when
        *no* machine is healthy, the broker's Auto pool.

        Direct submissions never name a sick machine: previously an
        all-sick registry silently fell back to the configured default
        even with its breaker open; now such runs wait in the
        placement pool and start automatically on recovery.
        """
        records = [r for r in ctx.machine_records(request.db)
                   if r.enabled and r.is_available]
        names = {r.name for r in records}
        if ctx.default_machine_name in names:
            return ctx.default_machine_name
        if records:
            records.sort(key=lambda r: (r.queue_depth, r.utilisation,
                                        r.name))
            return records[0].name
        return MACHINE_AUTO

    def _user_authorized(request, machine_name):
        for auth in SubmitAuthorization.objects.using(request.db).filter(
                user_id=request.user.pk, active=True).select_related(
                "machine"):
            if machine_name == MACHINE_AUTO:
                # Auto needs *some* active authorization; the broker
                # only ever places on machines the user may use.
                return True
            if auth.machine.name == machine_name:
                return True
        return False

    def _record_submission(sim):
        """The trace begins here: the portal stamps the submission with
        the simulation's correlation id, which the daemon's spans and
        events carry through every later state transition."""
        ctx.obs.metrics.counter(
            "portal_submissions_total",
            help="Simulations submitted through the portal").labels(
                kind=sim.kind).inc()
        ctx.obs.events.emit(
            "portal.submission", simulation=sim.pk,
            trace_id=sim.correlation_id, sim_kind=sim.kind,
            machine=sim.machine_name)

    def _existing_equivalent(request, star, parameters):
        """§1: the gateway "disseminates model results to the community
        without repetition" — an identical completed direct run is
        reused instead of recomputed."""
        for sim in Simulation.objects.using(request.db).filter(
                star_id=star.pk, kind=KIND_DIRECT, state="DONE").only(
                "parameters"):
            if sim.parameters == parameters:
                return sim
        return None

    @login_required
    def submit_direct(request, pk):
        star = _star(request, pk)
        if request.method == "POST":
            form = DirectRunForm(request.POST)
            if form.is_valid():
                existing = _existing_equivalent(request, star,
                                                form.cleaned_data)
                if existing is not None:
                    return HttpResponseRedirect(
                        f"/simulations/{existing.pk}/?reused=1")
                machine = _default_machine(request)
                sim = Simulation(
                    star_id=star.pk, owner_id=request.user.pk,
                    kind=KIND_DIRECT, machine_name=machine,
                    parameters=form.cleaned_data)
                sim.save(db=request.db)
                _record_submission(sim)
                return HttpResponseRedirect(f"/simulations/{sim.pk}/")
        else:
            form = DirectRunForm()
        return render(request, "submit_direct.html",
                      {"star": star, "form": form})

    @login_required
    def submit_optimization(request, pk):
        star = _star(request, pk)
        observations = list(ObservationSet.objects.using(
            request.db).filter(star_id=star.pk))
        if not observations:
            raise Http404(
                f"{star.name} has no observation sets to fit")
        obs_choices = [(str(o.pk), o.label) for o in observations]
        FormClass = make_optimization_form(_machine_choices(request),
                                           obs_choices)
        if request.method == "POST":
            form = FormClass(request.POST)
            if form.is_valid():
                machine = form.cleaned_data["machine"]
                if not _user_authorized(request, machine):
                    form.add_error("machine",
                                   "You are not authorized to submit to "
                                   "this facility.")
                else:
                    sim = Simulation(
                        star_id=star.pk,
                        observation_id=int(
                            form.cleaned_data["observation"]),
                        owner_id=request.user.pk,
                        kind=KIND_OPTIMIZATION, machine_name=machine,
                        config={
                            "n_ga_runs": 4,
                            "iterations":
                                form.cleaned_data["iterations"],
                            "population_size": 126,
                            "processors": 128,
                            "ga_seeds": [
                                secrets.randbelow(10 ** 6)
                                for _ in range(4)],
                        })
                    sim.save(db=request.db)
                    _record_submission(sim)
                    return HttpResponseRedirect(
                        f"/simulations/{sim.pk}/")
        else:
            form = FormClass()
        return render(request, "submit_optimization.html",
                      {"star": star, "form": form})

    return [
        path("submit/direct/<int:pk>/", submit_direct,
             name="submit-direct"),
        path("submit/optimization/<int:pk>/", submit_optimization,
             name="submit-optimization"),
    ]
