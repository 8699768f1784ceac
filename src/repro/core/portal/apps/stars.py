"""Star catalog browsing and search (with AJAX suggest + SIMBAD
fallback)."""

from __future__ import annotations

from ....webstack import (Http404, HttpResponseRedirect, JsonResponse,
                          Paginator, path, render)
from ...models import ObservationSet, Simulation, Star


def build_routes(ctx):
    catalog = ctx.catalog

    def star_list(request):
        # The template prints each star's simulation count and nothing
        # else about them: prefetch_count reads the page's counts with
        # one GROUP BY instead of loading every star's simulations (or
        # issuing one COUNT per star).
        paginator = Paginator(
            Star.objects.using(request.db).order_by("name")
            .prefetch_count("simulations"),
            per_page=25)
        page = paginator.get_page(request.GET.get("page", 1))
        return render(request, "star_list.html",
                      {"stars": page.object_list, "page": page})

    def star_detail(request, pk):
        try:
            star = Star.objects.using(request.db).get(pk=pk)
        except Star.DoesNotExist:
            raise Http404(f"No star #{pk}")
        observations = list(ObservationSet.objects.using(
            request.db).filter(star_id=pk))
        # The detail template renders describe()/state only — defer the
        # wide JSON payloads (results, parameters, config) so a star
        # with 20 finished optimizations doesn't ship megabytes of JSON
        # through the row parser just to print a state badge.
        simulations = list(Simulation.objects.using(request.db)
                           .filter(star_id=pk)
                           .defer("results", "parameters", "config")
                           .order_by("-id")[:20])
        return render(request, "star_detail.html", {
            "star": star, "observations": observations,
            "simulations": simulations})

    def star_search(request):
        """Plain-HTML search: local catalog, then SIMBAD import."""
        query = request.GET.get("q", "").strip()
        if not query:
            return HttpResponseRedirect("/stars/")
        star, created = catalog.search(query)
        if star is not None:
            return HttpResponseRedirect(f"/stars/{star.pk}/")
        stars = Star.objects.using(request.db).filter(
            name__icontains=query).order_by("name").prefetch_count(
            "simulations")[:50]
        return render(request, "star_list.html", {
            "stars": list(stars), "query": query,
            "not_found": not list(stars)})

    def suggest(request):
        """AJAX endpoint: suggest stars with results or in the Kepler
        catalog as soon as enough of an identifier disambiguates."""
        prefix = request.GET.get("q", "")
        return JsonResponse({"suggestions": catalog.suggest(prefix)})

    return [
        path("stars/", star_list, name="star-list"),
        path("stars/<int:pk>/", star_detail, name="star-detail"),
        path("stars/search/", star_search, name="star-search"),
        path("api/suggest/", suggest, name="star-suggest"),
    ]
