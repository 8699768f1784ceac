"""Star catalog services: local catalog, Kepler list, SIMBAD fallback.

§4.2: "the process of searching for a star uses AJAX to suggest stars
with results or in the Kepler catalog.  If no stars are in AMP's catalog,
the search is passed to the SIMBAD astronomical database and the target,
if found, is added to the local catalog."
"""

from __future__ import annotations

import re

from ..webstack.orm import Q
from .models import Star

_HD_RE = re.compile(r"^\s*HD\s*(\d+)\s*$", re.IGNORECASE)
_KIC_RE = re.compile(r"^\s*KIC\s*(\d+)\s*$", re.IGNORECASE)


class SimbadService:
    """In-process stand-in for the SIMBAD astronomical database.

    Resolves star names and HD identifiers against a fixed reference
    catalog.  ``lookups`` counts remote queries so tests can assert the
    portal only falls back when the local catalog misses.
    """

    #: Reference entries: name → (hd_number, ra, dec).
    REFERENCE = {
        "16 Cyg A": (186408, 295.45, 50.52),
        "16 Cyg B": (186427, 295.47, 50.52),
        "Alpha Cen A": (128620, 219.90, -60.83),
        "Alpha Cen B": (128621, 219.91, -60.84),
        "Beta Hydri": (2151, 6.44, -77.25),
        "Mu Arae": (160691, 266.04, -51.83),
        "Tau Ceti": (10700, 26.02, -15.94),
        "18 Sco": (146233, 243.91, -8.37),
        "Eta Boo": (121370, 208.67, 18.40),
        "Procyon": (61421, 114.83, 5.22),
    }

    def __init__(self):
        self.lookups = 0

    def query(self, text):
        """Resolve a free-text identifier; returns a dict or None."""
        self.lookups += 1
        text = text.strip()
        hd_match = _HD_RE.match(text)
        for name, (hd, ra, dec) in self.REFERENCE.items():
            if name.lower() == text.lower() or \
                    (hd_match and int(hd_match.group(1)) == hd):
                return {"name": name, "hd_number": hd,
                        "ra_deg": ra, "dec_deg": dec}
        return None


class StarCatalog:
    """The portal's catalog service over the Star model."""

    def __init__(self, db, simbad: SimbadService = None):
        self.db = db
        self.simbad = simbad or SimbadService()

    # ------------------------------------------------------------------
    def suggest(self, prefix, limit=10):
        """AJAX suggestions: stars with results or in the Kepler catalog.

        Matches name, "HD n" and "KIC n" identifier forms.
        """
        prefix = prefix.strip()
        if not prefix:
            return []
        qs = Star.objects.using(self.db).only(
            "name", "hd_number", "kic_number", "in_kepler_catalog")
        condition = Q(name__istartswith=prefix)
        hd_match = _HD_RE.match(prefix) or re.match(r"^\s*(\d+)\s*$",
                                                    prefix)
        if hd_match:
            condition = condition | Q(
                hd_number=int(hd_match.group(1)))
        kic_match = _KIC_RE.match(prefix)
        if kic_match:
            condition = condition | Q(kic_number=int(kic_match.group(1)))
        stars = list(qs.filter(condition).order_by("name")[:limit])
        return [{"id": star.pk, "name": star.name,
                 "identifiers": star.identifier_strings(),
                 "kepler": bool(star.in_kepler_catalog)}
                for star in stars]

    def search(self, text):
        """Full search with SIMBAD fallback-and-import.

        Returns ``(star, created)``; ``(None, False)`` when nothing
        resolves anywhere.
        """
        text = text.strip()
        if not text:
            return None, False
        qs = Star.objects.using(self.db)
        # Local catalog first: one query covering every identifier form
        # (exact name, "HD n", "KIC n") instead of up to three round
        # trips; an exact name match wins over identifier matches.
        condition = Q(name__iexact=text)
        hd_match = _HD_RE.match(text)
        if hd_match:
            condition = condition | Q(hd_number=int(hd_match.group(1)))
        kic_match = _KIC_RE.match(text)
        if kic_match:
            condition = condition | Q(kic_number=int(kic_match.group(1)))
        matches = list(qs.filter(condition)[:10])
        for star in matches:
            if star.name.lower() == text.lower():
                return star, False
        if matches:
            return matches[0], False
        # Fall back to SIMBAD and import on success.
        entry = self.simbad.query(text)
        if entry is None:
            return None, False
        star, created = Star.objects.using(self.db).get_or_create(
            name=entry["name"],
            defaults={"hd_number": entry["hd_number"],
                      "ra_deg": entry["ra_deg"],
                      "dec_deg": entry["dec_deg"], "source": "simbad"})
        return star, created
