"""Pagination for list views (Django's Paginator equivalent).

Works with QuerySets (sliced lazily — one COUNT per paginator plus one
LIMIT/OFFSET query per page) and with plain sequences.

:class:`CursorPaginator` is the API-facing variant: keyset pagination
over the primary key, so deep pages cost one indexed range scan instead
of an OFFSET walk, and a client paging through a live table never sees
a row twice when earlier rows are inserted or deleted mid-walk.
"""

from __future__ import annotations

import base64
import binascii
import functools
import math


class EmptyPage(Exception):
    pass


class Page:
    def __init__(self, objects, number, paginator):
        self.object_list = list(objects)
        self.number = number
        self.paginator = paginator

    def __iter__(self):
        return iter(self.object_list)

    def __len__(self):
        return len(self.object_list)

    @property
    def has_next(self):
        return self.number < self.paginator.num_pages

    @property
    def has_previous(self):
        return self.number > 1

    @property
    def next_page_number(self):
        return self.number + 1

    @property
    def previous_page_number(self):
        return self.number - 1

    @property
    def start_index(self):
        """1-based index of the first object on this page."""
        if self.paginator.count == 0:
            return 0
        return (self.number - 1) * self.paginator.per_page + 1

    @property
    def end_index(self):
        return self.start_index + len(self.object_list) - 1


class Paginator:
    def __init__(self, object_list, per_page):
        if per_page < 1:
            raise ValueError("per_page must be >= 1")
        self.object_list = object_list
        self.per_page = int(per_page)

    @functools.cached_property
    def count(self):
        """Total objects, read once: ``page()`` and a template's
        pagination footer consult it several times per request."""
        if hasattr(self.object_list, "count") \
                and not isinstance(self.object_list, (list, tuple)):
            return self.object_list.count()
        return len(self.object_list)

    @property
    def num_pages(self):
        return max(1, math.ceil(self.count / self.per_page))

    def page(self, number):
        try:
            number = int(number)
        except (TypeError, ValueError):
            raise EmptyPage(f"Page number {number!r} is not an integer")
        if number < 1 or number > self.num_pages:
            raise EmptyPage(
                f"Page {number} out of range 1..{self.num_pages}")
        start = (number - 1) * self.per_page
        return Page(self.object_list[start:start + self.per_page],
                    number, self)

    def get_page(self, number):
        """Forgiving variant: clamps bad input to a valid page."""
        try:
            return self.page(number)
        except EmptyPage:
            try:
                number = int(number)
            except (TypeError, ValueError):
                return self.page(1)
            return self.page(min(max(number, 1), self.num_pages))


class InvalidCursor(Exception):
    """The client supplied a cursor we did not mint (or it was mangled
    in transit).  API views turn this into a plain-language 400."""


class CursorPage:
    """One keyset page: the objects plus the opaque continuation token."""

    def __init__(self, objects, next_cursor):
        self.object_list = list(objects)
        self.next_cursor = next_cursor

    def __iter__(self):
        return iter(self.object_list)

    def __len__(self):
        return len(self.object_list)

    @property
    def has_next(self):
        return self.next_cursor is not None


class CursorPaginator:
    """Keyset (cursor) pagination over a QuerySet's primary key.

    Pages are ordered by descending pk (newest first — the natural feed
    order for an append-mostly table).  The cursor is an opaque token
    encoding the last pk the client saw; the next page is everything
    strictly older.  One LIMIT'ed indexed query per page, no COUNT.

    Parameters
    ----------
    queryset:
        Base QuerySet; any filters should already be applied.  The
        paginator imposes its own ordering.
    per_page:
        Page size; also the ceiling for client-requested sizes.
    """

    def __init__(self, queryset, per_page=50):
        if per_page < 1:
            raise ValueError("per_page must be >= 1")
        self.queryset = queryset
        self.per_page = int(per_page)

    @staticmethod
    def encode_cursor(pk):
        raw = f"pk:{int(pk)}".encode("ascii")
        return base64.urlsafe_b64encode(raw).decode("ascii")

    @staticmethod
    def decode_cursor(token):
        try:
            raw = base64.urlsafe_b64decode(token.encode("ascii"))
            tag, _, value = raw.decode("ascii").partition(":")
            if tag != "pk":
                raise ValueError(tag)
            return int(value)
        except (ValueError, UnicodeError, binascii.Error):
            raise InvalidCursor(
                "The page marker is not one this service issued. "
                "Request the first page again without a marker.")

    def page(self, cursor=None, limit=None):
        """Return the :class:`CursorPage` after *cursor* (None = first)."""
        size = self.per_page if limit is None \
            else max(1, min(int(limit), self.per_page))
        qs = self.queryset.order_by("-pk")
        if cursor is not None:
            qs = qs.filter(pk__lt=self.decode_cursor(cursor))
        # Fetch one extra row: its presence proves there is a next page
        # without a COUNT.
        rows = list(qs[:size + 1])
        has_more = len(rows) > size
        rows = rows[:size]
        next_cursor = self.encode_cursor(rows[-1].pk) \
            if has_more and rows else None
        return CursorPage(rows, next_cursor)
