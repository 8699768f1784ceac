"""HTTP request/response primitives for the webstack framework."""

from .request import HttpRequest, QueryDict, parse_cookies
from .response import (Http404, HttpResponse, HttpResponseBadRequest,
                       HttpResponseForbidden, HttpResponseNotFound,
                       HttpResponseRedirect, HttpResponseServerError,
                       JsonResponse)

__all__ = [
    "Http404", "HttpRequest", "HttpResponse", "HttpResponseBadRequest",
    "HttpResponseForbidden", "HttpResponseNotFound", "HttpResponseRedirect",
    "HttpResponseServerError", "JsonResponse", "QueryDict", "parse_cookies",
]
