"""AdminSite: registration, sign-in, generated views, and URL routes."""

from __future__ import annotations

from ..auth import authenticate, login, staff_required
from ..http import (Http404, HttpResponse, HttpResponseBadRequest,
                    HttpResponseForbidden, HttpResponseRedirect)
from ..orm.exceptions import IntegrityError, ValidationError
from ..orm.fields import BooleanField, DateTimeField, ForeignKey
from ..templates.context import escape

_PAGE = """<html><head><title>{title} | webstack admin</title></head>
<body><h1>{title}</h1><p><a href="{root}">admin index</a></p>{body}
</body></html>"""

_LOGIN_FORM = """<form method="post" action="/admin/login/">
<p><label>Username</label><input name="username"></p>
<p><label>Password</label><input name="password" type="password"></p>
<button type="submit">Sign in</button></form>"""


class AdminSite:
    """The registry + view factory for the admin interface."""

    def __init__(self, db, *, title="Gateway administration"):
        self.db = db
        self.title = title
        self._registry = {}

    def register(self, model):
        self._registry[model._meta.table_name] = model

    def get(self, table_name):
        try:
            return self._registry[table_name]
        except KeyError:
            raise Http404(f"Model {table_name!r} is not registered")

    def queryset(self, model):
        """Every row of *model*, in its ``Meta.ordering``."""
        return model.objects.using(self.db).order_by(*model._meta.ordering)

    # ------------------------------------------------------------------
    # Views (wrapped by routes())
    # ------------------------------------------------------------------
    def login_view(self, request):
        """Sign an operator in: only an active staff account gets a
        session; anyone else gets the form back with a 403."""
        if request.method == "POST":
            user = authenticate(self.db, request.POST.get("username", ""),
                                request.POST.get("password", ""))
            if user is not None and user.is_staff:
                login(request, user)
                return HttpResponseRedirect("/admin/")
            return HttpResponseForbidden(_PAGE.format(
                title="Sign in", root="/admin/",
                body="<p>Wrong username or password, or not a staff "
                     "account.</p>" + _LOGIN_FORM).encode("utf-8"))
        return HttpResponse(_PAGE.format(title="Sign in", root="/admin/",
                                         body=_LOGIN_FORM))

    def index_view(self, request):
        items = "".join(
            f'<li><a href="/admin/{key}/">'
            f"{escape(model.__name__)}</a> "
            f"({self.queryset(model).count()} rows)</li>"
            for key, model in sorted(self._registry.items()))
        return HttpResponse(_PAGE.format(
            title=self.title, root="/admin/", body=f"<ul>{items}</ul>"))

    def changelist_view(self, request, table):
        model = self.get(table)
        names = [f.attname for f in model._meta.fields]
        head = "".join(f"<th>{escape(n)}</th>" for n in names)
        rows = []
        for obj in self.queryset(model)[:200]:
            cells = "".join(
                f"<td>{escape(getattr(obj, n, ''))}</td>" for n in names)
            rows.append(
                f'<tr><td><a href="/admin/{table}/{obj.pk}/">#{obj.pk}'
                f"</a></td>{cells}</tr>")
        body = (f'<table><tr><th>pk</th>{head}</tr>{"".join(rows)}</table>'
                f'<p><a href="/admin/{table}/add/">Add</a></p>')
        return HttpResponse(_PAGE.format(
            title=model.__name__, root="/admin/", body=body))

    def change_view(self, request, table, pk):
        """Edit one row: how an operator approves an account or adjusts
        an allocation."""
        model = self.get(table)
        try:
            obj = self.queryset(model).get(pk=pk)
        except model.DoesNotExist:
            raise Http404(f"{table} #{pk} not found")
        if request.method == "POST":
            return self._apply_change(request, obj,
                                      redirect=f"/admin/{table}/")
        body = self._render_form(model, obj, action=f"/admin/{table}/{pk}/")
        return HttpResponse(_PAGE.format(
            title=f"{model.__name__} #{pk}", root="/admin/", body=body))

    def add_view(self, request, table):
        """Create one row: how an operator grants an authorization."""
        model = self.get(table)
        if request.method == "POST":
            return self._apply_change(request, model(),
                                      redirect=f"/admin/{table}/")
        body = self._render_form(model, None, action=f"/admin/{table}/add/")
        return HttpResponse(_PAGE.format(
            title=f"Add {model.__name__}", root="/admin/", body=body))

    # ------------------------------------------------------------------
    def _apply_change(self, request, obj, redirect):
        obj._state_db = self.db
        for field in obj._meta.editable_fields():
            raw = request.POST.get(field.attname)
            if isinstance(field, BooleanField):
                setattr(obj, field.attname, raw is not None)
            elif raw is not None:
                if raw == "" and field.null:
                    setattr(obj, field.attname, None)
                else:
                    setattr(obj, field.attname, raw)
        try:
            obj.save(db=self.db)
        except ValidationError as exc:
            return HttpResponseBadRequest(
                escape("; ".join(exc.messages)).encode("utf-8"))
        except IntegrityError as exc:
            return HttpResponseBadRequest(escape(str(exc)).encode("utf-8"))
        return HttpResponseRedirect(redirect)

    def _render_form(self, model, obj, action):
        rows = []
        for field in model._meta.editable_fields():
            value = getattr(obj, field.attname, None) if obj else \
                field.get_default()
            if isinstance(field, DateTimeField) and value is not None:
                value = field.to_db(value)
            if isinstance(field, BooleanField):
                widget = (f'<input type="checkbox" name="{field.attname}"'
                          f'{" checked" if value else ""}>')
            elif field.choices:
                options = "".join(
                    f'<option value="{escape(v)}"'
                    f'{" selected" if v == value else ""}>'
                    f"{escape(label)}</option>"
                    for v, label in field.choices)
                widget = (f'<select name="{field.attname}">{options}'
                          f"</select>")
            else:
                display = "" if value is None else value
                if isinstance(field, ForeignKey):
                    display = getattr(obj, field.attname, "") or "" \
                        if obj else ""
                widget = (f'<input name="{field.attname}" '
                          f'value="{escape(display)}">')
            rows.append(f"<p><label>{escape(field.verbose_name)}</label>"
                        f"{widget}</p>")
        return (f'<form method="post" action="{action}">'
                + "".join(rows) + '<button type="submit">Save</button></form>')

    # ------------------------------------------------------------------
    def routes(self):
        """URL patterns to mount (only on non-public deployments)."""
        from ..urls import path
        return [
            path("admin/login/", self.login_view, name="admin-login"),
            path("admin/", staff_required(self.index_view),
                 name="admin-index"),
            path("admin/<str:table>/", staff_required(self.changelist_view),
                 name="admin-list"),
            path("admin/<str:table>/add/", staff_required(self.add_view),
                 name="admin-add"),
            path("admin/<str:table>/<int:pk>/",
                 staff_required(self.change_view), name="admin-change"),
        ]
