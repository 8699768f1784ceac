"""Account management: login, logout, CAPTCHA-gated registration,
notification preferences."""

from __future__ import annotations

from urllib.parse import urlsplit

from ....webstack import HttpResponseRedirect, path, render
from ....webstack import forms
from ....webstack.auth import (User, authenticate, create_user, login,
                               login_required, logout)
from ...models import UserProfile
from ..captcha import QuestionBank


def _local_path(target):
    """*target* if it is a path on this site, else ``"/"``.

    A login's ``?next=`` comes from the link that sent the browser
    here, so anyone can write it: following ``//evil.example/x`` or
    ``https://evil.example/`` after a successful sign-in would hand the
    signed-in astronomer to a look-alike page.  Browsers read ``/\\``
    as ``//`` and drop tabs and newlines, so those are refused too.
    """
    if (not target.startswith("/") or target.startswith(("//", "/\\"))
            or any(ord(ch) < 0x20 for ch in target)):
        return "/"
    parts = urlsplit(target)
    if parts.scheme or parts.netloc:
        return "/"
    return target


class RegistrationForm(forms.Form):
    username = forms.StringField(max_length=30, min_length=3)
    email = forms.EmailField()
    institution = forms.StringField(max_length=120, required=False)
    password = forms.StringField(max_length=128, min_length=8,
                                 label="Password")


def build_routes(ctx):
    bank: QuestionBank = ctx.question_bank

    def login_view(request):
        if request.method == "POST":
            user = authenticate(request.db,
                                request.POST.get("username", ""),
                                request.POST.get("password", ""))
            if user is not None:
                login(request, user)
                return HttpResponseRedirect(
                    _local_path(request.GET.get("next", "/")))
            return render(request, "login.html",
                          {"error": "Invalid username or password, or "
                                    "your account has not yet been "
                                    "approved."})
        return render(request, "login.html", {})

    def logout_view(request):
        logout(request)
        return HttpResponseRedirect("/")

    def register_view(request):
        if request.method == "POST":
            form = RegistrationForm(request.POST)
            captcha_ok = bank.verify(request.session,
                                     request.POST.get("captcha_answer"))
            if form.is_valid() and captcha_ok:
                existing = User.objects.using(request.db).filter(
                    username=form.cleaned_data["username"]).exists()
                if not existing:
                    user = create_user(
                        request.db, form.cleaned_data["username"],
                        form.cleaned_data["email"],
                        form.cleaned_data["password"],
                        is_active=False)   # awaits admin approval
                    profile = UserProfile(
                        user_id=user.pk,
                        institution=form.cleaned_data["institution"],
                        provenance={"requested_via": "portal"})
                    profile.save(db=request.db)
                return render(request, "register.html",
                              {"submitted": True})
            challenge = bank.issue(request.session)
            return render(request, "register.html", {
                "form": form,
                "captcha_question": challenge.question,
                "captcha_hint_url": challenge.hint_url,
                "captcha_error":
                    None if captcha_ok else
                    "That answer was not correct; please try this one.",
            })
        challenge = bank.issue(request.session)
        return render(request, "register.html", {
            "form": RegistrationForm(),
            "captcha_question": challenge.question,
            "captcha_hint_url": challenge.hint_url,
        })

    @login_required
    def preferences_view(request):
        try:
            profile = UserProfile.objects.using(request.db).get(
                user_id=request.user.pk)
        except UserProfile.DoesNotExist:
            profile = UserProfile(user_id=request.user.pk)
        saved = False
        if request.method == "POST":
            profile.notify_on_completion = \
                "notify_on_completion" in request.POST
            profile.notify_each_transition = \
                "notify_each_transition" in request.POST
            profile.save(db=request.db)
            saved = True
        return render(request, "preferences.html",
                      {"profile": profile, "saved": saved})

    return [
        path("accounts/login/", login_view, name="login"),
        path("accounts/logout/", logout_view, name="logout"),
        path("accounts/register/", register_view, name="register"),
        path("accounts/preferences/", preferences_view,
             name="preferences"),
    ]
