"""The portal's template set (embedded strings, one importable code base).

The site combines a base layout with per-app pages.  JavaScript-based
AJAX is progressive enhancement only — "the site is fully functional
without these JavaScript enhancements" — so every AJAX endpoint has a
plain-HTML equivalent (the search form posts normally too).
"""

BASE = """<!DOCTYPE html>
<html><head><title>{% block title %}AMP — Asteroseismic Modeling Portal\
{% endblock %}</title></head>
<body>
<div class="banner"><h1><a href="/">Asteroseismic Modeling Portal</a></h1>
<p class="tagline">Deriving the properties of Sun-like stars from Kepler
observations of their pulsation frequencies.</p></div>
<ul class="nav">
<li><a href="/stars/">Star catalog</a></li>
<li><a href="/simulations/">Simulations</a></li>
{% if user.is_authenticated %}
<li>Signed in as {{ user.username }}
 (<a href="/accounts/logout/">sign out</a> ·
  <a href="/accounts/preferences/">preferences</a>)</li>
{% else %}
<li><a href="/accounts/login/">Sign in</a> ·
    <a href="/accounts/register/">Request an account</a></li>
{% endif %}
</ul>
{% block content %}{% endblock %}
<p class="footer">AMP runs its simulations on national supercomputing
resources on your behalf.</p>
</body></html>"""

HOME = """{% extends "base.html" %}
{% block content %}
<h2>Welcome</h2>
<p>AMP provides a web-based interface for astronomers to run and view
simulations that derive the properties of Sun-like stars from
observations of their pulsation frequencies.</p>
<h3>Recently completed simulations</h3>
{% if recent %}
<ul>{% for sim in recent %}
<li><a href="/simulations/{{ sim.pk }}/">{{ sim.describe }}</a>
 — {{ sim.star.name }}</li>
{% endfor %}</ul>
{% else %}<p>No completed simulations yet.</p>{% endif %}
<p>{{ star_count }} star{{ star_count|pluralize }} in the catalog,
{{ sim_count }} simulation{{ sim_count|pluralize }} total.</p>
{% endblock %}"""

LOGIN = """{% extends "base.html" %}
{% block title %}Sign in — AMP{% endblock %}
{% block content %}
<h2>Sign in</h2>
{% if error %}<p class="error">{{ error }}</p>{% endif %}
<form method="post" action="/accounts/login/">
<p><label>Username</label><input name="username"></p>
<p><label>Password</label><input type="password" name="password"></p>
<button type="submit">Sign in</button>
</form>
{% endblock %}"""

REGISTER = """{% extends "base.html" %}
{% block title %}Request an account — AMP{% endblock %}
{% block content %}
<h2>Request an account</h2>
<p>Accounts are approved by the gateway administrators.</p>
{% if submitted %}
<p class="success">Thank you — your request has been received and will be
reviewed by the administrators.</p>
{% else %}
<form method="post" action="/accounts/register/">
{{ form.as_p }}
<p><label>{{ captcha_question }}</label>
<input name="captcha_answer">
<span class="help">Can't remember? <a href="{{ captcha_hint_url }}">Look
it up</a>.</span></p>
{% if captcha_error %}<p class="error">{{ captcha_error }}</p>{% endif %}
<button type="submit">Request account</button>
</form>
{% endif %}
{% endblock %}"""

PREFERENCES = """{% extends "base.html" %}
{% block content %}
<h2>Notification preferences</h2>
{% if saved %}<p class="success">Preferences saved.</p>{% endif %}
<form method="post" action="/accounts/preferences/">
<p><label>E-mail me when a simulation completes</label>
<input type="checkbox" name="notify_on_completion"
 {% if profile.notify_on_completion %}checked{% endif %}></p>
<p><label>E-mail me at every status change</label>
<input type="checkbox" name="notify_each_transition"
 {% if profile.notify_each_transition %}checked{% endif %}></p>
<button type="submit">Save</button>
</form>
{% endblock %}"""

STAR_LIST = """{% extends "base.html" %}
{% block title %}Star catalog — AMP{% endblock %}
{% block content %}
<h2>Star catalog</h2>
<form method="get" action="/stars/search/">
<input name="q" id="star-search" value="{{ query|default:'' }}"
 placeholder="Star name, HD number, or KIC number">
<button type="submit">Search</button>
</form>
<script>
/* Progressive enhancement: suggest-as-you-type against /api/suggest/.
   The form works identically without JavaScript. */
</script>
{% if not_found %}<p class="error">No star matching
“{{ query }}” was found in the catalog or in external databases.</p>
{% endif %}
<table><tr><th>Name</th><th>Identifiers</th><th>Kepler</th>
<th>Simulations</th></tr>
{% for star in stars %}
<tr><td><a href="/stars/{{ star.pk }}/">{{ star.name }}</a></td>
<td>{{ star.identifier_strings|join:", " }}</td>
<td>{{ star.in_kepler_catalog|yesno:"yes,no" }}</td>
<td>{{ star.simulations.count }}</td></tr>
{% endfor %}
</table>
{% if page %}
<p class="pagination">
{% if page.has_previous %}<a href="/stars/?page={{ page.previous_page_number }}">previous</a>{% endif %}
page {{ page.number }} of {{ page.paginator.num_pages }}
({{ page.start_index }}–{{ page.end_index }} of
{{ page.paginator.count }})
{% if page.has_next %}<a href="/stars/?page={{ page.next_page_number }}">next</a>{% endif %}
</p>
{% endif %}
{% endblock %}"""

STAR_DETAIL = """{% extends "base.html" %}
{% block title %}{{ star.name }} — AMP{% endblock %}
{% block content %}
<h2>{{ star.name }}</h2>
<p>Identifiers: {{ star.identifier_strings|join:", " }}
 (source: {{ star.source }})</p>
{% if star.in_kepler_catalog %}<p>This star is in the Kepler input
catalog.</p>{% endif %}
<h3>Observations</h3>
{% if observations %}
<ul>{% for obs in observations %}
<li>{{ obs.label }}: Teff = {{ obs.teff|floatformat:0 }} K
{% if obs.delta_nu %}, Δν = {{ obs.delta_nu|floatformat:1 }} μHz
{% endif %}</li>
{% endfor %}</ul>
{% else %}<p>No observation sets recorded.</p>{% endif %}
<h3>Simulations</h3>
{% if simulations %}
<ul>{% for sim in simulations %}
<li><a href="/simulations/{{ sim.pk }}/">{{ sim.describe }}</a></li>
{% endfor %}</ul>
{% else %}<p>None yet.</p>{% endif %}
{% if user.is_authenticated %}
<p><a href="/submit/direct/{{ star.pk }}/">Run the model directly</a> ·
<a href="/submit/optimization/{{ star.pk }}/">Start an optimization
run</a></p>
{% endif %}
<p class="feeds">Subscribe:
<a href="/feeds/star/{{ star.pk }}/results.rss">results feed</a> ·
<a href="/feeds/star/{{ star.pk }}/progress.rss">progress feed</a></p>
{% endblock %}"""

SIM_LIST = """{% extends "base.html" %}
{% block content %}
<h2>Simulations</h2>
<table><tr><th>Simulation</th><th>Star</th><th>Status</th><th>Note</th></tr>
{% for sim in simulations %}
<tr><td><a href="/simulations/{{ sim.pk }}/">#{{ sim.pk }}
({{ sim.kind }})</a></td>
<td>{{ sim.star.name }}</td><td>{{ sim.state }}</td>
<td>{{ sim.status_message }}</td></tr>
{% empty %}
<tr><td>No simulations.</td></tr>
{% endfor %}
</table>
{% endblock %}"""

SIM_DETAIL = """{% extends "base.html" %}
{% block title %}Simulation #{{ sim.pk }} — AMP{% endblock %}
{% block content %}
<h2>{{ sim.describe }}</h2>
<p>Star: <a href="/stars/{{ sim.star.pk }}/">{{ sim.star.name }}</a>
 · Submitted by {{ sim.owner.username }}
 · Computing facility: {{ machine_display }}</p>
<p>Status: <strong>{{ sim.state }}</strong>
{% if sim.status_message %} — {{ sim.status_message }}{% endif %}</p>
{% if sim.results %}
<h3>Results</h3>
<table>
<tr><th>Effective temperature</th>
<td>{{ sim.results.scalars.teff|floatformat:0 }} K</td></tr>
<tr><th>Luminosity</th>
<td>{{ sim.results.scalars.luminosity|floatformat:3 }} L☉</td></tr>
<tr><th>Radius</th>
<td>{{ sim.results.scalars.radius|floatformat:3 }} R☉</td></tr>
<tr><th>Large separation Δν</th>
<td>{{ sim.results.scalars.delta_nu|floatformat:2 }} μHz</td></tr>
<tr><th>ν<sub>max</sub></th>
<td>{{ sim.results.scalars.nu_max|floatformat:0 }} μHz</td></tr>
</table>
<p><a href="/simulations/{{ sim.pk }}/hr.svg">Hertzsprung–Russell
diagram</a> (<a href="/simulations/{{ sim.pk }}/hr/">data</a>) ·
<a href="/simulations/{{ sim.pk }}/echelle.svg">Echelle diagram</a>
(<a href="/simulations/{{ sim.pk }}/echelle/">data</a>)</p>
{% endif %}
{% endblock %}"""

SUBMIT_DIRECT = """{% extends "base.html" %}
{% block content %}
<h2>Direct model run — {{ star.name }}</h2>
<p>Run the stellar model with explicit physical parameters.  Direct runs
take a few minutes on one processor.</p>
<form method="post" action="/submit/direct/{{ star.pk }}/">
{{ form.as_p }}
<button type="submit">Submit simulation</button>
</form>
{% endblock %}"""

SUBMIT_OPTIMIZATION = """{% extends "base.html" %}
{% block content %}
<h2>Optimization run — {{ star.name }}</h2>
<p>Search for the stellar parameters that best reproduce the observed
pulsation frequencies.  Optimization runs occupy hundreds of processors
for several days; you will be notified when yours completes.</p>
<form method="post" action="/submit/optimization/{{ star.pk }}/">
{{ form.as_p }}
<button type="submit">Submit simulation</button>
</form>
{% endblock %}"""

STATISTICS = """{% extends "base.html" %}
{% block title %}Gateway statistics — AMP{% endblock %}
{% block content %}
<h2>Gateway statistics</h2>
<p>{{ total }} simulation{{ total|pluralize }} across
{{ star_count }} star{{ star_count|pluralize }}.</p>
<h3>Simulations by status</h3>
<ul>{% for state, n in by_state %}<li>{{ state }}: {{ n }}</li>
{% endfor %}</ul>
<h3>Simulations by type</h3>
<ul>{% for kind, n in by_kind %}<li>{{ kind }}: {{ n }}</li>
{% endfor %}</ul>
<h3>Simulations by computing facility</h3>
<ul>{% for name, n in by_machine %}<li>{{ name }}: {{ n }}</li>
{% endfor %}</ul>
<h3>Facility health</h3>
<table><tr><th>Facility</th><th>Status</th>
<th>Queued jobs</th><th>Utilisation</th></tr>
{% for f in facilities %}
<tr><td>{{ f.name }}</td>
<td>{{ f.health }}</td>
<td>{{ f.queue_depth }}</td>
<td>{{ f.utilisation|floatformat:2 }}</td></tr>
{% endfor %}
</table>
<h3>Allocation usage</h3>
<table><tr><th>Project</th><th>Facility</th><th>Used</th>
<th>Granted</th></tr>
{% for a in allocations %}
<tr><td>{{ a.project }}</td><td>{{ a.machine }}</td>
<td>{{ a.su_used|floatformat:0 }}</td>
<td>{{ a.su_granted|floatformat:0 }}</td></tr>
{% endfor %}
</table>
<h3>Resource brokering</h3>
<p>{{ brokering.active }} reservation{{ brokering.active|pluralize }}
holding {{ brokering.reserved_su|floatformat:0 }} service units;
{{ brokering.settled }} run{{ brokering.settled|pluralize }} settled
for {{ brokering.settled_su|floatformat:0 }} service units;
{{ brokering.released }} released.</p>
{% if brokering.by_machine %}
<table><tr><th>Facility</th><th>Active</th><th>Held SUs</th>
<th>Settled</th><th>Settled SUs</th></tr>
{% for b in brokering.by_machine %}
<tr><td>{{ b.machine }}</td><td>{{ b.active }}</td>
<td>{{ b.reserved_su|floatformat:0 }}</td>
<td>{{ b.settled }}</td>
<td>{{ b.settled_su|floatformat:0 }}</td></tr>
{% endfor %}
</table>
{% endif %}
<p>Automatic placements: {{ brokering.placements }};
migrations: {{ brokering.migrations }};
refusals: {{ brokering.refusals }}.</p>
<h3>Daemon fleet</h3>
<p>{{ fleet.live_count }} live
instance{{ fleet.live_count|pluralize }}.</p>
<table><tr><th>Instance</th><th>Presence renewed</th>
<th>Status</th></tr>
{% for i in fleet.instances %}
<tr><td>{{ i.instance }}</td>
<td>{{ i.renewed_age|floatformat:0 }}s ago</td>
<td>{% if i.live %}live{% else %}expired{% endif %}</td></tr>
{% endfor %}
</table>
<table><tr><th>Work slice</th><th>Owner</th><th>Fencing token</th>
<th>Lease</th></tr>
{% for s in fleet.slices %}
<tr><td>{{ s.slice }} of {{ s.of }}</td><td>{{ s.owner }}</td>
<td>{{ s.token }}</td>
<td>{% if s.expired %}expired{% else %}held{% endif %}</td></tr>
{% endfor %}
</table>
<h3>Gateway operations</h3>
<table><tr><th>Indicator</th><th>Value</th></tr>
<tr><td>Daemon polls</td><td>{{ ops.polls }}</td></tr>
<tr><td>Grid commands issued</td><td>{{ ops.grid_commands }}</td></tr>
<tr><td>Grid command failures</td><td>{{ ops.grid_failures }}</td></tr>
<tr><td>Retries scheduled</td><td>{{ ops.retries }}</td></tr>
<tr><td>Breaker transitions</td><td>{{ ops.breaker_transitions }}</td></tr>
<tr><td>Workflow transitions</td><td>{{ ops.transitions }}</td></tr>
<tr><td>Portal requests served</td><td>{{ ops.http_requests }}</td></tr>
<tr><td>Daemon recovery sweeps</td><td>{{ ops.recovery_sweeps }}</td></tr>
<tr><td>Operations recovered at restart</td>
<td>{{ ops.recovered_operations }}</td></tr>
<tr><td>Events recorded</td><td>{{ ops.events }}</td></tr>
<tr><td>Spans recorded</td><td>{{ ops.spans }}</td></tr>
</table>
<p>Full time-series exposition: <a href="/metrics">/metrics</a>.</p>
{% endblock %}"""

TEMPLATES = {
    "base.html": BASE,
    "statistics.html": STATISTICS,
    "home.html": HOME,
    "login.html": LOGIN,
    "register.html": REGISTER,
    "preferences.html": PREFERENCES,
    "star_list.html": STAR_LIST,
    "star_detail.html": STAR_DETAIL,
    "sim_list.html": SIM_LIST,
    "sim_detail.html": SIM_DETAIL,
    "submit_direct.html": SUBMIT_DIRECT,
    "submit_optimization.html": SUBMIT_OPTIMIZATION,
}
