"""HTTP helpers for the tests that talk to a live ``repro serve``.

Every request carries a timeout, so a hung server fails the test that
hit it instead of hanging the suite.  Error statuses raise
``urllib.error.HTTPError`` exactly as ``urllib`` does.
"""

import json
import time
import urllib.request

#: Seconds any single request may take before the test fails.
TIMEOUT_S = 300


def request(url, data=None, headers=None):
    """One request — a POST when ``data`` is given, else a GET.

    Returns ``(status, headers, body bytes)``.
    """
    with urllib.request.urlopen(
            urllib.request.Request(url, data=data, headers=headers or {}),
            timeout=TIMEOUT_S) as response:
        return response.status, dict(response.headers), response.read()


def get(url):
    return request(url)


def get_json(url):
    return json.loads(get(url)[2])


def post(url, /, **payload):
    """POST ``payload`` as one JSON object."""
    return request(url, json.dumps(payload).encode(),
                   {"Content-Type": "application/json"})


def post_text(url, text):
    return request(url, text.encode("utf-8"),
                   {"Content-Type": "text/plain; charset=utf-8"})


def stream_lines(url):
    """Every record of an NDJSON stream, decoded, once it has ended."""
    with urllib.request.urlopen(url, timeout=TIMEOUT_S) as response:
        return [json.loads(line) for line in response if line.strip()]


def wait_for(probe, timeout=60.0, interval=0.05):
    """Poll ``probe()`` until it returns something truthy; return that."""
    deadline = time.monotonic() + timeout
    while True:
        outcome = probe()
        if outcome:
            return outcome
        if time.monotonic() > deadline:
            raise AssertionError(f"still false after {timeout:g}s: {probe}")
        time.sleep(interval)
