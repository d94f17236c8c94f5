"""Prometheus text-format exposition: registry, renderer, endpoint.

A dependency-free subset of the Prometheus client model — counters,
gauges, and histograms with labels — rendered in the text exposition
format (version 0.0.4) any Prometheus-compatible scraper ingests:

.. code-block:: text

    # HELP wanify_jobs_admitted_total Jobs admitted to a run slot.
    # TYPE wanify_jobs_admitted_total counter
    wanify_jobs_admitted_total 42

:class:`MetricsEndpoint` serves a registry (or any ``() -> str``
renderer) over HTTP on ``/metrics`` from a daemon thread, which is how
``wanify serve --metrics-port N`` makes a running service scrapable.
:func:`parse_prometheus_text` is the matching strict reader used by the
tests and the CI smoke script — if the rendered text ever stops
parsing, the build fails before an operator's scraper does.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Iterable, Optional

from repro.checks import check_port

#: Buckets (seconds) for job-latency histograms: sub-minute through
#: multi-hour, matching the JCT range the paper's workloads span.
DEFAULT_JCT_BUCKETS_S: tuple[float, ...] = (
    60.0,
    120.0,
    300.0,
    600.0,
    1200.0,
    3600.0,
    7200.0,
)

_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[-+]?(?:[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?|Inf|NaN))$"
)

_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _escape(value: str) -> str:
    """Escape a label value per the exposition format."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _labels_text(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{_escape(value)}"' for key, value in labels)
    return "{" + inner + "}"


class _Family:
    """One metric family: name, help, type, labeled samples."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str) -> None:
        if not _NAME.match(name):
            raise ValueError(f"bad metric name {name!r}")
        self.name = name
        self.help = help_text
        self._samples: dict[tuple[tuple[str, str], ...], float] = {}

    @staticmethod
    def _key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
        return tuple(sorted((k, str(v)) for k, v in labels.items()))

    def render(self) -> list[str]:
        """The family's exposition lines."""
        lines = [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} {self.kind}",
        ]
        for labels, value in sorted(self._samples.items()):
            lines.append(
                f"{self.name}{_labels_text(labels)} {_format_value(value)}"
            )
        return lines


class Counter(_Family):
    """Monotonically increasing count."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add ``amount`` (≥ 0) to the labeled sample."""
        if amount < 0:
            raise ValueError(f"counters only go up: {amount}")
        key = self._key(labels)
        self._samples[key] = self._samples.get(key, 0.0) + amount

    def set_total(self, value: float, **labels: str) -> None:
        """Install an externally accumulated total (scrape-time fill)."""
        self._samples[self._key(labels)] = float(value)


class Gauge(_Family):
    """Point-in-time value."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        """Set the labeled sample."""
        self._samples[self._key(labels)] = float(value)


class Histogram(_Family):
    """Cumulative-bucket histogram (one unlabeled series)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        buckets: Iterable[float] = DEFAULT_JCT_BUCKETS_S,
    ) -> None:
        super().__init__(name, help_text)
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket")
        self._counts = [0] * (len(self.buckets) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self._sum += value
        self._count += 1
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self._counts[index] += 1
                return
        self._counts[-1] += 1

    def render(self) -> list[str]:
        """Cumulative ``_bucket`` lines plus ``_sum`` / ``_count``."""
        lines = [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} {self.kind}",
        ]
        cumulative = 0
        for bound, count in zip(self.buckets, self._counts):
            cumulative += count
            lines.append(
                f'{self.name}_bucket{{le="{_format_value(bound)}"}} '
                f"{cumulative}"
            )
        cumulative += self._counts[-1]
        lines.append(f'{self.name}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{self.name}_sum {_format_value(self._sum)}")
        lines.append(f"{self.name}_count {self._count}")
        return lines


class MetricsRegistry:
    """An ordered collection of metric families with one renderer."""

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}

    def _register(self, family: _Family) -> _Family:
        if family.name in self._families:
            raise ValueError(f"duplicate metric family {family.name!r}")
        self._families[family.name] = family
        return family

    def counter(self, name: str, help_text: str) -> Counter:
        """Create and register a counter family."""
        return self._register(Counter(name, help_text))  # type: ignore[return-value]

    def gauge(self, name: str, help_text: str) -> Gauge:
        """Create and register a gauge family."""
        return self._register(Gauge(name, help_text))  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help_text: str,
        buckets: Iterable[float] = DEFAULT_JCT_BUCKETS_S,
    ) -> Histogram:
        """Create and register a histogram family."""
        return self._register(Histogram(name, help_text, buckets))  # type: ignore[return-value]

    def render(self) -> str:
        """The whole registry in text exposition format."""
        lines: list[str] = []
        for family in self._families.values():
            lines.extend(family.render())
        return "\n".join(lines) + "\n"


def parse_prometheus_text(text: str) -> dict[str, dict[str, Any]]:
    """Strictly parse exposition text into families.

    Returns ``{family: {"type": ..., "help": ..., "samples": [(name,
    labels, value), ...]}}``, attaching ``_bucket``/``_sum``/``_count``
    samples to their histogram family.  Raises :class:`ValueError` on
    any malformed line — this is the validation gate the smoke test
    leans on, so it refuses rather than skips.
    """
    families: dict[str, dict[str, Any]] = {}

    def family_of(sample_name: str) -> Optional[str]:
        for suffix in ("_bucket", "_sum", "_count"):
            base = sample_name.removesuffix(suffix)
            if base != sample_name and base in families:
                if families[base]["type"] == "histogram":
                    return base
        return sample_name if sample_name in families else None

    for raw in text.splitlines():
        line = raw.rstrip()
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            if not _NAME.match(name):
                raise ValueError(f"bad HELP name in {line!r}")
            families.setdefault(
                name, {"type": "untyped", "help": "", "samples": []}
            )["help"] = help_text
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            if not _NAME.match(name) or kind not in (
                "counter",
                "gauge",
                "histogram",
                "untyped",
            ):
                raise ValueError(f"bad TYPE line {line!r}")
            families.setdefault(
                name, {"type": "untyped", "help": "", "samples": []}
            )["type"] = kind
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            raise ValueError(f"malformed sample line {line!r}")
        name = match.group("name")
        labels_raw = match.group("labels") or ""
        labels = dict(_LABEL.findall(labels_raw))
        value = float(match.group("value").replace("Inf", "inf"))
        family = family_of(name)
        if family is None:
            raise ValueError(f"sample {name!r} has no HELP/TYPE header")
        families[family]["samples"].append((name, labels, value))
    return families


class MetricsEndpoint:
    """A daemon-thread HTTP server exposing ``/metrics``.

    ``render`` is called per scrape (so the text always reflects live
    state); ``on_scrape`` (when given) is called once per successful
    scrape, after rendering but before the response is written — the
    hub counts them into ``wanify_metrics_scrapes_total``, so each
    scrape reports the scrapes served *before* it.
    Pass ``port=0`` to bind an ephemeral port (tests); the bound port
    is available as :attr:`port`.
    """

    def __init__(
        self,
        render: Callable[[], str],
        port: int = 0,
        host: str = "127.0.0.1",
        on_scrape: Optional[Callable[[], None]] = None,
    ) -> None:
        check_port(port)
        # The HTTP stack loads with the first endpoint, not with the hub:
        # most runs never open one.
        import threading
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        endpoint = self

        class Handler(BaseHTTPRequestHandler):
            """Serves ``/metrics``; 404 elsewhere; silent logs."""

            def do_GET(self) -> None:  # noqa: N802 - http.server API
                if self.path.split("?", 1)[0] != "/metrics":
                    self.send_error(404, "try /metrics")
                    return
                try:
                    body = endpoint.render().encode()
                except Exception as exc:  # noqa: BLE001 - scrape must not kill the server
                    self.send_error(500, f"render failed: {exc!r}")
                    return
                # Count before the response goes out: a client that has
                # read the body may rely on the counter having moved.
                if endpoint.on_scrape is not None:
                    endpoint.on_scrape()
                self.send_response(200)
                self.send_header(
                    "Content-Type",
                    "text/plain; version=0.0.4; charset=utf-8",
                )
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args: Any) -> None:
                """Scrapes are not stdout events."""

        self.render = render
        self.on_scrape = on_scrape
        self._server = ThreadingHTTPServer((host, port), Handler)
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="wanify-metrics",
            daemon=True,
        )
        self._thread.start()

    @property
    def host(self) -> str:
        """Bound host address."""
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        """Bound port (resolved when constructed with ``port=0``)."""
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        """The scrape URL."""
        return f"http://{self.host}:{self.port}/metrics"

    def close(self) -> None:
        """Stop serving and join the thread."""
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)
