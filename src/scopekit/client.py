"""HTTP client for a text-generation endpoint.

Wire contract: POST JSON {"prompt", "max_new_tokens", "stop", "temperature"}
answered by {"text", "stop_reason"}. Stop sequences are also enforced
client-side, so returned text never contains one regardless of server
behavior.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import logging
import os
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

from .errors import EndpointUnavailableError, GenerationTimeoutError, MalformedResponseError
from .jsonl import write_jsonl
from .pairs import DEFAULT_EOT_TOKEN

logger = logging.getLogger(__name__)

AUTH_TOKEN_ENV = "SCOPEKIT_AUTH_TOKEN"
_RETRIES = 2  # attempts after the first, on a transport failure or a 5xx


class StopReason(str, Enum):
    STOP_SEQUENCE = "stop_sequence"
    MAX_TOKENS = "max_tokens"
    END_OF_STREAM = "end_of_stream"


@dataclasses.dataclass(frozen=True)
class GenerationRequest:
    prompt: str
    max_new_tokens: int = 256
    stop_sequences: tuple[str, ...] = (DEFAULT_EOT_TOKEN,)
    temperature: float = 0.0  # deterministic decoding by default
    timeout: float = 120.0


@dataclasses.dataclass(frozen=True)
class GenerationResult:
    text: str
    latency_s: float
    stop_reason: StopReason


@dataclasses.dataclass(frozen=True)
class PredictionOutcome:
    test_id: str
    result: GenerationResult | None
    error: str | None


def _auth_headers() -> dict[str, str]:
    token = os.environ.get(AUTH_TOKEN_ENV)
    return {"Authorization": f"Bearer {token}"} if token else {}


def post_json(url: str, payload, timeout: float, headers: dict[str, str] | None = None) -> tuple[int, bytes]:
    """POST ``payload`` as JSON to ``url``; the answer's status and body.

    An answer of any status is returned, not raised. Proxies come from the
    environment (HTTP_PROXY, HTTPS_PROXY, NO_PROXY) and a 301/302/303 is
    followed as a GET, as urllib does; ``headers`` go to ``url`` only, never
    on to a redirect's target, so a bearer token cannot leak to another host.
    Raises TimeoutError when no answer came within ``timeout`` seconds, and
    ConnectionError for every other transport failure: a refused or reset
    connection, a body cut short, a bad status line, or a URL that urllib
    cannot open.
    """
    data = json.dumps(payload, allow_nan=False).encode("utf-8")
    try:
        request = urllib.request.Request(url, data, {"Content-Type": "application/json"})
        for name, value in (headers or {}).items():
            request.add_unredirected_header(name, value)  # urllib copies only the others
        try:
            response = urllib.request.urlopen(request, timeout=timeout)
        except urllib.error.HTTPError as exc:  # an answer, whatever its status
            response = exc
        with response:
            return response.status, response.read()
    except TimeoutError:
        raise
    except urllib.error.URLError as exc:  # urllib wraps a connect timeout too
        if isinstance(exc.reason, TimeoutError):
            raise TimeoutError(f"{url}: timed out") from exc
        raise ConnectionError(f"{url}: {exc.reason}") from exc
    except (OSError, http.client.HTTPException, ValueError) as exc:
        raise ConnectionError(f"{url}: {exc}") from exc


def _truncate_at_stop(text: str, stops: Sequence[str]) -> tuple[str, bool]:
    cut = len(text)
    for stop in stops:
        if not stop:
            continue
        k = text.find(stop)
        if k >= 0:
            cut = min(cut, k)
    return text[:cut], cut < len(text)


def complete(endpoint: str, request: GenerationRequest) -> GenerationResult:
    """One generation call with _RETRIES idempotent retries on transport failures.

    Retries cover connection errors, timeouts, and 5xx; a 4xx fails
    immediately, and so does an answer whose "text" is no string of valid
    Unicode (MalformedResponseError). Timeouts surface as
    GenerationTimeoutError with no partial text. Latency is the wall-clock
    of the successful attempt.
    """
    payload = {
        "prompt": request.prompt,
        "max_new_tokens": request.max_new_tokens,
        "stop": list(request.stop_sequences),
        "temperature": request.temperature,
    }
    last_exc: Exception | None = None
    for attempt in range(_RETRIES + 1):
        t0 = time.perf_counter()
        try:
            status, data = post_json(endpoint, payload, request.timeout, _auth_headers())
        except TimeoutError as exc:
            last_exc = GenerationTimeoutError(f"generate call timed out after {request.timeout}s")
            last_exc.__cause__ = exc
        except ConnectionError as exc:
            last_exc = EndpointUnavailableError(f"generate call failed: {exc}")
            last_exc.__cause__ = exc
        else:
            if status >= 500:
                last_exc = EndpointUnavailableError(f"generate endpoint answered {status}")
            elif status != 200:
                raise EndpointUnavailableError(f"generate endpoint answered {status}")
            else:
                latency = time.perf_counter() - t0
                try:
                    body = json.loads(data)
                    text = body["text"]
                except (ValueError, KeyError, TypeError) as exc:
                    raise MalformedResponseError(f"bad generate response: {exc}") from exc
                if not isinstance(text, str):
                    raise MalformedResponseError("generate response 'text' is not a string")
                try:
                    text.encode("utf-8")
                except UnicodeEncodeError:  # a lone surrogate escape, which no UTF-8 output can hold
                    raise MalformedResponseError("generate response 'text' holds a lone surrogate") from None
                text, truncated = _truncate_at_stop(text, request.stop_sequences)
                # a scan: a dict lookup would raise on an unhashable value such as []
                raw = StopReason.STOP_SEQUENCE if truncated else body.get("stop_reason")
                reason = next((r for r in StopReason if r == raw), StopReason.END_OF_STREAM)
                return GenerationResult(text=text, latency_s=latency, stop_reason=reason)
        if attempt < _RETRIES:
            logger.warning("generate attempt %d failed (%s); retrying", attempt + 1, last_exc)
    raise last_exc


def batch_predict(
    endpoint: str,
    tests: Iterable[tuple[str, str]],
    template: GenerationRequest,
    *,
    max_in_flight: int = 4,
) -> list[PredictionOutcome]:
    """Run (test_id, prompt) items through the endpoint.

    At most ``max_in_flight`` requests run concurrently; results come back
    in input order. A failing item records its error and does not abort the
    batch.
    """
    items = list(tests)

    def one(item: tuple[str, str]) -> PredictionOutcome:
        test_id, prompt = item
        req = dataclasses.replace(template, prompt=prompt)
        try:
            return PredictionOutcome(test_id, complete(endpoint, req), None)
        except Exception as exc:
            logger.warning("prediction for %s failed: %s", test_id, exc)
            return PredictionOutcome(test_id, None, str(exc))

    if not items:
        return []
    with ThreadPoolExecutor(max_workers=max_in_flight) as pool:
        return list(pool.map(one, items))


def write_predictions(outcomes: Iterable[PredictionOutcome], path: str | Path) -> str:
    return write_jsonl(
        (
            {
                "test_id": o.test_id,
                "text": o.result.text if o.result else None,
                "latency_s": o.result.latency_s if o.result else None,
                "stop_reason": o.result.stop_reason.value if o.result else None,
                "error": o.error,
            }
            for o in outcomes
        ),
        path,
    )
