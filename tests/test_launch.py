"""The launch path: ``python -m repro serve`` as a process.

What only a real process exercises: the argument parser, the run loop,
the SIGTERM drain with its store checkpoint, and the warm restore on
the next start.  The child runs with ``-W error::ResourceWarning``, so
a leaked listening socket or event loop shows on its stderr, which
must stay empty.
"""

import asyncio
import contextlib
import json
import re
import subprocess
import sys
import urllib.request

import pytest

from repro import OMQ, AsyncClient, Client, chain_cq

from .helpers import example11_tbox, random_data
from .test_examples import _ENV  # the child must see ``src/`` too

STOP_GRACE = 10.0
OMQ_RS = OMQ(example11_tbox(), chain_cq("RS"))


@contextlib.contextmanager
def launched(*flags):
    """``repro serve --port 0 *flags``, healthy; yields its URL.  On
    exit: SIGTERM, exit code 0 inside the grace period, clean stderr."""
    command = [sys.executable, "-W", "error::ResourceWarning", "-m",
               "repro", "serve", "--port", "0", "--workers", "2",
               "--log-level", "warning", *flags]
    with subprocess.Popen(command, env=_ENV, text=True,
                          stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as process:
        try:
            url = None
            for line in process.stdout:  # ends if the child dies
                match = re.search(r"repro service on (http://\S+)", line)
                if match:
                    url = match.group(1)
                    break
            assert url, process.stderr.read()[-2000:]
            with urllib.request.urlopen(f"{url}/health") as reply:
                assert json.loads(reply.read())["status"] == "ok"
            yield url
            process.terminate()
            out, err = process.communicate(timeout=STOP_GRACE)
        finally:
            process.kill()  # no-op once it has exited
    assert process.returncode == 0, err[-2000:]
    assert "repro service stopped" in out
    assert err == ""


@pytest.mark.parametrize("flags", [(), ("--async-io",)],
                         ids=["flagless", "async-io"])
def test_every_launch_is_the_one_server(flags):
    with launched(*flags) as url, Client.connect(url) as client:
        client.register_dataset("demo", random_data(1))
        with client.subscribe("demo", OMQ_RS) as sub:
            client.update("demo", inserts=[("R", ("k1", "k2")),
                                           ("S", ("k2", "k3"))])
            deltas = sub.poll(timeout=10.0)
            expected = client.answer("demo", OMQ_RS).answers
        stats = client.stats()
    # the update reached the standing query in the launched process
    assert [delta.added for delta in deltas] == [{("k1", "k3")}]
    assert sub.epoch == 1 and sub.answers == expected
    # coalescing, micro-batching, admission: the asyncio server's block
    assert stats["async_serving"]["workers"] == 2


async def _poll(url: str, tenant: str, subscription: str, since_epoch: int):
    async with AsyncClient.connect(url, tenant=tenant) as client:
        return await client.poll(subscription, since_epoch)


def test_sigterm_checkpoints_and_relaunch_restores(tmp_path):
    data_dir = str(tmp_path / "store")
    inserts = [("R", ("k1", "k2")), ("S", ("k2", "k3"))]
    with launched("--data-dir", data_dir) as url, \
            Client.connect(url) as client, \
            Client.connect(url, tenant="acme") as acme:
        client.register_dataset("demo", random_data(1))
        client.update("demo", inserts=inserts)
        before = client.answer("demo", OMQ_RS).answers
        # a second tenant with a ``demo`` of its own and a standing
        # query over it, one maintained update in
        acme.register_dataset("demo", random_data(2))
        watched = acme.subscribe("demo", OMQ_RS, method="log")
        acme.update("demo", inserts=inserts)
        assert watched.poll(timeout=10.0)
        acme_before = acme.answer("demo", OMQ_RS).answers
    assert ("k1", "k3") in before
    assert ("k1", "k3") in watched.answers == acme_before != before
    with launched("--data-dir", data_dir) as url, \
            Client.connect(url) as client, \
            Client.connect(url, tenant="acme") as acme:
        assert client.datasets() == acme.datasets() == ("demo",)
        assert client.answer("demo", OMQ_RS).answers == before
        assert acme.answer("demo", OMQ_RS).answers == acme_before
        # re-armed under its original id, with its stored options: a
        # poll from before the restart resyncs to the maintained set
        body = asyncio.run(_poll(url, "acme", watched.subscription_id, 0))
    assert body["resync"] and body["epoch"] == watched.epoch
    assert (body["dataset"], body["method"]) == ("demo", "log")
    assert {tuple(row) for row in body["answers"]} == watched.answers
