"""A minimal pipelining HTTP/1.1 client over one keep-alive connection.

Requests can be written on a schedule without waiting for the previous
response (an open loop); responses are read back in order.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Optional, Tuple


class Connection:
    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def open(self) -> "Connection":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        return self

    def send(self, method: str, path: str, body: Optional[bytes] = None) -> None:
        """Write one request; its response is read by :meth:`receive`."""
        body = body or b""
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: keep-alive\r\n\r\n"
        )
        self._writer.write(head.encode("latin-1") + body)

    async def receive(self) -> Tuple[int, Any]:
        """Read the next response: ``(status, decoded JSON body)``."""
        line = await self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        status = int(line.split()[1])
        length = 0
        while True:
            header = await self._reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        body = await self._reader.readexactly(length) if length else b""
        return status, json.loads(body) if body else None

    async def request(
        self, method: str, path: str, payload: Any = None
    ) -> Tuple[int, Any]:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        return await self.request_raw(method, path, body)

    async def request_raw(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Any]:
        self.send(method, path, body)
        await self._writer.drain()
        return await self.receive()

    async def drain(self) -> None:
        await self._writer.drain()

    def abandon(self) -> None:
        """Drop the socket without a graceful close (process teardown)."""
        if self._writer is not None:
            self._writer.transport.abort()
