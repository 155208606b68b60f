"""Core of the CSS framework: the scheme registry and its factories."""

from .framework import (
    OFFLINE_SCHEMES,
    ONLINE_SCHEMES,
    UncompressedOnlineList,
    offline_factory,
    online_factory,
    register_scheme,
    scheme_factory,
)

__all__ = [
    "OFFLINE_SCHEMES",
    "ONLINE_SCHEMES",
    "offline_factory",
    "online_factory",
    "register_scheme",
    "scheme_factory",
    "UncompressedOnlineList",
]
