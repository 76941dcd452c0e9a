"""RPA004 fixture: raw environment reads vs innocent ``os`` use."""

import os
from os import environ

# TRUE POSITIVE: raw os.environ access outside repro/env.py
token = os.environ.get("REPRO_TRACE")

# TRUE POSITIVE: the from-import alias is the same raw access
fallback = environ.get("REPRO_PROFILE")

# near-miss: os use that never touches the environment
joined = os.path.join("a", "b")
