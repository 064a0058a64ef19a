"""Entity ids on the simulated network."""

#: Sentinel entity id for the curator/server.
SERVER_ID = -1
