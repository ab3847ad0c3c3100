"""Traffic applications: bulk flows, incast fan-in, partition-aggregate."""
