"""Transport endpoints: Reno / ECN-Reno / DCTCP senders, DCTCP receiver."""
