"""Foils the paper measures its designs against — Storm, Spark,
Elasticsearch, Druid, Kafka-replay Kappa and Lambda (DESIGN.md §2.13) —
kept beside the experiments that run them and out of ``src/repro``."""
