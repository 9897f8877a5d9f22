"""End-to-end federated-round benchmark (see README.md in this directory)."""
