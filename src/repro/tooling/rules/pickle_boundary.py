"""``pickle-boundary``: pickle is importable only on the transport allowlist.

The wire protocol, the checkpoint format, and every codec are
deliberately pickle-free (JSON manifests + raw array bytes), so a
malicious or corrupted peer can never execute code through a payload.
The one documented exception is the trusted-operator data-plane handoff:
the transport ``SETUP`` path ships client populations as pickles between
machines the operator controls (``worker.py`` / ``client.py``).

Any *new* ``import pickle`` — in checkpoint, codec, aggregator, or
anywhere else — is an error: it either widens the trust boundary or
quietly reintroduces a pickle dependency into a format that promises not
to have one.  Extend ``LintConfig.pickle_allowlist`` only with a
documented trust argument.
"""

from __future__ import annotations

import ast
from typing import List

from repro.tooling.engine import Finding, LintConfig, Rule, SourceFile

#: Serialization modules with pickle's arbitrary-code-on-load semantics.
_PICKLE_MODULES = {"pickle", "cPickle", "_pickle", "dill", "cloudpickle"}


class PickleBoundaryRule(Rule):
    name = "pickle-boundary"
    description = (
        "pickle importable only from the documented transport SETUP "
        "allowlist; wire/checkpoint/codec code stays pickle-free"
    )

    def check(self, source: SourceFile, config: LintConfig) -> List[Finding]:
        if source.module in config.pickle_allowlist:
            return []
        findings: List[Finding] = []
        for node in ast.walk(source.tree):
            imported = None
            if isinstance(node, ast.Import):
                for alias in node.names:
                    top = alias.name.split(".", 1)[0]
                    if top in _PICKLE_MODULES:
                        imported = alias.name
                        break
            elif isinstance(node, ast.ImportFrom) and not node.level:
                top = (node.module or "").split(".", 1)[0]
                if top in _PICKLE_MODULES:
                    imported = node.module
            if imported is not None:
                findings.append(
                    Finding(
                        source.rel,
                        node.lineno,
                        self.name,
                        f"imports {imported} outside the transport SETUP "
                        "allowlist; the wire, checkpoint, and codec "
                        "formats are pickle-free by contract",
                    )
                )
        return findings
