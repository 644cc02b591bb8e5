#!/usr/bin/env python
"""Regenerate docs/API.md from module docstrings.

Run:  python docs/generate_api.py
"""

import importlib
import inspect
from pathlib import Path

MODULES = [
    "repro",
    "repro.nn.workloads", "repro.nn.layers", "repro.nn.graph",
    "repro.nn.fusion", "repro.nn.zoo",
    "repro.space.knobs", "repro.space.space", "repro.space.templates",
    "repro.space.neighborhood", "repro.space.sampling",
    "repro.hardware.device", "repro.hardware.resources",
    "repro.hardware.cost_model", "repro.hardware.noise",
    "repro.hardware.measure", "repro.hardware.executor",
    "repro.hardware.calibration",
    "repro.learning.tree", "repro.learning.gbt", "repro.learning.mlp",
    "repro.learning.rank", "repro.learning.metrics", "repro.learning.sa",
    "repro.learning.transfer",
    "repro.core.ted", "repro.core.bted", "repro.core.bootstrap",
    "repro.core.bao", "repro.core.droplet", "repro.core.adaptive",
    "repro.core.tuner", "repro.core.tuners",
    "repro.core.callbacks", "repro.core.events",
    "repro.obs", "repro.obs.hooks", "repro.obs.metrics", "repro.obs.trace",
    "repro.obs.summary", "repro.obs.observer",
    "repro.tlog.signature", "repro.tlog.db", "repro.tlog.warm",
    "repro.pipeline.tasks", "repro.pipeline.records",
    "repro.pipeline.compiler",
    "repro.experiments.settings", "repro.experiments.runner",
    "repro.experiments.engine", "repro.experiments.fig4",
    "repro.experiments.fig5", "repro.experiments.table1",
    "repro.experiments.ablation", "repro.experiments.analysis",
    "repro.experiments.report", "repro.experiments.transfer",
    "repro.experiments.adaptive",
    "repro.service", "repro.service.jobs", "repro.service.store",
    "repro.service.queue", "repro.service.runner", "repro.service.api",
    "repro.service.client", "repro.service.dashboard",
    "repro.utils.rng", "repro.utils.mathx", "repro.utils.plot",
]


def main() -> None:
    """Build docs/API.md next to this script."""
    lines = [
        "# API reference",
        "",
        "Auto-generated from module docstrings "
        "(`python docs/generate_api.py` regenerates this file).",
        "",
    ]
    for name in MODULES:
        module = importlib.import_module(name)
        doc = inspect.getdoc(module) or ""
        first_paragraph = doc.split("\n\n")[0].replace("\n", " ")
        lines.append(f"## `{name}`")
        lines.append("")
        lines.append(first_paragraph)
        lines.append("")
        publics = list(sorted(getattr(module, "__all__", []) or []))
        if not publics:
            for attr_name, attr in sorted(vars(module).items()):
                if attr_name.startswith("_"):
                    continue
                if inspect.isclass(attr) or inspect.isfunction(attr):
                    if getattr(attr, "__module__", "") == name:
                        publics.append(attr_name)
        if publics:
            lines.append("Public: " + ", ".join(f"`{p}`" for p in publics))
            lines.append("")
    out = Path(__file__).parent / "API.md"
    out.write_text("\n".join(lines))
    print(f"{out} written")


if __name__ == "__main__":
    main()
