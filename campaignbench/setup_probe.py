"""Set-up probe: one fresh interpreter imports the CLI and plans a campaign.

Run by ``run.py`` as ``python setup_probe.py PRESET E1,E2,...`` with
``src`` on ``PYTHONPATH``; the parent times the whole process (start,
import, planning, exit) as one ``setup_s`` sample.  Prints one JSON
line: ``import_s`` (``import repro.cli``), ``plan_s`` (every requested
``ExperimentSpec.cells``) and the planned cell count.
"""

import json
import sys
import time

started = time.perf_counter()
import repro.cli  # noqa: E402,F401  (the import is what is measured)

imported = time.perf_counter()
from repro.experiments import RunProfile, get_spec  # noqa: E402

profile = RunProfile(preset=sys.argv[1])
cells = sum(len(get_spec(exp_id).cells(profile)) for exp_id in sys.argv[2].split(","))
planned = time.perf_counter()
print(
    json.dumps(
        {"import_s": imported - started, "plan_s": planned - imported, "cells": cells}
    )
)
