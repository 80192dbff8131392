"""Fresh-interpreter set-up time of one workload's program objects.

Prints the seconds from just before ``import repro`` until the objects
are ready for the first input: for the serve workloads the
:class:`~repro.serve.DetectionService` is built and started, for the
paper cell the simulator, threshold line and detector configuration are
built and the replay entry points imported.  ``run.py`` starts this script several times and reports the
median as ``setup_s``.

Usage: ``python3 perfbench/setup_probe.py <workload> [--tiny]``
"""

from __future__ import annotations

import sys
import time

start = time.perf_counter()

from common import bootstrap  # noqa: E402


def main(workload: str, tiny: bool) -> float:
    bootstrap()
    from specs import FULL, TINY, TRAINED_LINE

    spec = (TINY if tiny else FULL)[workload]
    if workload == "paper-cell":
        from repro.core.detector import DetectorConfig
        from repro.core.pipeline import OnlineVoiceprint  # noqa: F401
        from repro.core.thresholds import LinearThreshold
        from repro.eval.runner import run_voiceprint  # noqa: F401
        from repro.sim.scenario import ScenarioConfig
        from repro.sim.simulator import HighwaySimulator

        LinearThreshold(*TRAINED_LINE)
        DetectorConfig(observation_time=20.0)
        HighwaySimulator(
            ScenarioConfig(density_vhls_per_km=spec.density, sim_time_s=spec.sim_time_s),
            recorded_nodes=spec.recorded,
        )
        return time.perf_counter() - start
    from loadgen import service_config
    from repro.serve import DetectionService

    service = DetectionService(service_config())
    service.start()
    ready = time.perf_counter() - start
    service.stop()
    return ready


if __name__ == "__main__":
    print(f"{main(sys.argv[1], '--tiny' in sys.argv[2:]):.9f}")
